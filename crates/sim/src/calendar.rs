//! The engine's calendar: a bucketed calendar queue (timing wheel with a
//! heap overflow tier).
//!
//! The classic DES result (Brown's calendar queues, the timing wheels of
//! ns-style simulators): when event times are spread over a bounded
//! near-future window, bucketing by time slice makes `push`/`pop` O(1)
//! amortized instead of the O(log n) of a binary heap — the difference
//! between laptop-scale excerpts and the paper's full 200 s horizons.
//!
//! * Events due within the wheel span (`n_buckets × bucket_width`) go into
//!   the bucket covering their time slice, unsorted.
//! * Events beyond the span go into a [`BinaryHeap`] **overflow tier** and
//!   migrate into their bucket when the cursor reaches it.
//! * Popping drains one bucket at a time: the bucket is sorted by
//!   `(time, seq)` once and then consumed in order, so the pop sequence is
//!   **exactly** the order a global `BinaryHeap` over `(time, seq)` would
//!   produce — same-time ties break by insertion sequence, bit for bit
//!   (the property the determinism goldens pin; see the proptest below).
//!
//! Cancellation is the engine's concern: canceled events stay queued and
//! are skipped at pop time (`event_store[id] = None`), so the queue never
//! needs removal.

use spider_types::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queued entry: `(time µs, seq, event id)`. Lexicographic tuple order
/// is exactly the engine's `(SimTime, seq)` priority (ids never tie —
/// seqs are unique).
type Entry = (u64, u64, usize);

/// Default bucket width: 1 ms of simulated time (the ISP workload's mean
/// inter-arrival time), so steady-state buckets hold a handful of events.
pub const DEFAULT_BUCKET_WIDTH_US: u64 = 1_000;

/// Default bucket count (power of two). 4096 × 1 ms ≈ 4.1 s of wheel span
/// covers every recurring engine delay (hop 10 ms, poll 100 ms, settle
/// 0.5 s, queue timeout 1.5 s); only rarities like on-chain rebalancing
/// confirmations hit the overflow heap.
pub const DEFAULT_N_BUCKETS: usize = 4096;

/// A bucketed calendar queue over `(SimTime, seq, id)` entries.
///
/// Pops are globally ordered by `(time, seq)`. Pushing a time earlier than
/// an already-popped entry is a caller bug (time cannot run backwards);
/// pushing *at* the current drain instant with a fresh (higher) seq — or a
/// reserved seq that still orders after everything already popped — is
/// fully supported, which is what lets the engine merge streaming arrivals
/// into the calendar as they become due.
#[derive(Debug)]
pub struct CalendarQueue {
    /// The wheel. `buckets[(cursor + k) & mask]` covers
    /// `[wheel_time + k·width, wheel_time + (k+1)·width)`.
    buckets: Vec<Vec<Entry>>,
    /// Bucket width in µs.
    width: u64,
    /// `n_buckets − 1` (bucket count is a power of two).
    mask: usize,
    /// Start instant of the bucket at `cursor` — the next bucket to drain.
    /// Wider than a time, so `pop` is total: the slice after `u64::MAX` µs
    /// has a start too.
    wheel_time: u128,
    cursor: usize,
    /// Entries currently resident in wheel buckets.
    wheel_len: usize,
    /// Far-future tier: entries at or beyond the wheel span.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// The drained current bucket, sorted ascending; covers times below
    /// `wheel_time`. Consumed from `active_pos`; same-slice pushes are
    /// merge-inserted behind the consumption point.
    active: Vec<Entry>,
    active_pos: usize,
    len: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// An empty queue with the default geometry.
    pub fn new() -> Self {
        CalendarQueue::with_geometry(DEFAULT_BUCKET_WIDTH_US, DEFAULT_N_BUCKETS)
    }

    /// An empty queue with explicit bucket width (µs) and count (a power
    /// of two). Geometry affects only performance, never pop order.
    pub fn with_geometry(width_us: u64, n_buckets: usize) -> Self {
        assert!(width_us > 0, "bucket width must be positive");
        assert!(
            n_buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        CalendarQueue {
            buckets: (0..n_buckets).map(|_| Vec::new()).collect(),
            width: width_us,
            mask: n_buckets - 1,
            wheel_time: 0,
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            active: Vec::new(),
            active_pos: 0,
            len: 0,
        }
    }

    /// Number of queued entries (canceled-but-unpopped ones included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel span in µs: entries this far past the cursor go to the
    /// overflow heap.
    #[inline]
    fn span(&self) -> u64 {
        self.width * (self.mask as u64 + 1)
    }

    /// Queues an entry.
    pub fn push(&mut self, at: SimTime, seq: u64, id: usize) {
        let t = at.micros();
        self.len += 1;
        let wide = u128::from(t);
        if wide < self.wheel_time {
            // The entry's slice was already drained into `active`: merge it
            // in behind the consumption point. The engine only pushes
            // times ≥ the instant it is currently draining, so the slot
            // found is never before `active_pos`.
            let entry = (t, seq, id);
            let pos = self.active.partition_point(|e| *e < entry);
            debug_assert!(pos >= self.active_pos, "push into the drained past");
            self.active.insert(pos, entry);
        } else if wide - self.wheel_time < u128::from(self.span()) {
            let k = ((wide - self.wheel_time) as u64 / self.width) as usize;
            let b = (self.cursor + k) & self.mask;
            self.buckets[b].push((t, seq, id));
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((t, seq, id)));
        }
    }

    /// Removes and returns the smallest `(time, seq)` entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, usize)> {
        loop {
            if self.active_pos < self.active.len() {
                let (t, seq, id) = self.active[self.active_pos];
                self.active_pos += 1;
                self.len -= 1;
                return Some((SimTime::from_micros(t), seq, id));
            }
            if self.len == 0 {
                return None;
            }
            self.active.clear();
            self.active_pos = 0;
            if self.wheel_len == 0 {
                // Everything lives in the overflow tier: jump the wheel
                // straight to the earliest entry's slice instead of
                // stepping through empty buckets. Overflow entries never
                // lie before the cursor's slice, so `wheel_time` fits.
                let &Reverse((t, _, _)) = self.overflow.peek().expect("len > 0");
                let skip = (t - self.wheel_time as u64) / self.width;
                self.wheel_time += u128::from(skip * self.width);
                self.cursor = (self.cursor + skip as usize) & self.mask;
            }
            // Migrate overflow entries due in the cursor's slice, then
            // drain that bucket sorted.
            let bucket_end = self.wheel_time + u128::from(self.width);
            while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
                if u128::from(t) >= bucket_end {
                    break;
                }
                let Reverse(e) = self.overflow.pop().expect("peeked");
                self.buckets[self.cursor].push(e);
                self.wheel_len += 1;
            }
            if !self.buckets[self.cursor].is_empty() {
                std::mem::swap(&mut self.active, &mut self.buckets[self.cursor]);
                self.wheel_len -= self.active.len();
                self.active.sort_unstable();
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.wheel_time = bucket_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: a plain binary heap over the same tuples.
    #[derive(Default)]
    struct HeapRef(BinaryHeap<Reverse<Entry>>);
    impl HeapRef {
        fn push(&mut self, at: u64, seq: u64, id: usize) {
            self.0.push(Reverse((at, seq, id)));
        }
        fn pop(&mut self) -> Option<Entry> {
            self.0.pop().map(|Reverse(e)| e)
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::with_geometry(100, 8);
        // Same time, different seqs; spread times; far-future overflow.
        q.push(SimTime::from_micros(500), 2, 10);
        q.push(SimTime::from_micros(500), 1, 11);
        q.push(SimTime::from_micros(50), 3, 12);
        q.push(SimTime::from_micros(1_000_000), 4, 13); // overflow tier
        q.push(SimTime::from_micros(799), 5, 14);
        assert_eq!(q.len(), 5);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            got,
            vec![
                (SimTime::from_micros(50), 3, 12),
                (SimTime::from_micros(500), 1, 11),
                (SimTime::from_micros(500), 2, 10),
                (SimTime::from_micros(799), 5, 14),
                (SimTime::from_micros(1_000_000), 4, 13),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_at_current_instant() {
        // Pushing at the instant currently being drained (the streaming-
        // arrival pattern) must order by seq against pending entries.
        let mut q = CalendarQueue::with_geometry(1_000, 8);
        q.push(SimTime::from_micros(10), 0, 0);
        q.push(SimTime::from_micros(10), 5, 1);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 0, 0)));
        // Arrives "now" with a seq between the two pending ones.
        q.push(SimTime::from_micros(10), 3, 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 3, 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 5, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_jump_skips_empty_buckets() {
        let mut q = CalendarQueue::with_geometry(10, 4); // 40 µs span
        q.push(SimTime::from_secs(100), 1, 0);
        q.push(SimTime::from_secs(300), 2, 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), 1, 0)));
        q.push(SimTime::from_secs(200), 3, 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(200), 3, 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(300), 2, 1)));
    }

    /// One scripted operation against both queues, decoded from a raw
    /// `(selector, delta)` pair (the vendored proptest shim has no
    /// `prop_oneof`).
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `last popped time + delta` with the next seq.
        Push {
            delta_us: u64,
        },
        /// Push with an out-of-line (reserved-block) seq, as the engine
        /// does for streaming arrivals.
        PushReserved {
            delta_us: u64,
        },
        Pop,
        /// Cancel the most recently pushed id (engine-style: mark a side
        /// table; the entry still pops and is skipped).
        CancelLast,
    }

    fn decode_op(selector: u8, delta: u64) -> Op {
        match selector % 7 {
            // Near-future pushes (same-slice ties are common)…
            0 => Op::Push {
                delta_us: delta % 5_000,
            },
            // …far-future pushes that exercise the overflow tier…
            1 => Op::Push {
                delta_us: delta % 5_000_000,
            },
            // …and reserved-seq pushes (streamed arrivals).
            2 => Op::PushReserved {
                delta_us: delta % 50_000,
            },
            // …pushes anywhere up to the end of time (saturating at
            // `u64::MAX` µs), which fill the top buckets of the range…
            3 => Op::Push { delta_us: delta },
            4 | 5 => Op::Pop,
            _ => Op::CancelLast,
        }
    }

    proptest! {
        /// Arbitrary push/pop/cancel sequences (same-time ties, reserved
        /// low seqs, mid-run cancels, far-future overflow, times up to
        /// `u64::MAX` µs) pop identically from the calendar queue and the
        /// reference heap.
        #[test]
        fn matches_binary_heap_reference(
            raw_ops in proptest::collection::vec((0u8..255, 0u64..u64::MAX), 1..200),
            width_exp in 0u32..12,
            buckets_exp in 0u32..8,
        ) {
            let ops: Vec<Op> = raw_ops
                .into_iter()
                .map(|(sel, delta)| decode_op(sel, delta))
                .collect();
            let mut cal = CalendarQueue::with_geometry(1 << width_exp, 1 << buckets_exp);
            let mut heap = HeapRef::default();
            let mut now = 0u64;          // monotone drain instant
            let mut seq = 1u64 << 32;    // runtime seq space
            let mut reserved = 0u64;     // arrival-style low seq space
            let mut last_popped: Option<(u64, u64)> = None;
            let mut canceled = std::collections::BTreeSet::new();
            let mut last_pushed: Option<usize> = None;
            let mut next_id = 0usize;
            for op in ops {
                match op {
                    Op::Push { delta_us } => {
                        let t = now.saturating_add(delta_us);
                        cal.push(SimTime::from_micros(t), seq, next_id);
                        heap.push(t, seq, next_id);
                        last_pushed = Some(next_id);
                        seq += 1;
                        next_id += 1;
                    }
                    Op::PushReserved { delta_us } => {
                        // The engine guarantees a reserved-seq push still
                        // orders after everything already popped (arrival
                        // k+1 is pushed while arrival k executes, with a
                        // higher reserved seq and a later-or-equal time);
                        // only exercise pushes honoring that contract.
                        let t = now.saturating_add(delta_us);
                        if last_popped.is_none_or(|k| (t, reserved) > k) {
                            cal.push(SimTime::from_micros(t), reserved, next_id);
                            heap.push(t, reserved, next_id);
                            last_pushed = Some(next_id);
                            reserved += 1;
                            next_id += 1;
                        }
                    }
                    Op::Pop => {
                        let got = cal.pop();
                        let want = heap.pop();
                        prop_assert_eq!(
                            got.map(|(t, s, i)| (t.micros(), s, i)),
                            want
                        );
                        if let Some((t, s, id)) = got {
                            now = now.max(t.micros());
                            last_popped = Some((t.micros(), s));
                            // Engine-style skip of canceled entries.
                            let _ = canceled.remove(&id);
                        }
                    }
                    Op::CancelLast => {
                        if let Some(id) = last_pushed {
                            canceled.insert(id);
                        }
                    }
                }
                prop_assert_eq!(cal.len(), heap.0.len());
            }
            // Drain both to the end.
            loop {
                let got = cal.pop().map(|(t, s, i)| (t.micros(), s, i));
                let want = heap.pop();
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
