//! A traced run never holds its events in full: while a `TraceSink`
//! records, seals and renders, the live heap stays within the rendered
//! text, the text's growth slack and a fixed number of hand-off chunks.
//! Measured by a live-bytes high-water allocator; this binary holds a
//! single test, so no other test thread allocates while it measures (the
//! sink's render worker is part of what it measures).

use spider_obs::trace::TraceEventKind;
use spider_obs::TraceSink;
use spider_types::{Amount, ChannelId, Direction, DropReason, NodeId, PathId, PaymentId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, tracking live heap bytes and their high-water mark the way
/// the repo benchmark does: a `realloc` retires the old block and counts
/// the new one. `Relaxed`: the counts are statistics and publish no
/// other data.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are only updated beside
// those calls and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is a valid non-zero size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Event `i` of a trace mixing every record kind, with engine-like
/// magnitudes (ids growing with `i`, amounts in the millions of drops).
fn event(i: u64) -> TraceEventKind {
    let (payment, unit, amount) = (PaymentId(i / 40), i / 3, Amount::from_drops(1_000_000 + i));
    let (channel, path, node) = (
        ChannelId((i % 97) as u32),
        PathId((i % 500) as u32),
        NodeId((i % 32) as u32),
    );
    let reason = DropReason::QueueTimeout;
    match i % 17 {
        0 => TraceEventKind::PaymentArrival {
            payment,
            src: node,
            dst: NodeId(31 - node.0),
            amount,
        },
        1 => TraceEventKind::RouteProposal {
            payment,
            attempt: (i % 3) as u32,
            path,
            amount,
        },
        2 => TraceEventKind::LockOutcome {
            payment,
            path,
            amount,
            ok: i.is_multiple_of(2),
        },
        3 => TraceEventKind::UnitInjected {
            payment,
            unit,
            path,
            amount,
        },
        4 => TraceEventKind::UnitEnqueued {
            unit,
            channel,
            qlen: (i % 50) as u32,
        },
        5 => TraceEventKind::UnitForwarded {
            unit,
            channel,
            hop: (i % 4) as u32,
        },
        6 => TraceEventKind::UnitDelivered { unit },
        7 => TraceEventKind::UnitSettled {
            payment,
            amount,
            path,
        },
        8 => TraceEventKind::UnitDropped {
            unit,
            reason,
            attempts: (i % 3) as u32,
        },
        9 => TraceEventKind::UnitAcked {
            payment,
            unit,
            delivered: true,
            marked: i.is_multiple_of(5),
        },
        10 => TraceEventKind::PaymentCompleted {
            payment,
            latency_us: 250_000 + i,
        },
        11 => TraceEventKind::PaymentExpired {
            payment,
            remaining: amount,
            rejected: false,
        },
        12 => TraceEventKind::TopologyChanged {
            closed: 1,
            opened: 2,
            resized: 0,
        },
        13 => TraceEventKind::FaultApplied {
            node,
            crashed: i.is_multiple_of(2),
        },
        14 => TraceEventKind::UnitRefunded {
            payment,
            amount,
            path,
            attempts: (i % 3) as u32,
            reason: Some(reason),
        },
        15 => TraceEventKind::ChannelUpdated {
            channel,
            closed: i.is_multiple_of(2),
            capacity: amount,
            fwd: Amount::from_drops(600_000),
            bwd: Amount::from_drops(400_000 + i),
        },
        _ => TraceEventKind::Deposit {
            channel,
            dir: Direction::Backward,
            amount,
        },
    }
}

/// Bytes of one hand-off chunk: 4096 events of 48 bytes.
const CHUNK_BYTES: usize = 4096 * 48;

/// Chunks a sink holds at most: 8 queued for the worker, the one it
/// renders, the one being filled and the one about to be.
const CHUNKS_HELD: usize = 8 + 3;

/// What the sink's worker thread, its two channels and the path table
/// allocate besides the text and the chunks.
const BOOKKEEPING: usize = 256 << 10;

#[test]
fn recording_holds_the_text_and_a_few_chunks_never_every_event() {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let n = 400_000;
    let mut sink = TraceSink::new();
    for i in 0..n {
        sink.record(i * 1_000, event(i));
    }
    let paths = (0..500).map(|id| (id, vec![1, 7, 19, 30])).collect();
    let out = sink.finish(paths).to_jsonl();
    let high_water = PEAK.load(Relaxed) - base;

    assert_eq!(out.lines().count(), n as usize + 500);
    // The text grows by a 64th of itself, or by 64 KiB while that is more.
    let slack = (out.len() / 64).max(64 << 10);
    let bound = out.len() + slack + CHUNKS_HELD * CHUNK_BYTES + BOOKKEEPING;
    assert!(
        high_water <= bound,
        "{high_water} bytes live at the peak for {} of text (bound {bound})",
        out.len()
    );
    // Holding every event until the render — what rendering after the
    // run costs — would break the bound.
    let events = n as usize * std::mem::size_of::<spider_obs::TraceEvent>();
    assert!(out.len() + events > bound);
    assert!(
        out.capacity() <= out.len() + slack,
        "{} bytes in {} of capacity",
        out.len(),
        out.capacity()
    );
}
