//! Per-channel secondary indices over slab slots.
//!
//! The engine keeps two of these: pending lockstep `Settle` event ids and
//! in-flight hop-by-hop unit ids, each indexed by the channels their path
//! traverses. A topology-churn close then touches only its own channel's
//! work instead of walking the whole event/unit slab — the scan that made
//! churn cost O(total scheduled work) at paper scale.
//!
//! Slab slots are recycled, so entries carry the slot's **generation** at
//! insertion time; an entry whose generation no longer matches is stale
//! and skipped. Stale entries are removed lazily: membership is a cheap
//! `Vec` push, death is a counter decrement, and a channel's entry list is
//! compacted whenever it grows past twice its live population — keeping
//! every query O(live members) amortized, never O(total ever inserted).

/// Per-channel membership lists with generation-checked lazy deletion.
#[derive(Debug, Clone, Default)]
pub struct ChannelIndex {
    /// `entries[c]`: `(slot, generation)` pairs, possibly stale.
    entries: Vec<Vec<(u32, u32)>>,
    /// `live[c]`: exact count of live members (maintained by callers via
    /// [`ChannelIndex::insert`] / [`ChannelIndex::note_removed`]).
    live: Vec<u32>,
    /// Entries examined by **queries** ([`ChannelIndex::collect_live_sorted`])
    /// — the observable the churn-cost regression tests assert stays
    /// O(the channel's live work), not O(total slab). Compaction scans are
    /// not counted: they are amortized insertion cost, already visible in
    /// the throughput benchmarks.
    scan_steps: u64,
}

impl ChannelIndex {
    /// An index over `n` channels with no members.
    pub fn new(n: usize) -> Self {
        ChannelIndex {
            entries: (0..n).map(|_| Vec::new()).collect(),
            live: vec![0; n],
            scan_steps: 0,
        }
    }

    /// An index with no members whose channel `c` has room for
    /// `capacities[c]` entries — for a caller about to insert a known
    /// population, so no list doubles its way up from empty.
    pub fn with_capacities(capacities: &[u32]) -> Self {
        ChannelIndex {
            entries: capacities
                .iter()
                .map(|&n| Vec::with_capacity(n as usize))
                .collect(),
            live: vec![0; capacities.len()],
            scan_steps: 0,
        }
    }

    /// Registers slot `slot` (at generation `gen`) as a member of channel
    /// `c`. `alive` decides entry liveness for the amortized compaction.
    pub fn insert(&mut self, c: usize, slot: u32, gen: u32, alive: impl Fn(u32, u32) -> bool) {
        let list = &mut self.entries[c];
        if list.len() >= 16 && list.len() as u32 > 2 * self.live[c] {
            list.retain(|&(s, g)| alive(s, g));
        }
        list.push((slot, gen));
        self.live[c] += 1;
    }

    /// Notes that one live member of channel `c` died (its entry goes
    /// stale and is collected lazily).
    pub fn note_removed(&mut self, c: usize) {
        debug_assert!(self.live[c] > 0, "removing from an empty channel");
        self.live[c] -= 1;
    }

    /// Exact live-member count of channel `c`.
    pub fn live(&self, c: usize) -> u32 {
        self.live[c]
    }

    /// The raw (possibly stale) entry list of channel `c` — for the debug
    /// consistency assertions and the microbenchmarks.
    pub fn entries(&self, c: usize) -> &[(u32, u32)] {
        &self.entries[c]
    }

    /// Collects channel `c`'s live member slots into `out`, sorted
    /// ascending (slab order — the order the old full-slab scan visited
    /// them, which churn determinism depends on). Compacts the entry list
    /// to exactly the live set as a side effect.
    pub fn collect_live_sorted(
        &mut self,
        c: usize,
        alive: impl Fn(u32, u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let list = &mut self.entries[c];
        self.scan_steps += list.len() as u64;
        list.retain(|&(s, g)| alive(s, g));
        out.extend(list.iter().map(|&(s, _)| s));
        out.sort_unstable();
        debug_assert_eq!(out.len(), self.live[c] as usize, "live count drifted");
    }

    /// Debug-build audit against the slab this index mirrors. `members`
    /// yields `(slot, generation, channel)` for every live slab entry and
    /// each channel it traverses: each must be a generation-valid entry of
    /// that channel's list, and the live counters must match the recount.
    #[cfg(debug_assertions)]
    pub fn debug_check(&self, what: &str, members: impl Iterator<Item = (u32, u32, usize)>) {
        let mut live = vec![0u32; self.live.len()];
        for (slot, gen, c) in members {
            live[c] += 1;
            assert!(
                self.entries[c].contains(&(slot, gen)),
                "live {what} {slot} missing from channel {c} index"
            );
        }
        assert_eq!(live, self.live, "{what} index live counts drifted");
    }

    /// Total entries examined across all queries.
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn collects_live_members_sorted_and_skips_stale() {
        let mut idx = ChannelIndex::new(2);
        let mut gens = vec![0u32; 8];
        let mut dead: BTreeSet<u32> = BTreeSet::new();
        for s in [3u32, 1, 5] {
            let (g, d) = (gens.clone(), dead.clone());
            idx.insert(0, s, gens[s as usize], move |s, gen| {
                g[s as usize] == gen && !d.contains(&s)
            });
        }
        idx.insert(1, 2, 0, |_, _| true);
        // Slot 1 dies; slot 5 dies and is recycled at a new generation.
        dead.insert(1);
        idx.note_removed(0);
        dead.insert(5);
        idx.note_removed(0);
        gens[5] = 1;
        let mut out = Vec::new();
        let (g, d) = (gens.clone(), dead.clone());
        idx.collect_live_sorted(
            0,
            |s, gen| g[s as usize] == gen && !d.contains(&s),
            &mut out,
        );
        assert_eq!(out, vec![3]);
        let (g, d) = (gens.clone(), dead.clone());
        idx.collect_live_sorted(
            1,
            |s, gen| g[s as usize] == gen && !d.contains(&s),
            &mut out,
        );
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn compaction_bounds_entry_growth() {
        // Insert/kill cycles far beyond the live population: the entry
        // list must stay proportional to live, not total ever inserted.
        let mut idx = ChannelIndex::new(1);
        let mut gens = vec![0u32; 4];
        for round in 0..1_000u32 {
            let slot = round % 4;
            gens[slot as usize] = round;
            let snapshot = gens.clone();
            idx.insert(0, slot, round, move |s, g| snapshot[s as usize] == g);
            if round >= 3 {
                idx.note_removed(0); // steady state: ~4 live
            }
        }
        assert!(idx.live(0) <= 4);
        assert!(
            idx.entries(0).len() <= 16.max(2 * idx.live(0) as usize + 1),
            "entries grew unboundedly: {}",
            idx.entries(0).len()
        );
    }
}
