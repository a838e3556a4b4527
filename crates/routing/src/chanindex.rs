//! A per-channel secondary index over recycled slots: the
//! [`PathCache`](crate::PathCache)'s reverse index from a channel to the
//! cached pairs whose candidate paths cross it, so a topology update
//! finds its suspect pairs without walking every pair.
//!
//! Slots are recycled, so entries carry the slot's **generation** at
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
}

impl ChannelIndex {
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
    #[cfg(test)]
    pub fn live(&self, c: usize) -> u32 {
        self.live[c]
    }

    /// The raw (possibly stale) entry list of channel `c`.
    #[cfg(test)]
    pub fn entries(&self, c: usize) -> &[(u32, u32)] {
        &self.entries[c]
    }

    /// Collects channel `c`'s live member slots into `out`, sorted
    /// ascending (slot order, so what a caller does per member is
    /// deterministic). Compacts the entry list to exactly the live set as
    /// a side effect.
    pub fn collect_live_sorted(
        &mut self,
        c: usize,
        alive: impl Fn(u32, u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let list = &mut self.entries[c];
        list.retain(|&(s, g)| alive(s, g));
        out.extend(list.iter().map(|&(s, _)| s));
        out.sort_unstable();
        debug_assert_eq!(out.len(), self.live[c] as usize, "live count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn collects_live_members_sorted_and_skips_stale() {
        let mut idx = ChannelIndex::with_capacities(&[0, 0]);
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
        let mut idx = ChannelIndex::with_capacities(&[0]);
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
