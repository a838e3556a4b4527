//! The shared path interner.
//!
//! Every routed path in a simulation is interned exactly once into a
//! [`PathTable`]: the node sequence is stored next to its pre-resolved
//! `(ChannelId, Direction)` hop array, and everything downstream — route
//! proposals, per-unit state, settle events, acknowledgements — carries a
//! copyable [`PathId`] instead of cloning node vectors and re-running
//! `channel_between` per hop per unit.
//!
//! The table lives on the [`Simulation`](crate::Simulation) and is exposed
//! to routers through [`NetworkView`](crate::NetworkView), so routing and
//! the engine resolve against the same dense id space. Interning is
//! idempotent: the same node sequence always yields the same id, which is
//! what lets adaptive routers compare an acknowledged path against their
//! candidate set with a single integer comparison.
//!
//! The table only assigns ids: a caller that found a path by searching
//! already knows every hop's channel and hands it over
//! ([`PathTable::intern_batch`]), and all the new paths of one call are
//! stored back to back in one shared segment — a batch of a hundred
//! thousand paths costs a handful of allocations, not three per path.
//!
//! Entries are handed out as [`PathEntry`] handles (one `Rc` clone), so
//! callers can hold a resolved path across arbitrary engine mutations
//! without borrowing the table.

use spider_topology::Topology;
use spider_types::{ChannelId, Direction, IdHashMap, NodeId, PathId, Result};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// One resolved hop: the channel crossed and the direction of travel.
type Hop = (ChannelId, Direction);

/// What one interning call added: the nodes of its new paths back to back,
/// and beside each node the hop that leaves it. A path's last node has no
/// hop; its slot holds a filler, so one offset addresses both arrays.
#[derive(Debug)]
struct Segment {
    nodes: Box<[NodeId]>,
    hops: Box<[Hop]>,
}

/// Occupies the hop slot of a path's last node; never read.
const NO_HOP: Hop = (ChannelId(u32::MAX), Direction::Forward);

/// One interned path: the node sequence and its hops, resolved once. A
/// cheap handle onto the segment that stores them.
#[derive(Clone)]
pub struct PathEntry {
    segment: Rc<Segment>,
    /// Where the path starts in the segment.
    start: u32,
    /// Number of nodes.
    len: u32,
}

impl PathEntry {
    /// The node sequence, source first.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.segment.nodes[self.start as usize..(self.start + self.len) as usize]
    }

    /// The pre-resolved channel hops, in travel order.
    #[inline]
    pub fn hops(&self) -> &[(ChannelId, Direction)] {
        &self.segment.hops[self.start as usize..(self.start + self.len - 1) as usize]
    }

    /// Number of hops (edges).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.len as usize - 1
    }

    /// Source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes()[0]
    }

    /// Destination node.
    #[inline]
    pub fn dest(&self) -> NodeId {
        *self.nodes().last().expect("paths are non-empty")
    }
}

impl PartialEq for PathEntry {
    fn eq(&self, other: &Self) -> bool {
        self.nodes() == other.nodes() && self.hops() == other.hops()
    }
}

impl Eq for PathEntry {}

impl fmt::Debug for PathEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathEntry")
            .field("nodes", &self.nodes())
            .field("hops", &self.hops())
            .finish()
    }
}

/// The dedup index's key: an entry that hashes and compares as its node
/// sequence, so a lookup needs only the nodes.
#[derive(Debug)]
struct ByNodes(PathEntry);

impl Borrow<[NodeId]> for ByNodes {
    fn borrow(&self) -> &[NodeId] {
        self.0.nodes()
    }
}

impl Hash for ByNodes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.nodes().hash(state);
    }
}

impl PartialEq for ByNodes {
    fn eq(&self, other: &Self) -> bool {
        self.0.nodes() == other.0.nodes()
    }
}

impl Eq for ByNodes {}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<PathEntry>,
    index: IdHashMap<ByNodes, PathId>,
}

impl Inner {
    /// The one insert body: gives the `len`-node path at `start` of
    /// `segment` the next id — or, when an equal path is interned already,
    /// returns that path's id and leaves the table as it was.
    fn insert(&mut self, segment: &Rc<Segment>, start: usize, len: usize) -> PathId {
        assert!(len > 0, "cannot intern an empty path");
        assert!(
            u32::try_from(start + len).is_ok(),
            "segment exceeds u32 offsets"
        );
        let (start, len) = (start as u32, len as u32);
        let next = PathId::from_index(self.entries.len());
        match self.index.entry(ByNodes(PathEntry {
            segment: Rc::clone(segment),
            start,
            len,
        })) {
            Entry::Occupied(seen) => *seen.get(),
            Entry::Vacant(vacant) => {
                self.entries.push(vacant.key().0.clone());
                vacant.insert(next);
                next
            }
        }
    }
}

/// Append-only, deduplicating store of resolved paths.
///
/// Uses interior mutability so routers can intern through the shared
/// [`NetworkView`](crate::NetworkView) reference; lookups hand out
/// [`PathEntry`] clones and never hold a borrow across caller code.
#[derive(Debug, Default)]
pub struct PathTable {
    inner: RefCell<Inner>,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        PathTable::default()
    }

    /// Interns a node path, resolving its hops against `topo` on first
    /// sight. Returns an error if consecutive nodes are not adjacent.
    pub fn try_intern(&self, topo: &Topology, nodes: &[NodeId]) -> Result<PathId> {
        if let Some(&id) = self.inner.borrow().index.get(nodes) {
            return Ok(id);
        }
        let mut hops = topo.path_channels(nodes)?;
        hops.push(NO_HOP);
        let segment = Rc::new(Segment {
            nodes: nodes.into(),
            hops: hops.into_boxed_slice(),
        });
        Ok(self.inner.borrow_mut().insert(&segment, 0, nodes.len()))
    }

    /// Interns a node path known to follow topology edges. Panics
    /// otherwise — routers that can produce off-topology candidates should
    /// use [`PathTable::try_intern`].
    pub fn intern(&self, topo: &Topology, nodes: &[NodeId]) -> PathId {
        self.try_intern(topo, nodes)
            .expect("path follows topology edges")
    }

    /// Interns a batch of paths that come with the channel of every hop
    /// (what a path search knows anyway), so nothing is looked up: a hop's
    /// direction follows from the node it leaves. Used by the batched
    /// candidate-path oracle to bulk-load worker-thread results; ids come
    /// back in input order, with duplicates resolving to the same id
    /// exactly as [`PathTable::intern`] would assign them one at a time.
    /// The channels must be the ones `topo` has between consecutive nodes.
    /// All the new paths of one call share one segment.
    pub fn intern_batch<'a>(
        &self,
        topo: &Topology,
        paths: impl IntoIterator<Item = (&'a [NodeId], &'a [ChannelId])>,
    ) -> Vec<PathId> {
        let mut inner = self.inner.borrow_mut();
        let (mut nodes, mut hops): (Vec<NodeId>, Vec<Hop>) = (Vec::new(), Vec::new());
        // A key must own a handle onto the finished segment, so paths not
        // seen before wait for it: `(start in the segment, node count)`,
        // their ids marked pending.
        const PENDING: PathId = PathId(u32::MAX);
        let mut staged: Vec<(usize, usize)> = Vec::new();
        let mut ids: Vec<PathId> = paths
            .into_iter()
            .map(|(path, channels)| {
                // (Hop by hop, so a debug build allocates what a release
                // build does.)
                debug_assert!(
                    path.windows(2)
                        .map(|hop| topo.channel_between(hop[0], hop[1]))
                        .eq(channels.iter().map(|&c| Some(c))),
                    "carried channels {channels:?} are not the hops of {path:?}"
                );
                if let Some(&id) = inner.index.get(path) {
                    return id;
                }
                staged.push((nodes.len(), path.len()));
                nodes.extend_from_slice(path);
                let leaving = channels.iter().zip(path);
                hops.extend(leaving.map(|(&c, &from)| (c, topo.channel(c).direction_from(from))));
                hops.push(NO_HOP);
                assert_eq!(hops.len(), nodes.len(), "one channel per hop of {path:?}");
                PENDING
            })
            .collect();
        if staged.is_empty() {
            return ids;
        }
        let segment = Rc::new(Segment {
            nodes: nodes.into_boxed_slice(),
            hops: hops.into_boxed_slice(),
        });
        // In input order, so ids are assigned as one-at-a-time interning
        // would; the same new path twice in one call resolves to the first.
        let pending = ids.iter_mut().filter(|id| **id == PENDING);
        for (id, (start, len)) in pending.zip(staged) {
            *id = inner.insert(&segment, start, len);
        }
        ids
    }

    /// Makes room for `additional` more paths, so one big batch grows the
    /// dedup index once instead of rehashing it on the way up.
    pub fn reserve(&self, additional: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.entries.reserve(additional);
        inner.index.reserve(additional);
    }

    /// The entry for an interned id (a cheap clone).
    #[inline]
    pub fn entry(&self, id: PathId) -> PathEntry {
        self.inner.borrow().entries[id.index()].clone()
    }

    /// Runs `f` on the entry for `id` under the table borrow — no `Rc`
    /// refcount traffic. For tight read-only loops (bottleneck probes);
    /// `f` must not call back into the table.
    #[inline]
    pub fn map_entry<R>(&self, id: PathId, f: impl FnOnce(&PathEntry) -> R) -> R {
        f(&self.inner.borrow().entries[id.index()])
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;
    use spider_types::Amount;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn interning_is_idempotent() {
        let t = gen::line(4, Amount::from_xrp(10));
        let table = PathTable::new();
        let a = table.intern(&t, &[n(0), n(1), n(2)]);
        let b = table.intern(&t, &[n(0), n(1), n(2)]);
        assert_eq!(a, b);
        assert_eq!(table.len(), 1);
        let c = table.intern(&t, &[n(2), n(1), n(0)]);
        assert_ne!(a, c, "direction matters");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn entry_resolves_hops_once() {
        let t = gen::line(3, Amount::from_xrp(10));
        let table = PathTable::new();
        let id = table.intern(&t, &[n(0), n(1), n(2)]);
        let e = table.entry(id);
        assert_eq!(e.nodes(), &[n(0), n(1), n(2)]);
        assert_eq!(e.hop_count(), 2);
        assert_eq!(e.source(), n(0));
        assert_eq!(e.dest(), n(2));
        assert_eq!(Ok(e.hops().to_vec()), t.path_channels(&[n(0), n(1), n(2)]));
    }

    #[test]
    fn off_topology_paths_are_rejected() {
        let t = gen::line(3, Amount::from_xrp(10));
        let table = PathTable::new();
        assert!(table.try_intern(&t, &[n(0), n(2)]).is_err());
        assert!(table.is_empty());
    }

    /// What a path search hands over for `nodes`: each hop's channel, no
    /// direction.
    fn carried(t: &Topology, nodes: &[NodeId]) -> Vec<ChannelId> {
        let hops = t.path_channels(nodes).into_iter().flatten();
        hops.map(|(c, _)| c).collect()
    }

    #[test]
    fn intern_batch_matches_one_at_a_time() {
        let t = gen::line(4, Amount::from_xrp(10));
        let seqs: Vec<Vec<NodeId>> = vec![
            vec![n(0), n(1), n(2)],
            vec![n(1), n(2)],
            vec![n(0), n(1), n(2)], // duplicate inside the batch
            vec![n(3), n(2)],
            vec![n(1)], // no hops
        ];
        let channels: Vec<Vec<ChannelId>> = seqs.iter().map(|s| carried(&t, s)).collect();
        let batch = || {
            let both = seqs.iter().zip(&channels);
            both.map(|(nodes, channels)| (nodes.as_slice(), channels.as_slice()))
        };
        let batch_table = PathTable::new();
        let batch_ids = batch_table.intern_batch(&t, batch());
        let one_table = PathTable::new();
        let one_ids: Vec<PathId> = seqs.iter().map(|s| one_table.intern(&t, s)).collect();
        assert_eq!(batch_ids, one_ids);
        assert_eq!(batch_table.len(), one_table.len());
        assert_eq!(batch_table.len(), 4, "duplicate dedups");
        // Directions were derived, not looked up — and derived right.
        for &id in &batch_ids {
            let (batched, one) = (batch_table.entry(id), one_table.entry(id));
            assert_eq!(batched, one);
            assert_eq!(
                Ok(batched.hops().to_vec()),
                t.path_channels(batched.nodes())
            );
        }
        // A later batch sees earlier interning, and single interning lands
        // in the same id space.
        batch_table.reserve(8);
        let late = [n(2), n(3)];
        let late_channels = carried(&t, &late);
        let more = batch_table.intern_batch(
            &t,
            batch().chain([(late.as_slice(), late_channels.as_slice())]),
        );
        assert_eq!(more.split_last(), Some((&PathId(4), batch_ids.as_slice())));
        assert_eq!(batch_table.len(), 5);
        assert_eq!(batch_table.intern(&t, &late), PathId(4));
        // A batch with nothing new adds nothing.
        assert_eq!(batch_table.intern_batch(&t, batch()), batch_ids);
        assert_eq!(batch_table.len(), 5);
    }

    /// A handle outlives any amount of later interning, and entries that
    /// share a segment do not see each other's nodes.
    #[test]
    fn entries_stay_valid_as_the_table_grows() {
        let t = gen::line(40, Amount::from_xrp(10));
        let table = PathTable::new();
        let first = table.entry(table.intern(&t, &[n(5), n(4), n(3)]));
        let before = format!("{first:?}");
        assert!(before.contains("nodes") && before.contains("hops"));
        for i in 0..38 {
            let (out, back) = ([n(i), n(i + 1)], [n(i + 2), n(i + 1), n(i)]);
            let (out_channels, back_channels) = (carried(&t, &out), carried(&t, &back));
            let batch = [
                (out.as_slice(), out_channels.as_slice()),
                (back.as_slice(), back_channels.as_slice()),
            ];
            for id in table.intern_batch(&t, batch) {
                let entry = table.entry(id);
                assert_eq!(Ok(entry.hops().to_vec()), t.path_channels(entry.nodes()));
            }
        }
        assert_eq!(table.len(), 1 + 2 * 38 - 1, "5-4-3 came round again");
        assert_eq!(first.nodes(), &[n(5), n(4), n(3)]);
        assert_eq!(format!("{first:?}"), before);
        assert_eq!(table.entry(PathId(0)), first);
    }

    #[test]
    fn single_node_path_has_no_hops() {
        let t = gen::line(2, Amount::from_xrp(10));
        let table = PathTable::new();
        let id = table.intern(&t, &[n(1)]);
        let e = table.entry(id);
        assert_eq!(e.hop_count(), 0);
        assert_eq!(e.source(), e.dest());
    }
}
