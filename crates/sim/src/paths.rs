//! The shared path interner.
//!
//! Every routed path in a simulation is interned exactly once into a
//! [`PathTable`]: the node sequence is stored next to its pre-resolved
//! [`Hop`] array (four bytes a hop: channel and direction), and everything
//! downstream — route proposals, per-unit state, settle events,
//! acknowledgements — carries a copyable [`PathId`] instead of cloning
//! node vectors and re-running `channel_between` per hop per unit.
//!
//! The table lives on the [`Simulation`](crate::Simulation) and is exposed
//! to routers through [`NetworkView`](crate::NetworkView), so routing and
//! the engine resolve against the same dense id space. Interning is
//! idempotent: the same node sequence always yields the same id, which is
//! what lets adaptive routers compare an acknowledged path against their
//! candidate set with a single integer comparison.
//!
//! The table only assigns ids: a caller that found paths by searching
//! already knows every hop — channel and direction — and hands over the
//! buffers it wrote them to ([`PathTable::adopt`]). Those buffers become
//! the table's segments as they are when every path in them is new (the
//! prewarm's case), so a batch of a hundred thousand paths is neither
//! copied nor allocated per path; a buffer holding paths the table has
//! already is compacted to the new ones.
//!
//! Duplicates are found by endpoints: equal node sequences have equal
//! ends, so a path is compared only with the earlier paths of its own
//! `(source, destination)` pair — a handful, linked newest first — and no
//! node sequence is ever hashed.
//!
//! Entries are handed out as [`PathEntry`] handles (one `Rc` clone), so
//! callers can hold a resolved path across arbitrary engine mutations
//! without borrowing the table.

use spider_topology::Topology;
use spider_types::{ChannelId, Direction, Hop, IdHashMap, NodeId, PathId, Result};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Paths as a search wrote them, for [`PathTable::adopt`]: their nodes
/// back to back, and beside each node the hop that leaves it (any value
/// beside a path's last node).
pub type PathBuffer = (Vec<NodeId>, Vec<Hop>);

/// Paths back to back: their nodes, and beside each node the hop that
/// leaves it. A path's last node has no hop; its slot holds a filler, so
/// one offset addresses both arrays.
#[derive(Debug)]
struct Segment {
    nodes: Box<[NodeId]>,
    hops: Box<[Hop]>,
}

/// Occupies the hop slot of a path's last node; never read.
const NO_HOP: Hop = Hop::new(ChannelId(0), Direction::Forward);

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
    pub fn hops(&self) -> &[Hop] {
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

/// The dedup key of a node sequence: its endpoints.
fn ends(nodes: &[NodeId]) -> (NodeId, NodeId) {
    (nodes[0], nodes[nodes.len() - 1])
}

/// Ends a pair's chain in [`PairChains::earlier`], and stands for "no path
/// yet" in [`PairChains::newest`].
const NO_PATH: PathId = PathId(u32::MAX);

/// The dedup index: per pair, its paths linked newest first.
#[derive(Debug, Default)]
struct PairChains {
    /// The newest path of each `(source, destination)` pair.
    newest: IdHashMap<(NodeId, NodeId), PathId>,
    /// Per path id: the path of the same pair interned just before it, or
    /// [`NO_PATH`].
    earlier: Vec<PathId>,
}

/// The paths of one pair, from `newest` back to its first.
fn chain(earlier: &[PathId], newest: PathId) -> impl Iterator<Item = PathId> + '_ {
    let linked = |id: PathId| Some(id).filter(|&id| id != NO_PATH);
    std::iter::successors(linked(newest), move |id| linked(earlier[id.index()]))
}

impl PairChains {
    /// The path of `pair` that `same` accepts, if any.
    fn find(&self, pair: (NodeId, NodeId), same: impl Fn(PathId) -> bool) -> Option<PathId> {
        let &newest = self.newest.get(&pair)?;
        chain(&self.earlier, newest).find(|&id| same(id))
    }

    /// Files `id` — the next id, which [`Self::find`] did not find — as
    /// the newest path of `pair`.
    fn file(&mut self, pair: (NodeId, NodeId), id: PathId) {
        debug_assert_eq!(id.index(), self.earlier.len(), "ids are filed in order");
        let newest = self.newest.entry(pair).or_insert(NO_PATH);
        self.earlier.push(*newest);
        *newest = id;
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<PathEntry>,
    index: PairChains,
}

/// A new path of a [`PathTable::adopt`] call: its buffer and where it sits.
struct Staged {
    buffer: u32,
    start: u32,
    len: u32,
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
        assert!(!nodes.is_empty(), "cannot intern an empty path");
        let pair = ends(nodes);
        {
            let inner = self.inner.borrow();
            let same = |id: PathId| inner.entries[id.index()].nodes() == nodes;
            if let Some(id) = inner.index.find(pair, same) {
                return Ok(id);
            }
        }
        let mut hops = topo.path_channels(nodes)?;
        hops.push(NO_HOP);
        let segment = Rc::new(Segment {
            nodes: nodes.into(),
            hops: hops.into_boxed_slice(),
        });
        let len = u32::try_from(nodes.len()).expect("path exceeds u32 offsets");
        let mut inner = self.inner.borrow_mut();
        let id = PathId::from_index(inner.entries.len());
        inner.index.file(pair, id);
        inner.entries.push(PathEntry {
            segment,
            start: 0,
            len,
        });
        Ok(id)
    }

    /// Interns a node path known to follow topology edges. Panics
    /// otherwise — routers that can produce off-topology candidates should
    /// use [`PathTable::try_intern`].
    pub fn intern(&self, topo: &Topology, nodes: &[NodeId]) -> PathId {
        self.try_intern(topo, nodes)
            .expect("path follows topology edges")
    }

    /// Interns a batch of paths a search wrote out with every hop, taking
    /// over the buffers that hold them: `paths` names each path by its
    /// buffer and its node range, ranges disjoint. Ids come back in
    /// `paths` order, assigned as [`PathTable::intern`] would assign them
    /// one at a time — a path the table holds, or that came earlier in the
    /// batch, resolves to its id. The hops must be the ones `topo` has
    /// between consecutive nodes.
    ///
    /// A buffer all of whose paths are new becomes a segment as it is
    /// (trimmed to its length); one that holds paths the table has already
    /// is compacted to the new ones; one with no new path is dropped. So
    /// the table keeps exactly the new paths. A run of paths with the same
    /// endpoints — a pair's candidates — costs one probe of the index.
    pub fn adopt(
        &self,
        topo: &Topology,
        buffers: Vec<PathBuffer>,
        paths: impl IntoIterator<Item = (usize, Range<usize>)>,
    ) -> Vec<PathId> {
        let mut inner = self.inner.borrow_mut();
        let Inner { entries, index } = &mut *inner;
        let PairChains { newest, earlier } = index;
        let first_new = entries.len();
        let mut staged: Vec<Staged> = Vec::new();
        let mut ids = Vec::new();
        // The pair of the run of paths being read, and its newest path.
        let mut run: Option<((NodeId, NodeId), &mut PathId)> = None;
        for (buffer, range) in paths {
            let (nodes, hops) = &buffers[buffer];
            assert_eq!(hops.len(), nodes.len(), "one hop slot per node");
            assert!(!range.is_empty(), "cannot intern an empty path");
            let path = &nodes[range.clone()];
            // (Hop by hop, so a debug build allocates what a release
            // build does.)
            debug_assert!(
                path.windows(2).zip(&hops[range.clone()]).all(|(hop, to)| {
                    let (c, dir) = to.parts();
                    topo.channel_between(hop[0], hop[1]) == Some(c)
                        && topo.channel(c).direction_from(hop[0]) == dir
                }),
                "carried hops {:?} are not those of {path:?}",
                &hops[range.start..range.end - 1]
            );
            let pair = ends(path);
            if run.as_ref().is_none_or(|(held, _)| *held != pair) {
                run = Some((pair, newest.entry(pair).or_insert(NO_PATH)));
            }
            let (_, newest) = run.as_mut().expect("set for this pair");
            let nodes_of = |id: PathId| match id.index().checked_sub(first_new) {
                None => entries[id.index()].nodes(),
                Some(i) => {
                    let new = &staged[i];
                    let start = new.start as usize;
                    &buffers[new.buffer as usize].0[start..start + new.len as usize]
                }
            };
            if let Some(known) = chain(earlier, **newest).find(|&id| nodes_of(id) == path) {
                ids.push(known);
                continue;
            }
            let id = PathId::from_index(first_new + staged.len());
            earlier.push(std::mem::replace(*newest, id));
            let offset = |i: usize| u32::try_from(i).expect("buffer exceeds u32 offsets");
            let (start, end) = (offset(range.start), offset(range.end));
            staged.push(Staged {
                buffer: offset(buffer),
                start,
                len: end - start,
            });
            ids.push(id);
        }
        let mut used = vec![0; buffers.len()];
        for new in &staged {
            used[new.buffer as usize] += new.len as usize;
        }
        let segments: Vec<Option<Rc<Segment>>> = buffers
            .into_iter()
            .enumerate()
            .map(|(b, (nodes, hops))| match used[b] {
                0 => None,
                whole if whole == nodes.len() => Some(Rc::new(Segment {
                    nodes: nodes.into_boxed_slice(),
                    hops: hops.into_boxed_slice(),
                })),
                part => {
                    let (mut kept, mut kept_hops) =
                        (Vec::with_capacity(part), Vec::with_capacity(part));
                    for new in staged.iter_mut().filter(|new| new.buffer as usize == b) {
                        let range = new.start as usize..(new.start + new.len) as usize;
                        new.start = kept.len() as u32;
                        kept.extend_from_slice(&nodes[range.clone()]);
                        kept_hops.extend_from_slice(&hops[range]);
                    }
                    Some(Rc::new(Segment {
                        nodes: kept.into_boxed_slice(),
                        hops: kept_hops.into_boxed_slice(),
                    }))
                }
            })
            .collect();
        entries.reserve(staged.len());
        for new in staged {
            let segment = segments[new.buffer as usize]
                .as_ref()
                .expect("holds a new path");
            entries.push(PathEntry {
                segment: Rc::clone(segment),
                start: new.start,
                len: new.len,
            });
        }
        ids
    }

    /// Makes room for `paths` more paths of `pairs` more pairs, so one
    /// big batch grows the dedup index once instead of rehashing it on the
    /// way up.
    pub fn reserve(&self, paths: usize, pairs: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.entries.reserve(paths);
        inner.index.earlier.reserve(paths);
        inner.index.newest.reserve(pairs);
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

    /// `paths` laid out as a search leaves them: one buffer, each node
    /// beside the hop that leaves it, and each path's node range.
    fn written(t: &Topology, paths: &[&[NodeId]]) -> (PathBuffer, Vec<Range<usize>>) {
        let total = paths.iter().map(|p| p.len()).sum();
        let (mut nodes, mut hops) = (Vec::with_capacity(total), Vec::with_capacity(total));
        let mut ranges = Vec::new();
        for path in paths {
            ranges.push(nodes.len()..nodes.len() + path.len());
            nodes.extend_from_slice(path);
            hops.extend(t.path_channels(path).expect("on the topology"));
            hops.push(NO_HOP);
        }
        ((nodes, hops), ranges)
    }

    /// Adopts one buffer holding `paths`, in order.
    fn adopt_all(table: &PathTable, t: &Topology, paths: &[&[NodeId]]) -> Vec<PathId> {
        let (buffer, ranges) = written(t, paths);
        table.adopt(t, vec![buffer], ranges.into_iter().map(|r| (0, r)))
    }

    #[test]
    fn adopt_matches_one_at_a_time() {
        let t = gen::line(4, Amount::from_xrp(10));
        let seqs: [&[NodeId]; 5] = [
            &[n(0), n(1), n(2)],
            &[n(1), n(2)],
            &[n(0), n(1), n(2)], // duplicate inside the batch
            &[n(3), n(2)],
            &[n(1)], // no hops
        ];
        let batch_table = PathTable::new();
        let batch_ids = adopt_all(&batch_table, &t, &seqs);
        let one_table = PathTable::new();
        let one_ids: Vec<PathId> = seqs.iter().map(|s| one_table.intern(&t, s)).collect();
        assert_eq!(batch_ids, one_ids);
        assert_eq!(batch_table.len(), one_table.len());
        assert_eq!(batch_table.len(), 4, "duplicate dedups");
        // The carried hops were taken as they came — and they are right.
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
        batch_table.reserve(8, 4);
        let late: &[NodeId] = &[n(2), n(3)];
        let more = adopt_all(&batch_table, &t, &[&seqs[..], &[late]].concat());
        assert_eq!(more.split_last(), Some((&PathId(4), batch_ids.as_slice())));
        assert_eq!(batch_table.len(), 5);
        assert_eq!(batch_table.intern(&t, late), PathId(4));
        // A batch with nothing new adds nothing.
        assert_eq!(adopt_all(&batch_table, &t, &seqs), batch_ids);
        assert_eq!(batch_table.len(), 5);
    }

    /// The paths of several buffers interleave in id order; a buffer of
    /// new paths is kept as it is, not copied, and one that repeats known
    /// paths keeps only the new ones.
    #[test]
    fn adopt_keeps_new_buffers_and_compacts_the_rest() {
        let t = gen::line(6, Amount::from_xrp(10));
        let table = PathTable::new();
        let known = table.intern(&t, &[n(3), n(4)]);
        let (fresh, fresh_ranges) = written(&t, &[&[n(0), n(1), n(2)], &[n(5), n(4)]]);
        let (mixed, mixed_ranges) = written(&t, &[&[n(3), n(4)], &[n(2), n(3)], &[n(0), n(1)]]);
        let fresh_nodes = fresh.0.as_ptr();
        let order = [(1, 1), (0, 1), (1, 0), (0, 0), (1, 2)];
        let ranges = [fresh_ranges, mixed_ranges];
        let paths = order.map(|(b, i): (usize, usize)| (b, ranges[b][i].clone()));
        let ids = table.adopt(&t, vec![fresh, mixed], paths);
        assert_eq!(ids, [1, 2, 0, 3, 4].map(PathId));
        assert_eq!(ids[2], known);
        let nodes = |id| table.entry(id).nodes().to_vec();
        assert_eq!(nodes(PathId(1)), [n(2), n(3)]);
        assert_eq!(nodes(PathId(2)), [n(5), n(4)]);
        assert_eq!(nodes(PathId(3)), [n(0), n(1), n(2)]);
        assert_eq!(nodes(PathId(4)), [n(0), n(1)]);
        assert_eq!(table.entry(PathId(3)).nodes().as_ptr(), fresh_nodes);
        let compacted = table.entry(PathId(1)).nodes().as_ptr();
        assert_eq!(
            table.entry(PathId(4)).nodes().as_ptr(),
            compacted.wrapping_add(2)
        );
        for id in ids {
            let entry = table.entry(id);
            assert_eq!(Ok(entry.hops().to_vec()), t.path_channels(entry.nodes()));
        }
    }

    /// Paths with the same endpoints share a dedup key and stay apart,
    /// one at a time and in a batch, whichever of a pair's paths came
    /// first; a pair's paths need not arrive together.
    #[test]
    fn colliding_keys_still_tell_paths_apart() {
        let t = gen::complete(5, Amount::from_xrp(10));
        let table = PathTable::new();
        let (a, b, c): (&[NodeId], &[NodeId], &[NodeId]) = (
            &[n(0), n(4)],
            &[n(0), n(1), n(4)],
            &[n(0), n(2), n(3), n(4)],
        );
        assert!([b, c].iter().all(|p| ends(p) == ends(a)));
        let ids = [a, b, c, b, a].map(|p| table.intern(&t, p));
        assert_eq!(ids, [0, 1, 2, 1, 0].map(PathId));
        assert_eq!(table.entry(PathId(2)).nodes(), c);
        let other: &[NodeId] = &[n(4), n(0)];
        let d: &[NodeId] = &[n(0), n(3), n(4)];
        let batch = adopt_all(&table, &t, &[c, other, d, a, d, b]);
        assert_eq!(batch, [2, 3, 4, 0, 4, 1].map(PathId));
        assert_eq!(table.intern(&t, d), PathId(4));
        assert_eq!(table.len(), 5);
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
            for id in adopt_all(&table, &t, &[&out, &back]) {
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
