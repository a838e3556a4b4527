//! Identifiers for the entities of a payment channel network.
//!
//! All ids are small newtypes over integers so they can be used as dense
//! vector indices (the graph code stores per-node and per-channel state in
//! flat `Vec`s) while staying type-safe.

use serde::Serialize;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a node (a Spider router and/or end-host) in the network.
///
/// Node ids are dense indices `0..n`, assigned by the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The underlying dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies an *undirected* payment channel (an escrowed pair of balances).
///
/// Channel ids are dense indices `0..m`, assigned by the topology. A channel
/// between `u` and `v` carries funds in both directions; a direction is
/// selected with [`Direction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The underlying dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a channel id from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        ChannelId(u32::try_from(i).expect("channel index exceeds u32"))
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// One of the two directions of a bidirectional payment channel.
///
/// The topology stores each channel with a canonical `(u, v)` endpoint order
/// (`u < v`); `Forward` means funds moving `u → v`, `Backward` means `v → u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Direction {
    /// From the canonical first endpoint to the second (`u → v`).
    Forward,
    /// From the canonical second endpoint to the first (`v → u`).
    Backward,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub const fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }

    /// Index (0 for forward, 1 for backward) for two-element state arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Direction::Forward => 0,
            Direction::Backward => 1,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Forward => write!(f, "→"),
            Direction::Backward => write!(f, "←"),
        }
    }
}

/// Identifies an interned path: a dense index into a simulation's shared
/// path table, where the node sequence and its pre-resolved
/// `(ChannelId, Direction)` hops are stored exactly once.
///
/// Routers and the engine exchange `PathId`s instead of cloning node
/// vectors; resolving a hop sequence costs one index instead of a
/// `channel_between` lookup per hop per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct PathId(pub u32);

impl PathId {
    /// The underlying dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a path id from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        PathId(u32::try_from(i).expect("path index exceeds u32"))
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies an end-to-end payment (which may be split into many
/// transaction units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct PaymentId(pub u64);

impl fmt::Display for PaymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pay{}", self.0)
    }
}

/// Identifies a single transaction unit: `(payment, sequence number)`.
///
/// The sender generates a fresh hash-lock key per unit (§4.1 of the paper),
/// so the unit id is also the identity of the HTLC along its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct UnitId {
    /// The payment this unit belongs to.
    pub payment: PaymentId,
    /// Sequence number of the unit within its payment, starting at 0.
    pub seq: u32,
}

impl UnitId {
    /// Creates a unit id.
    #[inline]
    pub const fn new(payment: PaymentId, seq: u32) -> Self {
        UnitId { payment, seq }
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.payment, self.seq)
    }
}

/// The hasher of every hash container in the workspace ([`IdHashMap`],
/// [`IdHashSet`]): one rotate, xor and multiply per id instead of
/// SipHash's rounds. Ids are dense integers the simulation assigns
/// itself, so there is no adversary to defend a table against. Only for
/// maps whose iteration order is never observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// [`IdHasher`] as a map's `BuildHasher`.
pub type IdHash = BuildHasherDefault<IdHasher>;

/// The only place the crates name std's hash containers: `clippy.toml`
/// bans them elsewhere, because their default `RandomState` re-seeds per
/// process. So every table hashes the same way in every run.
#[allow(clippy::disallowed_types)]
mod containers {
    use super::IdHash;

    /// A `HashMap` under [`IdHash`].
    pub type IdHashMap<K, V> = std::collections::HashMap<K, V, IdHash>;

    /// A `HashSet` under [`IdHash`].
    pub type IdHashSet<T> = std::collections::HashSet<T, IdHash>;
}

pub use containers::{IdHashMap, IdHashSet};

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        // An odd multiplier near 2^64 / phi.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    /// Whatever is not an integer (ids hash through the methods below).
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.mix(u64::from(id));
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.mix(id);
    }

    #[inline]
    fn write_usize(&mut self, id: usize) {
        self.mix(id as u64);
    }

    /// The multiply leaves its best bits on top; tables index with the
    /// bottom ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_index_round_trip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.to_string(), "n42");
    }

    #[test]
    fn channel_index_round_trip() {
        let c = ChannelId::from_index(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.to_string(), "ch7");
    }

    #[test]
    fn direction_reverse_is_involution() {
        for d in [Direction::Forward, Direction::Backward] {
            assert_eq!(d.reverse().reverse(), d);
            assert_ne!(d.reverse(), d);
        }
        assert_eq!(Direction::Forward.index(), 0);
        assert_eq!(Direction::Backward.index(), 1);
    }

    #[test]
    fn unit_id_identity() {
        let u = UnitId::new(PaymentId(9), 3);
        assert_eq!(u.to_string(), "pay9#3");
        assert_eq!(
            u,
            UnitId {
                payment: PaymentId(9),
                seq: 3
            }
        );
        assert_ne!(u, UnitId::new(PaymentId(9), 4));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId(1) < NodeId(2));
        assert!(UnitId::new(PaymentId(1), 5) < UnitId::new(PaymentId(2), 0));
    }

    /// Dense id pairs — what every keyed site hashes — must not pile up
    /// in the bits a table indexes with (bottom) or tags with (top).
    #[test]
    fn id_hasher_spreads_dense_pairs() {
        use std::hash::{BuildHasher, Hash};
        let hash = |key: (NodeId, NodeId)| IdHash::default().hash_one(key);
        let mut low = std::collections::BTreeSet::new();
        let mut high = std::collections::BTreeSet::new();
        for (a, b) in (0..64).flat_map(|a| (0..64).map(move |b| (a, b))) {
            let h = hash((NodeId(a), NodeId(b)));
            low.insert(h & 0xfff);
            high.insert(h >> 57);
        }
        // 4,096 keys into 4,096 low buckets: a random function fills
        // about 63 % of them.
        assert!(low.len() > 2_000, "{} low buckets", low.len());
        assert_eq!(high.len(), 128, "every 7-bit tag occurs");
        // Slices hash as their length and elements, like `[T]` under any
        // hasher, so a borrowed lookup finds the owned key.
        let mut by_slice = IdHasher::default();
        [NodeId(1), NodeId(2)][..].hash(&mut by_slice);
        let mut by_vec = IdHasher::default();
        vec![NodeId(1), NodeId(2)].hash(&mut by_vec);
        assert_eq!(by_slice.finish(), by_vec.finish());
    }
}
