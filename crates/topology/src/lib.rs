//! # spider-topology
//!
//! Network topologies for payment channel networks: the graph data
//! structure, deterministic and random topology generators (including the
//! paper's ISP-like and Ripple-like graphs), simple graph analysis, and a
//! plain-text interchange format.
//!
//! A [`Topology`] is an undirected simple graph whose edges are
//! bidirectional payment channels. Each channel has a *total capacity*
//! (the escrowed funds of both endpoints combined); how that capacity is
//! split between the two directions at simulation start is decided by the
//! simulator (the paper splits it equally, §6.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod analysis;
pub mod gen;
pub mod graph;
pub mod io;

pub use graph::{Adjacency, Channel, Topology, TopologyBuilder};
