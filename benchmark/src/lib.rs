//! # spider-benchmark
//!
//! The repo benchmark: four paper-scale workloads, each repeated in one
//! process, with end-to-end metrics from an untraced pass and per-layer
//! metrics from a separate traced pass whose spans are recorded here,
//! around the public calls into each layer. See `README.md`.

#![warn(missing_docs)]

pub mod agree;
pub mod alloc;
pub mod harness;
pub mod hostspeed;
pub mod metrics;
pub mod replay;
pub mod runner;
pub mod spans;
pub mod workloads;
