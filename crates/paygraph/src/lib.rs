//! # spider-paygraph
//!
//! The *payment graph* abstraction of §5.2.2: a weighted directed graph
//! whose edge `(i, j)` carries the average rate `d_{i,j}` at which node `i`
//! wants to pay node `j`. The payment graph depends only on the pattern of
//! payments, not on the channel topology.
//!
//! The central result (Proposition 1) is that the maximum throughput any
//! *perfectly balanced* routing can achieve equals ν(C*), the value of the
//! maximum circulation contained in the payment graph. This crate computes
//! that decomposition exactly ([`decompose()`](decompose::decompose)), provides demand-matrix
//! generators for the evaluation workloads, and ships the verified §5.1
//! example instance ([`examples::paper_example_demands`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod decompose;
pub mod examples;
pub mod generate;
pub mod graph;

pub use decompose::{decompose, Decomposition};
pub use graph::{DemandEdge, PaymentGraph};
