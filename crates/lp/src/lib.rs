//! # spider-lp
//!
//! The optimization layer of the Spider reproduction:
//!
//! * [`simplex`] — a dense two-phase simplex solver for general linear
//!   programs, built from scratch (no external LP dependency);
//! * [`paths`] — the path oracles of §5.3.1: Yen's k-shortest paths and
//!   k edge-disjoint shortest paths;
//! * [`fluid`] — the fluid-model routing LPs: maximum balanced throughput
//!   (eqs. 1–5), routing with on-chain rebalancing (eqs. 6–11), and the
//!   throughput-vs-rebalancing-budget curve t(B) (eqs. 12–18);
//! * [`primal_dual`] — the decentralized primal-dual algorithm (eqs. 21–24)
//!   that routers and end-hosts can run with only local information, which
//!   converges to the LP optimum for small step sizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod fluid;
pub mod paths;
pub mod primal_dual;
pub mod simplex;

pub use fluid::{FluidProblem, FluidSolution};
pub use paths::Path;
pub use simplex::{ConstraintOp, LinearProgram, LpSolution};
