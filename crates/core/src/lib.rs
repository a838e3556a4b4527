//! # spider-core
//!
//! The top of the stack: a declarative experiment API tying together
//! topologies, workloads, routing schemes and the simulator, plus the
//! transport-layer extensions sketched in §4 (window-based congestion
//! control) and machine-readable result output.
//!
//! ## Quick start
//!
//! ```
//! use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
//! use spider_sim::WorkloadConfig;
//!
//! let report = ExperimentConfig {
//!     topology: TopologyConfig::PaperExample { capacity_xrp: 200 },
//!     workload: WorkloadConfig::small(200, 100.0),
//!     scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
//!     seed: 7,
//!     ..ExperimentConfig::default()
//! }
//! .run()
//! .unwrap();
//! assert!(report.success_ratio() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod congestion;
pub mod experiment;
pub mod output;
pub mod scheme;

pub use experiment::{execute, run_sweep, ExperimentConfig, RunOutput, SweepJob, TopologyConfig};
pub use scheme::{ProtocolTuning, SchemeConfig};
