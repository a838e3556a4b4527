//! # spider-routing
//!
//! The routing schemes evaluated in §6, all implementing
//! [`spider_sim::Router`]:
//!
//! | Scheme | Paper role | Atomic? |
//! |---|---|---|
//! | [`SpiderWaterfilling`] | Spider (Waterfilling): k candidate paths, water-fill toward equal bottleneck balances | no |
//! | [`SpiderLp`] | Spider (LP): offline fluid-LP weights steer per-path splits | no |
//! | [`SpiderPricing`] | §5.3 price feedback as an online imbalance-aware scheme (extension) | no |
//! | [`ShortestPath`] | packet-switched shortest-path baseline | no |
//! | [`MaxFlow`] | per-transaction max-flow (Ford–Fulkerson gold standard) | yes |
//! | [`SilentWhispers`] | landmark routing with multipath splits | yes |
//! | [`SpeedyMurmurs`] | embedding-based greedy routing on spanning trees | yes |
//!
//! All schemes are deterministic given their construction inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod backoff;
pub mod cache;
mod chanindex;
pub mod lp_router;
pub mod maxflow_router;
pub mod oracle;
mod paths;
pub mod pricing;
pub mod shortest;
pub mod silentwhispers;
pub mod speedymurmurs;
pub mod waterfilling;

pub use backoff::{Candidates, ChannelBreakers};
pub use cache::{PathCache, PathPolicy};
pub use lp_router::SpiderLp;
pub use maxflow_router::MaxFlow;
pub use oracle::{FilledPaths, PathOracle};
pub use pricing::SpiderPricing;
pub use shortest::ShortestPath;
pub use silentwhispers::SilentWhispers;
pub use speedymurmurs::SpeedyMurmurs;
pub use waterfilling::SpiderWaterfilling;
