//! # spider-bench
//!
//! The experiment harness that regenerates the paper's evaluation. Every
//! figure, proposition check and ablation is a [`Figure`] *value* in
//! [`FIGURES`] — how to build its data at a [`Scale`] and seed, plus the
//! paper's statements about that data as [`Claim`](figure::Claim)s — and
//! one binary runs them:
//!
//! ```sh
//! cargo run --release -p spider-bench --bin figures                 # the registry
//! cargo run --release -p spider-bench --bin figures -- fig6_success --only isp --out out
//! cargo run --release -p spider-bench --bin figures -- all --smoke --seed 42 --out out
//! ```
//!
//! Defaults are laptop-scale; the *shape* of the results (ordering of
//! schemes, crossovers) is what should match the paper, not absolute
//! numbers — see "Reproducing the paper" in the README, whose table is
//! the bare `figures` output. Engine speed is judged by the repo
//! benchmark under `benchmark/`; engine outcomes are pinned by the tier-1
//! goldens in `tests/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod figure;
mod lp_figures;
mod queue_dynamics;
mod resilience;
mod sweep_figures;
pub mod table;

pub use figure::{Figure, Options};

use spider_core::congestion::{WindowConfig, Windowed};
use spider_core::{ExperimentConfig, SchemeConfig, SweepJob, TopologyConfig};
use spider_routing::{ShortestPath, SpiderWaterfilling};
use spider_sim::{Router, SimConfig, SizeDistribution, Workload, WorkloadConfig};
use spider_topology::gen::RIPPLE_NODES;
use spider_types::{Amount, DetRng, SimDuration};

/// What can stop a figure from running: a topology, workload, LP or
/// simulator error, an I/O error, a filter that selects nothing. (A failed
/// claim is not an error; it is a [`Verdict`](figure::Verdict).)
pub type Result<T, E = Box<dyn std::error::Error + Send + Sync>> = std::result::Result<T, E>;

/// How big a run is. A figure lists the scales it distinguishes; a
/// request for any other resolves to the nearest ([`Figure::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// CI scale: seconds per figure, every code path and schema exercised.
    Smoke,
    /// Laptop scale (the default).
    Default,
    /// The paper's parameters: 200k / 75k transactions, full Ripple size.
    Full,
    /// The paper's own measurement point: full Ripple driven for 200 s.
    Paper,
}

impl Scale {
    /// Whether the §6.1 experiment builders run at the paper's sizes.
    pub fn is_full(self) -> bool {
        self >= Scale::Full
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&format!("{self:?}").to_lowercase())
    }
}

/// Every figure, in paper order. Names are unique and double as output
/// file stems.
pub static FIGURES: &[Figure] = &[
    lp_figures::FIG4_EXAMPLE,
    lp_figures::PROP1_CIRCULATION,
    lp_figures::REBALANCING_CURVE,
    lp_figures::PRIMAL_DUAL_CONVERGENCE,
    sweep_figures::FIG6_SUCCESS,
    sweep_figures::FIG7_CAPACITY_SWEEP,
    sweep_figures::ABLATION_PACKET_SWITCHING,
    sweep_figures::ABLATION_PATH_CHOICE,
    sweep_figures::ABLATION_REBALANCING,
    sweep_figures::FIG8_QUEUE_PROTOCOL,
    sweep_figures::FIG8_AIMD_SWEEP,
    queue_dynamics::FIG10_QUEUE_DYNAMICS,
    resilience::CHURN_RESILIENCE,
    resilience::FAULT_RESILIENCE,
    resilience::OVERLOAD_RESILIENCE,
];

/// The registry as text — name, paper reference, claim count, one-line
/// description: what bare `figures` prints and the README pastes.
pub fn registry_listing() -> String {
    let mut out = format!("{:<26}{:<31}{:>6}  about\n", "figure", "paper", "claims");
    for f in FIGURES {
        let claims = f.claim_texts().len();
        out += &format!(
            "{:<26}{:<31}{claims:>6}  {}\n",
            f.name, f.paper_ref, f.about
        );
    }
    out
}

/// A §6.1-style experiment: `count` transactions at `rate` tx/s, the run
/// ending one second after the last arrival.
fn experiment(
    topology: TopologyConfig,
    (count, rate): (usize, f64),
    size: SizeDistribution,
    sender_skew_scale: f64,
    mtu_xrp: u64,
    seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        topology,
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size,
            sender_skew_scale,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs_f64(count as f64 / rate + 1.0),
            mtu: Amount::from_xrp(mtu_xrp),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath, // overridden per run
        seed,
        ..ExperimentConfig::default()
    }
}

/// The ISP-topology experiment of §6.1 at the given per-channel capacity.
///
/// Full scale: 200,000 transactions at 1,000 tx/s (200 s horizon).
/// Default scale: 20,000 transactions at the same arrival rate, preserving
/// the load-per-capacity operating point while finishing ~10× faster.
pub fn isp_experiment(capacity_xrp: u64, full: bool, seed: u64) -> ExperimentConfig {
    let load = (if full { 200_000 } else { 20_000 }, 1_000.0);
    // Skew calibrated so the demand matrix's circulation fraction is
    // ~0.52 — the paper's Spider (LP) success volume on ISP pins
    // "precisely at the circulation component", 52 %.
    let topology = TopologyConfig::Isp { capacity_xrp };
    experiment(topology, load, SizeDistribution::RippleIsp, 8.0, 10, seed)
}

/// The Ripple-subgraph experiment of §6.1 at the given capacity.
///
/// Full scale: 3,774 nodes / ~12.5k channels, 75,000 transactions over
/// ~85 s. Default scale: a 400-node Ripple-like graph with the transaction
/// count scaled to keep per-channel load comparable.
pub fn ripple_experiment(capacity_xrp: u64, full: bool, seed: u64) -> ExperimentConfig {
    let (nodes, load) = if full {
        (RIPPLE_NODES, (75_000, 75_000.0 / 85.0))
    } else {
        (400, (8_000, 8_000.0 / 85.0 * 10.0))
    };
    // Skew calibrated to a circulation fraction of ~0.22-0.29, matching
    // the paper's Ripple-side Spider (LP) success volume of 22 %.
    let skew = nodes as f64 / 8.0;
    let topology = TopologyConfig::RippleLike {
        nodes,
        capacity_xrp,
    };
    experiment(topology, load, SizeDistribution::RippleFull, skew, 20, seed)
}

/// Sets the transaction count, keeping the arrival rate and ending the
/// run one second after the last arrival.
pub(crate) fn set_count(cfg: &mut ExperimentConfig, count: usize) {
    cfg.workload.count = count;
    cfg.sim.horizon = SimDuration::from_secs_f64(count as f64 / cfg.workload.rate_per_sec + 1.0);
}

/// The two §6.1 topologies at one capacity, labelled `<prefix>-isp` and
/// `<prefix>-ripple`: the pair most figures run side by side.
pub fn both_topologies(
    prefix: &str,
    capacity_xrp: u64,
    full: bool,
    seed: u64,
) -> [(String, ExperimentConfig); 2] {
    let isp = isp_experiment(capacity_xrp, full, seed);
    let ripple = ripple_experiment(capacity_xrp, full, seed);
    [
        (format!("{prefix}-isp"), isp),
        (format!("{prefix}-ripple"), ripple),
    ]
}

/// The demand matrix's circulation share, in percent of total demand:
/// the ceiling Proposition 1 puts on any scheme that never rebalances
/// on-chain, and where Spider (LP)'s success volume should pin.
pub fn circulation_pct(cfg: &ExperimentConfig) -> Result<f64> {
    let rng = DetRng::new(cfg.seed);
    let nodes = cfg.topology.build(&rng)?.node_count();
    let workload = Workload::generate(nodes, &cfg.workload, &mut rng.fork("workload"));
    let demands = spider_core::experiment::demand_graph(&workload, nodes);
    let nu = spider_paygraph::decompose::max_circulation_value(&demands, 1e-6);
    Ok(100.0 * nu / demands.total_demand())
}

/// The transport-layer lineup of Figs. 8 and 10 on one queueing config:
/// the §5 protocol, then the per-pair AIMD window over shortest-path (the
/// controller the protocol replaces) and over balance-probing
/// waterfilling (an upper baseline: it reads live balances at every
/// attempt, which §5's decentralized senders cannot).
pub fn windowed_lineup(queued: &ExperimentConfig) -> [(&'static str, SweepJob); 3] {
    let protocol = ExperimentConfig {
        scheme: SchemeConfig::spider_protocol(4),
        ..queued.clone()
    };
    let windowed = |build: fn() -> Box<dyn Router>| SweepJob::Custom {
        cfg: queued.clone(),
        build: Box::new(build),
    };
    [
        ("spider-protocol", SweepJob::Scheme(protocol)),
        (
            "shortest-path+window",
            windowed(|| Box::new(Windowed::new(ShortestPath::new(), WindowConfig::default()))),
        ),
        (
            "spider-waterfilling+window",
            windowed(|| {
                Box::new(Windowed::new(
                    SpiderWaterfilling::new(4),
                    WindowConfig::default(),
                ))
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builders_scale() {
        let small = isp_experiment(30_000, false, 1);
        let full = isp_experiment(30_000, true, 1);
        assert!(full.workload.count > small.workload.count);
        assert_eq!(small.workload.rate_per_sec, full.workload.rate_per_sec);
        let rs = ripple_experiment(30_000, false, 1);
        let rf = ripple_experiment(30_000, true, 1);
        assert!(matches!(rf.topology, TopologyConfig::RippleLike { nodes, .. } if nodes == 3774));
        assert!(matches!(rs.topology, TopologyConfig::RippleLike { nodes, .. } if nodes == 400));
    }

    #[test]
    fn lineup_is_paper_lineup() {
        assert_eq!(SchemeConfig::paper_lineup().len(), 6);
    }
}
