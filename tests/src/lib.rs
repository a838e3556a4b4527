//! Cross-crate integration tests for the Spider reproduction live in this
//! crate's `tests/` directory. The library itself only hosts shared test
//! helpers.

#![forbid(unsafe_code)]

pub mod fluid_dual;
pub mod ledger_audit;
pub mod perturbation;
pub mod reference;

use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_paygraph::{decompose::decompose, PaymentGraph};
use spider_sim::{SimConfig, SizeDistribution, TxnSpec, WorkloadConfig};
use spider_topology::Topology;
use spider_types::distr::{Distribution, Exponential};
use spider_types::{Amount, DetRng, NodeId, SimDuration, SimTime};

/// A small but non-trivial ISP experiment that finishes in well under a
/// second per scheme.
pub fn small_isp_experiment(seed: u64, capacity_xrp: u64) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::Isp { capacity_xrp },
        workload: WorkloadConfig {
            count: 1_500,
            rate_per_sec: 500.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(5),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// A Poisson stream of `amount` payments `src → dst` at `rate` per
/// second over `[0, horizon_s)`.
pub fn poisson(
    rng: &mut DetRng,
    rate: f64,
    horizon_s: f64,
    (src, dst): (u32, u32),
    amount: Amount,
) -> Vec<TxnSpec> {
    let gap = Exponential::new(rate);
    let mut t = gap.sample(rng);
    let mut txns = Vec::new();
    while t < horizon_s {
        txns.push(TxnSpec {
            time: SimTime::from_secs_f64(t),
            src: NodeId(src),
            dst: NodeId(dst),
            amount,
        });
        t += gap.sample(rng);
    }
    txns
}

/// The most volume a channel network can deliver from a set of arrivals
/// without on-chain rebalancing: `ν(A) + (n − 1) Σ_e c_e`, in XRP.
///
/// Let `A` be the payment graph of the arrivals (per pair, the volume
/// that arrived) and `f` the volume delivered per pair, so `f ≤ A` pair
/// by pair. Split `f` into a circulation and an acyclic rest. The
/// circulation is bounded by `A`, so it carries at most `ν(A)`, the
/// maximum circulation. The rest decomposes into payment-graph paths
/// from nodes with net outflow to nodes with net inflow, each of at most
/// `n − 1` edges, carrying in all `½ Σ_v |out_v − in_v|`. A node's net
/// outflow is what its side of its channels lost, and its net inflow
/// what they gained; either is at most the sum of their capacities, and
/// `Σ_v Σ_{e ∋ v} c_e = 2 Σ_e c_e`. So `f` totals at most
/// `ν(A) + (n − 1) Σ_e c_e`. The same holds over any window, with `A`
/// the arrivals that could complete in it.
#[derive(Debug, Clone, Copy)]
pub struct CirculationBound {
    /// `ν(A)`: the maximum circulation of the arrivals, XRP.
    pub nu: f64,
    /// `(n − 1) Σ_e c_e`: what the channels' funds let the network
    /// deliver beyond a circulation, XRP.
    pub transient: f64,
}

impl CirculationBound {
    /// The bound for `arrivals` (volumes, XRP) on `topo`.
    pub fn new(arrivals: &PaymentGraph, topo: &Topology) -> Self {
        let escrow: f64 = topo.channels().map(|(_, c)| c.capacity.as_xrp()).sum();
        CirculationBound {
            nu: decompose(arrivals, 1e-6).circulation_value,
            transient: topo.node_count().saturating_sub(1) as f64 * escrow,
        }
    }

    /// `ν(A) + (n − 1) Σ_e c_e`.
    pub fn total(&self) -> f64 {
        self.nu + self.transient
    }
}
