//! The stationary-demand harness: Poisson unit payments at a payment
//! graph's rates, run at event level, and what the run delivered over
//! the second half of its horizon. `tests/tests/closed_form.rs` judges
//! the window against the fluid LP; [`crate::gap`] splits what it falls
//! short of the LP's optimum into named terms.

use crate::{poisson, CirculationBound};
use spider_core::SchemeConfig;
use spider_obs::Trace;
use spider_paygraph::PaymentGraph;
use spider_sim::{QueueingMode, SimConfig, Simulation, TxnSpec, Workload};
use spider_topology::Topology;
use spider_types::{Amount, DetRng, SimDuration};

/// Every payment's size, and the MTU: one XRP, so a payment is one unit.
pub const XRP: Amount = Amount::from_xrp(1);

/// Each payment's relative deadline.
const DEADLINE: SimDuration = SimDuration::from_secs(5);

/// What one run delivered over the second half of its horizon, and
/// what arrived that it could have delivered there.
pub struct Window {
    /// Delivered payments per second over `[H/2, H)`.
    pub rate: f64,
    /// Per pair, the payments that arrived from `H/2 − deadline` on: a
    /// payment delivered in the window arrived then.
    pub arrived: PaymentGraph,
    /// The window's start `H/2`, seconds.
    pub start: f64,
    /// The window's length `T`, seconds.
    pub secs: f64,
    /// The run's whole trace.
    pub trace: Trace,
}

impl Window {
    /// The window's [`CirculationBound`] on `topo`, per second: ν of its
    /// arrivals, and the escrow transient (what the channels' funds let
    /// it deliver beyond a circulation).
    pub fn circulation_bound(&self, topo: &Topology) -> (f64, f64) {
        let bound = CirculationBound::new(&self.arrived, topo);
        (bound.nu / self.secs, bound.transient / self.secs)
    }
}

/// One stationary-demand run at event level: Poisson unit payments at
/// each of `demands`' rates on `topo` over `horizon_s`, with a 5 s
/// deadline, Δ = 0.5 s and no rebalancing, under `scheme` in `queueing`
/// mode, traced (the trace never moves an outcome).
pub fn stationary(
    scheme: SchemeConfig,
    queueing: QueueingMode,
    topo: &Topology,
    demands: &PaymentGraph,
    horizon_s: f64,
    seed: u64,
) -> Window {
    let rng = DetRng::new(seed);
    let mut txns: Vec<TxnSpec> = demands
        .edges()
        .flat_map(|e| {
            let mut rng = rng.fork(&format!("{}-{}", e.src, e.dst));
            poisson(&mut rng, e.rate, horizon_s, (e.src.0, e.dst.0), XRP)
        })
        .collect();
    txns.sort_by_key(|t| (t.time, t.src, t.dst));
    let half = horizon_s / 2.0;
    let mut arrived = PaymentGraph::new(demands.node_count());
    for t in &txns {
        if t.time.as_secs_f64() >= half - DEADLINE.as_secs_f64() {
            arrived.add_demand(t.src, t.dst, 1.0);
        }
    }
    let router = scheme.build(topo, demands, 0.5);
    let mut cfg = SimConfig {
        mtu: XRP,
        deadline: Some(DEADLINE),
        horizon: SimDuration::from_secs_f64(horizon_s),
        queueing,
        ..SimConfig::default()
    };
    cfg.obs.trace = true;
    let mut sim = Simulation::new(topo.clone(), Workload { txns }, router, cfg).expect("builds");
    let r = sim.run();
    sim.check_conservation();
    let delivered: f64 = r.throughput_series[half as usize..].iter().sum();
    let secs = horizon_s - half;
    Window {
        rate: delivered / secs,
        arrived,
        start: half,
        secs,
        trace: sim.take_trace().expect("traced"),
    }
}
