//! Helpers shared by the engine's in-crate test modules.

use super::Simulation;
use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::router::{NetworkView, RouteProposal, RouteRequest, Router};
use crate::workload::{ArrivalSource, TxnSpec};
use spider_topology::Topology;
use spider_types::{Amount, NodeId, SimTime};

pub(super) fn xrp(x: u64) -> Amount {
    Amount::from_xrp(x)
}

pub(super) fn txn(t_ms: u64, src: u32, dst: u32, amount: Amount) -> TxnSpec {
    TxnSpec {
        time: SimTime::from_micros(t_ms * 1000),
        src: NodeId(src),
        dst: NodeId(dst),
        amount,
    }
}

/// The single BFS shortest path for the full remaining amount — what
/// every test router proposes.
pub(super) fn shortest_path_proposal(
    req: &RouteRequest,
    view: &NetworkView<'_>,
) -> Vec<RouteProposal> {
    match view.topo.shortest_path(req.src, req.dst) {
        Some(path) => vec![RouteProposal {
            path: view.intern(&path),
            amount: req.remaining,
        }],
        None => Vec::new(),
    }
}

/// Test router with every hook at its default.
pub(super) struct Direct;

impl Router for Direct {
    fn name(&self) -> &'static str {
        "direct"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        shortest_path_proposal(req, view)
    }
}

pub(super) fn new_sim(
    topo: Topology,
    workload: impl Into<ArrivalSource>,
    router: Box<dyn Router>,
    config: SimConfig,
) -> Simulation {
    Simulation::new(topo, workload, router, config).expect("test topology and config are valid")
}

/// Runs to the horizon and checks fund conservation.
pub(super) fn run_checked(mut sim: Simulation) -> (SimReport, Simulation) {
    let report = sim.run();
    sim.check_conservation();
    (report, sim)
}
