//! Where a stationary run's shortfall against the balanced fluid optimum
//! goes. It reads the run's trace ([`Window::trace`]), the demand matrix
//! and the LP's per-path `flows`, and nothing else of the engine.
//!
//! Over the window `[H/2, H)` of length `T`, each pair `i` has the LP's
//! rate `x_i` (its paths' flows), its demand `d_i`, the value that
//! arrived `a_i`, the value delivered `r_i` (at a `deliver` or `settle`
//! record), the value that failed `f_i` (the `remaining` of each
//! `expired` record) and the value pending across the window's edges
//! `e_i` (value that arrived in it and was unresolved at `H`, less value
//! that arrived before it and was resolved in it), all per second of the
//! window. Each is read from the trace on its own, and
//! [`GapReport::terms`] names them:
//!
//! - a pair the LP serves in full (`x_i = d_i`, the circulation part)
//!   contributes `x_i − a_i` (arrivals below the rate: Poisson noise),
//!   `f_i` split by cause, and `e_i`. A failed payment's cause is the
//!   reason its last unit was dropped, or `unsent` if no unit of it
//!   ever was (it waited for a path or a window until its deadline);
//! - a pair the LP rations (`x_i < d_i`, the DAG part) contributes
//!   `x_i − r_i` whole, in two terms by sign: served beyond the LP's
//!   share (negative) and short of it.
//!
//! The terms sum to the measured gap `Σx − Σr` exactly when each payment
//! conserves its value (`a_i = r_i + f_i + e_i`: what arrives is
//! delivered, fails or is still pending) and the trace's deliveries are
//! the report's throughput; a payment resolved past its value panics.
//!
//! Beside the terms it reports each channel's net drift over the window
//! (value settled `u → v` less `v → u`, per second), which the balanced
//! LP holds at zero, and the window's unit drops and expiries by reason.

use crate::stationary::Window;
use spider_lp::fluid::FluidSolution;
use spider_obs::trace::{reason_str, TraceEventKind};
use spider_paygraph::PaymentGraph;
use spider_topology::Topology;
use spider_types::{Amount, Direction, DropReason, Hop, NodeId, PathId, PaymentId};
use std::collections::BTreeMap;

/// One pair over the window, XRP per second.
#[derive(Debug, Clone, Default)]
pub struct PairGap {
    /// The LP's rate: its paths' flows.
    pub optimal: f64,
    /// The demand rate.
    pub demand: f64,
    /// Value that arrived in the window.
    pub arrived: f64,
    /// Value delivered in the window.
    pub realized: f64,
    /// Value that failed in the window, by cause.
    pub failed: BTreeMap<&'static str, f64>,
    /// Value that arrived in the window and was unresolved at `H`, less
    /// value that arrived before it and was resolved in it.
    pub pending: f64,
}

/// One payment as the trace tells it.
struct Payment {
    pair: (NodeId, NodeId),
    /// It arrived in the window.
    inside: bool,
    /// Its value neither delivered nor failed yet.
    unresolved: Amount,
    /// Its value resolved in the window, had it arrived before.
    carried: Amount,
}

impl Payment {
    /// Resolves `amount` of it (delivered or failed), `inside` the window
    /// or before it.
    fn resolve(&mut self, amount: Amount, inside: bool) {
        self.unresolved = (self.unresolved.checked_sub(amount))
            .expect("a payment resolves no more than its value");
        if inside && !self.inside {
            self.carried += amount;
        }
    }
}

impl PairGap {
    /// True if the LP serves the whole demand (to a relative 1e-6).
    pub fn served_in_full(&self) -> bool {
        self.optimal >= self.demand * (1.0 - 1e-6)
    }
}

/// A window's gap to the optimum, split into named terms.
#[derive(Debug, Clone)]
pub struct GapReport {
    /// The LP's throughput, XRP per second.
    pub optimum: f64,
    /// Value delivered in the window, XRP per second.
    pub realized: f64,
    /// Every demand pair.
    pub pairs: BTreeMap<(NodeId, NodeId), PairGap>,
    /// Per channel (by id), the net value settled `u → v` less `v → u`
    /// in the window, XRP per second.
    pub drift: Vec<f64>,
    /// Unit drops in the window, by reason.
    pub drops: BTreeMap<&'static str, u64>,
    /// Payments that expired in the window.
    pub expired: u64,
    /// The named terms, summing to `optimum − realized`.
    pub terms: Vec<(String, f64)>,
}

impl GapReport {
    /// Splits `w`'s gap to `optimum`, the balanced LP's solution for
    /// `demands` on `topo`.
    pub fn new(
        topo: &Topology,
        demands: &PaymentGraph,
        optimum: &FluidSolution,
        w: &Window,
    ) -> Self {
        let per_sec = |a: Amount| a.as_xrp() / w.secs;
        let mut pairs: BTreeMap<(NodeId, NodeId), PairGap> = demands
            .edges()
            .map(|e| {
                let pair = PairGap {
                    demand: e.rate,
                    ..Default::default()
                };
                ((e.src, e.dst), pair)
            })
            .collect();
        for f in &optimum.flows {
            pairs
                .get_mut(&(f.src, f.dst))
                .expect("a demand pair")
                .optimal += f.rate;
        }
        let hops: BTreeMap<PathId, Vec<Hop>> = w
            .trace
            .paths
            .iter()
            .map(|(id, nodes)| {
                let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
                (
                    PathId(*id as u32),
                    topo.path_channels(&nodes).expect("a path"),
                )
            })
            .collect();
        let mut drift = vec![0.0; topo.channel_count()];
        let mut settle = |path: PathId, amount: Amount| {
            for hop in &hops[&path] {
                let (channel, dir) = hop.parts();
                let sign = if dir == Direction::Forward { 1.0 } else { -1.0 };
                drift[channel.index()] += sign * per_sec(amount);
            }
        };
        let mut payments: BTreeMap<PaymentId, Payment> = BTreeMap::new();
        let mut units: BTreeMap<u64, (PaymentId, PathId, Amount)> = BTreeMap::new();
        let mut last_drop: BTreeMap<PaymentId, DropReason> = BTreeMap::new();
        let (mut drops, mut expired) = (BTreeMap::new(), 0);
        let start_us = (w.start * 1e6).round() as u64;
        for e in w.trace.events() {
            let inside = e.t_us >= start_us;
            let delivered = match e.kind {
                TraceEventKind::UnitDelivered { unit } => Some(units[&unit]),
                TraceEventKind::UnitSettled {
                    payment,
                    amount,
                    path,
                } => Some((payment, path, amount)),
                _ => None,
            };
            if let Some((payment, path, amount)) = delivered {
                let p = payments.get_mut(&payment).expect("an arrival");
                p.resolve(amount, inside);
                if inside {
                    pairs.get_mut(&p.pair).expect("a demand pair").realized += per_sec(amount);
                    settle(path, amount);
                }
            }
            match e.kind {
                TraceEventKind::PaymentArrival {
                    payment,
                    src,
                    dst,
                    amount,
                } => {
                    let p = Payment {
                        pair: (src, dst),
                        inside,
                        unresolved: amount,
                        carried: Amount::ZERO,
                    };
                    payments.insert(payment, p);
                    if inside {
                        pairs.get_mut(&(src, dst)).expect("a demand pair").arrived +=
                            per_sec(amount);
                    }
                }
                TraceEventKind::UnitInjected {
                    payment,
                    unit,
                    path,
                    amount,
                } => {
                    units.insert(unit, (payment, path, amount));
                }
                TraceEventKind::UnitDropped { unit, reason, .. } => {
                    last_drop.insert(units[&unit].0, reason);
                    if inside {
                        *drops.entry(reason_str(reason)).or_insert(0) += 1;
                    }
                }
                TraceEventKind::UnitRefunded {
                    payment,
                    reason: Some(reason),
                    ..
                } => {
                    last_drop.insert(payment, reason);
                }
                TraceEventKind::PaymentExpired {
                    payment, remaining, ..
                } => {
                    let p = payments.get_mut(&payment).expect("an arrival");
                    p.resolve(remaining, inside);
                    if inside {
                        expired += 1;
                        let cause = last_drop.get(&payment).map_or("unsent", |r| reason_str(*r));
                        let pair = pairs.get_mut(&p.pair).expect("a demand pair");
                        *pair.failed.entry(cause).or_insert(0.0) += per_sec(remaining);
                    }
                }
                _ => {}
            }
        }
        for p in payments.values() {
            let pair = pairs.get_mut(&p.pair).expect("a demand pair");
            if p.inside {
                pair.pending += per_sec(p.unresolved);
            }
            pair.pending -= per_sec(p.carried);
        }
        let realized = pairs.values().map(|p| p.realized).sum();
        let terms = terms(&pairs);
        GapReport {
            optimum: optimum.throughput,
            realized,
            pairs,
            drift,
            drops,
            expired,
            terms,
        }
    }

    /// The largest `|drift|` over all channels, XRP per second.
    pub fn max_drift(&self) -> f64 {
        self.drift.iter().fold(0.0, |m, d| m.max(d.abs()))
    }
}

/// The named terms of `pairs`' gap, in report order.
fn terms(pairs: &BTreeMap<(NodeId, NodeId), PairGap>) -> Vec<(String, f64)> {
    let (mut beyond, mut short, mut arrivals, mut edges) = (0.0, 0.0, 0.0, 0.0);
    let mut failed: BTreeMap<&'static str, f64> = BTreeMap::new();
    for p in pairs.values() {
        if !p.served_in_full() {
            let d = p.optimal - p.realized;
            if d < 0.0 {
                beyond += d;
            } else {
                short += d;
            }
            continue;
        }
        arrivals += p.optimal - p.arrived;
        for (cause, v) in &p.failed {
            *failed.entry(cause).or_insert(0.0) += v;
        }
        edges += p.pending;
    }
    let mut terms = vec![
        ("rationed: beyond the LP's share".to_string(), beyond),
        ("rationed: short of the LP's share".to_string(), short),
        ("full: arrivals under the rate".to_string(), arrivals),
    ];
    terms.extend(
        failed
            .into_iter()
            .map(|(c, v)| (format!("full: failed, {c}"), v)),
    );
    terms.push(("full: pending across the edges".to_string(), edges));
    terms
}
