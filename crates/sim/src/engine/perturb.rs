//! What perturbs a run from outside the workload: the plans
//! [`Simulation::install`] takes and the sender-side admission gate.
//! Each lives behind an `Option` (churn: an empty schedule): `None`
//! leaves it inert — no draw made, no timer armed — so unperturbed runs
//! stay bit-identical to an engine without it.
//!
//! **The horizon-reach rule:** a delay the engine may add to an instant
//! at or before the horizon must land on a [`SimTime`]. `install` checks
//! a plan's with the function `SimConfig::validate` checks the engine's
//! own with: the hop timeout and griefing hold in every mode, and, hop by
//! hop only, the queue's hop delay + the largest jitter + the spike.

use super::Simulation;
use crate::config::{check_reach, AdmissionConfig, QueueingMode};
use crate::paths::PathEntry;
use spider_faults::{FaultChange, FaultEvent, FaultPlan};
use spider_obs::trace::TraceEventKind;
use spider_overload::OverloadPlan;
use spider_types::{
    ChannelId, DetRng, DropReason, NodeId, PathId, PaymentId, SimDuration, SimTime, SpiderError,
    TopologyChange, TopologyEvent,
};

/// A plan that perturbs a run from outside its workload, each drawing
/// from its own stream (see [`Simulation::install`]).
#[derive(Debug, Clone)]
pub enum Perturbation {
    /// Topology churn; `t = 0` entries set the initial liveness state.
    Churn(Vec<TopologyEvent>),
    /// Injected faults: crash toggles and per-unit draws.
    Faults(FaultPlan),
    /// Overload griefing (the plan's workload transforms are the caller's).
    Overload(OverloadPlan),
}

/// An installed fault plan with its runtime state.
pub(super) struct Faults {
    pub(super) plan: FaultPlan,
    /// Runtime draw stream for per-unit fault decisions, seeded from the
    /// plan, so the workload and scheme streams are unaffected.
    rng: DetRng,
    /// Per-node crashed flag, toggled by the plan's scheduled events.
    crashed: Vec<bool>,
}

/// True when fault injection has `node` crashed right now.
#[inline]
pub(super) fn is_crashed(faults: &Option<Faults>, node: NodeId) -> bool {
    faults.as_ref().is_some_and(|f| f.crashed[node.index()])
}

impl Faults {
    /// Draws the lockstep-mode fault verdict for one settling unit: a
    /// crashed forwarding node preempts without a draw, then per-channel
    /// message loss hop by hop, then a silently stuck unit, then a lost
    /// settlement ack. The draw order is fixed so identical plans replay
    /// identically.
    pub(super) fn lockstep_verdict(&mut self, entry: &PathEntry) -> Option<DropReason> {
        let nodes = entry.nodes();
        for (i, c) in entry.hops().iter().map(|hop| hop.channel()).enumerate() {
            if self.crashed[nodes[i].index()] {
                return Some(DropReason::NodeCrashed);
            }
            if self.rng.chance(self.plan.message_loss[c.index()]) {
                return Some(DropReason::MessageLost);
            }
        }
        if self.rng.chance(self.plan.stuck_prob) {
            return Some(DropReason::HopTimeout);
        }
        if self.rng.chance(self.plan.ack_loss_prob) {
            return Some(DropReason::MessageLost);
        }
        None
    }

    /// Hop-by-hop mode, first draws for a unit that just locked `channel`:
    /// a lost forwarding message — or, on the final hop, a lost delivery
    /// ack — then a silently stuck unit. Either arms the sender's per-hop
    /// timeout *instead of* the forwarding event.
    pub(super) fn hop_loss(&mut self, channel: ChannelId, final_hop: bool) -> Option<DropReason> {
        let loss_p = if final_hop {
            self.plan.ack_loss_prob
        } else {
            self.plan.message_loss[channel.index()]
        };
        if self.rng.chance(loss_p) {
            Some(DropReason::MessageLost)
        } else if self.rng.chance(self.plan.stuck_prob) {
            Some(DropReason::HopTimeout)
        } else {
            None
        }
    }

    /// Hop-by-hop mode, the draws that follow a surviving non-final hop
    /// (jitter, then spike): the extra forwarding delay.
    pub(super) fn hop_jitter(&mut self) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        if let Some([lo, hi]) = self.plan.jitter_range_ms {
            let ms = lo + self.rng.uniform() * (hi - lo);
            extra += SimDuration::from_secs_f64(ms / 1000.0);
        }
        if self.rng.chance(self.plan.spike_prob) {
            extra += SimDuration::from_secs_f64(self.plan.spike_ms / 1000.0);
        }
        extra
    }
}

/// An installed overload plan with its runtime draw stream. The plan's
/// workload transforms (time warp, pair redirects) are applied by the
/// caller before the workload reaches the engine; what is left for the
/// engine is griefing.
pub(super) struct Overload {
    pub(super) plan: OverloadPlan,
    /// Per-payment griefing draws, seeded from the plan, so the workload,
    /// scheme, churn and fault streams are unaffected.
    pub(super) rng: DetRng,
}

/// `t` plus `secs` (rounded to microseconds), or
/// [`SimTime::FAR_FUTURE`] when the sum is not a `SimTime`.
fn after_secs(t: SimTime, secs: f64) -> SimTime {
    // The cast saturates: a wait too long for a `SimDuration` is its max.
    let wait = SimDuration::from_micros((secs * 1e6).round() as u64);
    t.checked_add(wait).unwrap_or(SimTime::FAR_FUTURE)
}

/// Policing mode only: new payments are also rejected while global queue
/// occupancy (queued units across every channel direction, as a fraction
/// of total queue capacity) exceeds this — the queue-gradient signal that
/// the token rate alone cannot see. Shaping bounds intake by time, not
/// rejection, and ignores it.
const MAX_QUEUE_FRACTION: f64 = 0.5;

/// Token-bucket state for sender-side admission control.
#[derive(Debug, Clone)]
pub(super) struct AdmissionState {
    /// `cfg.defer` picks the mode: shaping (arrivals are deferred, never
    /// rejected) or policing (arrivals are admitted or fail-fasted).
    pub(super) cfg: AdmissionConfig,
    /// Tokens banked; refilled lazily on each arrival.
    tokens: f64,
    /// When the bucket was last refilled.
    last_refill: SimTime,
    /// Shaping mode: the time slot promised to the most recently
    /// deferred arrival; later deferrals queue behind it (FIFO pacing
    /// at exactly `rate_per_sec`).
    defer_horizon: SimTime,
}

impl AdmissionState {
    pub(super) fn new(cfg: AdmissionConfig) -> Self {
        let tokens = cfg.burst;
        AdmissionState {
            cfg,
            tokens,
            last_refill: SimTime::ZERO,
            defer_horizon: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = (now - self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.cfg.rate_per_sec).min(self.cfg.burst);
    }

    /// Shaping mode only: decides whether an arrival at `now` must wait.
    /// `None` admits immediately; `Some(t)` defers the arrival to `t`,
    /// the deterministic time the bucket next frees a slot — behind
    /// every earlier deferral, so deferred arrivals drain in FIFO order
    /// at exactly the sustained rate. A slot past the last `SimTime` is
    /// `Some(SimTime::FAR_FUTURE)`, and later deferrals queue behind it.
    ///
    /// In shaping mode this function owns the bucket entirely: the
    /// token is spent here on both outcomes (a promised slot spends its
    /// token at schedule time, driving `tokens` negative — debt — under
    /// backlog), and a deferred re-offer never re-enters the gate. The
    /// occupancy gate ([`MAX_QUEUE_FRACTION`]) is a policing-mode
    /// concept; shaping bounds intake by time, not by rejection.
    pub(super) fn defer_until(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(self.cfg.defer, "defer_until requires shaping mode");
        self.refill(now);
        let backlogged = self.defer_horizon > now;
        if !backlogged && self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return None;
        }
        let at = if backlogged {
            self.defer_horizon
        } else {
            let token_wait = (1.0 - self.tokens).max(0.0) / self.cfg.rate_per_sec;
            after_secs(now, token_wait)
        };
        self.tokens -= 1.0;
        self.defer_horizon = after_secs(at, 1.0 / self.cfg.rate_per_sec);
        Some(at)
    }

    /// Policing mode: refills the bucket, then decides one payment: `true`
    /// admits (consuming a token), `false` rejects. `queue_fraction` is
    /// the global queue occupancy in [0, 1].
    pub(super) fn admit(&mut self, now: SimTime, queue_fraction: f64) -> bool {
        self.refill(now);
        if queue_fraction > MAX_QUEUE_FRACTION || self.tokens < 1.0 {
            return false;
        }
        self.tokens -= 1.0;
        true
    }
}

impl Simulation {
    /// Installs a perturbation plan; call before [`Simulation::run`].
    /// Fails with [`SpiderError::InvalidConfig`] when the plan names a
    /// channel or node the topology lacks, or adds a delay that breaks
    /// the horizon-reach rule [`crate::SimConfig::validate`] applies too.
    pub fn install(&mut self, plan: Perturbation) -> spider_types::Result<()> {
        let (channels, nodes) = (self.net.topo.channel_count(), self.net.topo.node_count());
        let known = |change: &TopologyChange| match *change {
            TopologyChange::ChannelClose { channel }
            | TopologyChange::ChannelOpen { channel }
            | TopologyChange::ChannelResize { channel, .. } => channel.index() < channels,
            TopologyChange::NodeLeave { node } | TopologyChange::NodeJoin { node } => {
                node.index() < nodes
            }
        };
        let fits_topology = match &plan {
            Perturbation::Churn(events) => events.iter().all(|e| known(&e.change)),
            Perturbation::Faults(plan) => {
                let on_graph = |e: &FaultEvent| match e.change {
                    FaultChange::NodeCrash { node } | FaultChange::NodeRecover { node } => {
                        node.index() < nodes
                    }
                };
                plan.message_loss.len() == channels && plan.events.iter().all(on_graph)
            }
            Perturbation::Overload(_) => true,
        };
        if !fits_topology {
            let what = "the plan was generated for a different topology";
            return Err(SpiderError::InvalidConfig(what.into()));
        }
        match plan {
            Perturbation::Churn(mut events) => {
                // Stable by instant: same-instant events keep their list order.
                events.sort_by_key(|e| e.at);
                self.topo_events = events;
            }
            Perturbation::Faults(plan) => {
                let ms = |ms: f64| SimDuration::from_secs_f64(ms / 1000.0);
                let jitter = ms(plan.jitter_range_ms.map_or(0.0, |[_, hi]| hi));
                let hop = match &self.config.queueing {
                    QueueingMode::PerChannelFifo(q) if self.hop_by_hop() => {
                        vec![q.hop_delay, jitter, ms(plan.spike_ms)]
                    }
                    _ => Vec::new(),
                };
                check_reach(self.config.horizon, [&[plan.hop_timeout][..], &hop])?;
                self.faults = Some(Faults {
                    rng: DetRng::new(plan.runtime_seed),
                    crashed: vec![false; nodes],
                    plan,
                });
            }
            Perturbation::Overload(plan) => {
                check_reach(self.config.horizon, [&[plan.griefing_hold][..]])?;
                self.overload = Some(Overload {
                    rng: DetRng::new(plan.runtime_seed),
                    plan,
                });
            }
        }
        Ok(())
    }

    /// [`Simulation::install`], panicking on an error; kept for `benchmark/`.
    pub fn set_topology_events(&mut self, events: Vec<TopologyEvent>) {
        self.install(Perturbation::Churn(events)).expect("installs");
    }

    /// [`Simulation::install`], panicking on an error; kept for `benchmark/`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.install(Perturbation::Faults(plan)).expect("installs");
    }

    /// [`Simulation::install`], panicking on an error; kept for `benchmark/`.
    pub fn set_overload_plan(&mut self, plan: OverloadPlan) {
        self.install(Perturbation::Overload(plan))
            .expect("installs");
    }

    /// A scheduled fault-plan event (node crash or recovery) takes
    /// effect. Crashes act lazily: in-flight units are dropped when they
    /// next reach the crashed node (`on_hop_arrive`, queue head service,
    /// or lockstep settlement), so no slab scan is needed here.
    pub(super) fn on_fault_event(&mut self, idx: usize) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let (node, crashed) = match faults.plan.events[idx].change {
            FaultChange::NodeCrash { node } => (node, true),
            FaultChange::NodeRecover { node } => (node, false),
        };
        let was_crashed = std::mem::replace(&mut faults.crashed[node.index()], crashed);
        self.metrics.fault_event();
        self.obs
            .trace(self.net.now, || TraceEventKind::FaultApplied {
                node,
                crashed,
            });
        if was_crashed && !crashed {
            // The recovered node can forward again: service every queue
            // it forwards (the frozen heads never left FIFO order).
            let topo = &self.net.topo;
            let released: Vec<_> = topo
                .neighbors(node)
                .iter()
                .map(|adj| (adj.channel, topo.channel(adj.channel).direction_from(node)))
                .collect();
            self.drain_released(released);
        }
    }

    /// The sender-side admission gate, policing mode: refills the token
    /// bucket and either admits the payment (consuming a token) or
    /// fail-fasts it with [`DropReason::AdmissionRejected`] before it
    /// enters any queue. Returns whether the payment may proceed (always,
    /// without a policing gate).
    pub(super) fn admit_payment(&mut self, pid: usize) -> bool {
        let Some(adm) = self.admission.as_mut().filter(|a| !a.cfg.defer) else {
            return true;
        };
        // The gate's congestion signal: global queue occupancy in [0, 1];
        // zero under lockstep queueing, where no per-channel queues exist.
        let queue_fraction = self
            .queueing
            .as_ref()
            .map_or(0.0, |q| q.occupancy_fraction(self.net.channels.len()));
        if adm.admit(self.net.now, queue_fraction) {
            return true;
        }
        self.payments[pid].expired = true;
        let remaining = self.payments[pid].total;
        // No path was ever proposed: a whole-payment forensic record
        // under the reserved no-path id, with no failing channel.
        self.record_drop(
            pid,
            PathId(u32::MAX),
            None,
            None,
            DropReason::AdmissionRejected,
            || TraceEventKind::PaymentExpired {
                payment: PaymentId(pid as u64),
                remaining,
                rejected: true,
            },
        );
        false
    }
}
