//! # spider-faults
//!
//! Deterministic transport-fault injection for the Spider reproduction:
//! per-channel message/ack loss, latency jitter and delay spikes, silently
//! stuck units (a hop holds a unit until the sender's hop timeout fires),
//! and node crash/recovery windows — all derived from a [`DetRng`] fork so
//! the same experiment seed always produces the same fault sequence.
//!
//! The paper's evaluation assumes reliable links; this crate opens the
//! loss axis the same way `spider-dynamics` opened churn. A [`FaultPlan`]
//! is generated once from a [`FaultConfig`] (mirroring
//! `dynamics::ChurnSchedule::generate`) and installed into the engine
//! (`spider_sim::Simulation::install`, which checks its delays against
//! the run's horizon); the engine then draws
//! per-unit outcomes from the plan's own runtime stream, schedules
//! [`FaultEvent`] crash/recover toggles on the calendar, and arms
//! `EventKind::HopTimeout` timers that refund every locked upstream hop
//! when a unit is lost or stuck.
//!
//! Determinism contract: the fault stream is independent of the workload
//! and scheme streams (labeled forks), and **no plan installed means no
//! draw ever happens** — zero-fault configs stay bit-identical to the
//! fault-unaware engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

use serde::Serialize;
use spider_topology::Topology;
use spider_types::distr::{Distribution, Exponential};
use spider_types::{DetRng, NodeId, Result, SimDuration, SimTime, SpiderError};

/// Node crash/recovery parameters (nested inside [`FaultConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrashConfig {
    /// Poisson rate of node-crash events (events/s across the network).
    pub rate_per_sec: f64,
    /// Mean of the exponential delay after which a crashed node recovers.
    /// `None` = crashes are permanent for the run.
    pub recovery_mean_secs: Option<f64>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            rate_per_sec: 0.02,
            recovery_mean_secs: Some(4.0),
        }
    }
}

/// Parameters of a fault plan. Probabilities are per transaction-unit hop
/// (or per ack); rates are per simulated second over the whole network.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Base probability that a unit's forwarding message is lost crossing
    /// one hop. Each channel gets its own per-channel probability drawn
    /// around this base (see [`FaultPlan::message_loss`]).
    pub message_loss_prob: f64,
    /// Probability that the acknowledgement of a delivered unit is lost on
    /// the way back to the sender (the sender's hop timeout then refunds
    /// the path even though the unit reached its destination).
    pub ack_loss_prob: f64,
    /// Probability that a hop silently holds a unit (a stuck HTLC): no
    /// message is lost, but the unit never progresses until the hop
    /// timeout cancels it.
    pub stuck_unit_prob: f64,
    /// Per-hop latency jitter, drawn uniformly from `[min, max]`
    /// milliseconds and added to the hop delay. `None` = no jitter.
    pub jitter_range_ms: Option<[f64; 2]>,
    /// Probability that a hop experiences a delay spike.
    pub spike_prob: f64,
    /// Extra delay (milliseconds) a spiked hop adds on top of jitter.
    pub spike_ms: f64,
    /// The sender-side per-hop timeout: a unit whose next forwarding event
    /// was lost or stuck is canceled (and its upstream hops refunded) this
    /// long after the fault.
    pub hop_timeout_secs: f64,
    /// Node crash/recovery windows. `None` = nodes never crash.
    pub crash: Option<CrashConfig>,
    /// Plan horizon (seconds): no crash event is generated at or beyond
    /// it.
    pub horizon_secs: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            message_loss_prob: 0.01,
            ack_loss_prob: 0.005,
            stuck_unit_prob: 0.002,
            jitter_range_ms: Some([1.0, 8.0]),
            spike_prob: 0.01,
            spike_ms: 120.0,
            hop_timeout_secs: 1.0,
            crash: Some(CrashConfig::default()),
            horizon_secs: 20.0,
        }
    }
}

impl FaultConfig {
    /// A copy with every fault probability and crash rate scaled by
    /// `intensity` — the knob the `fault_resilience` benchmark sweeps.
    /// `0.0` yields a plan that never injects anything.
    pub fn scaled(&self, intensity: f64) -> FaultConfig {
        let p = |base: f64| (base * intensity).min(1.0);
        FaultConfig {
            message_loss_prob: p(self.message_loss_prob),
            ack_loss_prob: p(self.ack_loss_prob),
            stuck_unit_prob: p(self.stuck_unit_prob),
            spike_prob: p(self.spike_prob),
            // Jitter has no probability knob; its magnitude scales.
            jitter_range_ms: self
                .jitter_range_ms
                .map(|[lo, hi]| [lo * intensity, hi * intensity]),
            crash: self.crash.as_ref().map(|c| CrashConfig {
                rate_per_sec: c.rate_per_sec * intensity,
                recovery_mean_secs: c.recovery_mean_secs,
            }),
            ..self.clone()
        }
    }

    /// Validates parameter sanity; a config that passes generates
    /// without panicking, and the engine can turn every delay into a
    /// `SimDuration`.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| Err(SpiderError::InvalidConfig(msg.into()));
        let probs = [
            self.message_loss_prob,
            self.ack_loss_prob,
            self.stuck_unit_prob,
            self.spike_prob,
        ];
        if probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return bad("fault probabilities must be in [0, 1]");
        }
        if let Some([lo, hi]) = self.jitter_range_ms {
            if !(lo >= 0.0 && hi >= lo && hi.is_finite()) {
                return bad("jitter range must satisfy 0 <= min <= max < inf");
            }
        }
        if !(self.spike_ms >= 0.0 && self.spike_ms.is_finite()) {
            return bad("spike delay must be non-negative and finite");
        }
        if !(self.hop_timeout_secs > 0.0 && self.hop_timeout_secs.is_finite()) {
            return bad("hop timeout must be positive and finite");
        }
        if let Some(crash) = &self.crash {
            if !(crash.rate_per_sec >= 0.0 && crash.rate_per_sec.is_finite()) {
                return bad("crash rate must be non-negative and finite");
            }
            if let Some(m) = crash.recovery_mean_secs {
                if !(m > 0.0 && m.is_finite()) {
                    return bad("crash recovery mean must be positive and finite");
                }
            }
        }
        if !(self.horizon_secs > 0.0 && self.horizon_secs.is_finite()) {
            return bad("fault horizon must be positive and finite");
        }
        Ok(())
    }
}

/// What a scheduled fault event does when its instant arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultChange {
    /// The node stops forwarding: units arriving at it (or queued behind
    /// it) are dropped with `DropReason::NodeCrashed`.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// The node resumes forwarding.
    NodeRecover {
        /// The recovering node.
        node: NodeId,
    },
}

/// One scheduled crash/recover toggle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// When the change happens.
    pub at: SimTime,
    /// What changes.
    pub change: FaultChange,
}

/// A generated, deterministic fault plan: the scheduled crash windows plus
/// the per-channel/per-unit draw parameters the engine consults at
/// runtime.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Per-channel message-loss probability (indexed by `ChannelId`):
    /// the configured base scaled by a deterministic per-channel factor in
    /// `[0.5, 1.5]`, so lossy and clean channels coexist in one run.
    pub message_loss: Vec<f64>,
    /// Ack-loss probability (per delivered unit).
    pub ack_loss_prob: f64,
    /// Stuck-unit probability (per hop crossing).
    pub stuck_prob: f64,
    /// Per-hop jitter range (milliseconds), if any.
    pub jitter_range_ms: Option<[f64; 2]>,
    /// Delay-spike probability (per hop crossing).
    pub spike_prob: f64,
    /// Delay-spike magnitude (milliseconds).
    pub spike_ms: f64,
    /// The sender-side per-hop timeout.
    pub hop_timeout: SimDuration,
    /// Crash/recover toggles, sorted by instant (ties keep generation
    /// order — the engine applies same-instant events in list order).
    pub events: Vec<FaultEvent>,
    /// Seed of the engine's runtime draw stream (per-unit loss/stuck/
    /// jitter decisions). Forked from the plan stream so reruns of the
    /// same plan make identical draws.
    pub runtime_seed: u64,
}

impl FaultPlan {
    /// Generates the deterministic plan for `topo` under `cfg`, drawing
    /// every random choice from `rng`. The same (topology, config, rng
    /// state) always yields the same plan.
    pub fn generate(topo: &Topology, cfg: &FaultConfig, rng: &mut DetRng) -> Result<Self> {
        cfg.validate()?;
        let n_channels = topo.channel_count();
        let n_nodes = topo.node_count();
        let horizon = cfg.horizon_secs;
        let at = |secs: f64| SimTime::from_secs_f64(secs);

        // Per-channel loss: the base probability scaled by a uniform
        // factor in [0.5, 1.5], clamped to a valid probability. A zero
        // base stays exactly zero on every channel.
        let mut loss_rng = rng.fork("loss");
        let message_loss: Vec<f64> = (0..n_channels)
            .map(|_| {
                let factor = 0.5 + loss_rng.uniform();
                (cfg.message_loss_prob * factor).min(1.0)
            })
            .collect();

        // Poisson node crashes with exponential recoveries.
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut crash_rng = rng.fork("crash");
        if let Some(crash) = &cfg.crash {
            if crash.rate_per_sec > 0.0 && n_nodes > 0 {
                let gap = Exponential::new(crash.rate_per_sec);
                let mut t = gap.sample(&mut crash_rng);
                while t < horizon {
                    let node = NodeId::from_index(crash_rng.index(n_nodes));
                    events.push(FaultEvent {
                        at: at(t),
                        change: FaultChange::NodeCrash { node },
                    });
                    if let Some(mean) = crash.recovery_mean_secs {
                        let dt = Exponential::with_mean(mean).sample(&mut crash_rng);
                        if t + dt < horizon {
                            events.push(FaultEvent {
                                at: at(t + dt),
                                change: FaultChange::NodeRecover { node },
                            });
                        }
                    }
                    t += gap.sample(&mut crash_rng);
                }
            }
        }
        events.sort_by_key(|e| e.at);

        Ok(FaultPlan {
            message_loss,
            ack_loss_prob: cfg.ack_loss_prob,
            stuck_prob: cfg.stuck_unit_prob,
            jitter_range_ms: cfg.jitter_range_ms,
            spike_prob: cfg.spike_prob,
            spike_ms: cfg.spike_ms,
            hop_timeout: SimDuration::from_secs_f64(cfg.hop_timeout_secs),
            events,
            runtime_seed: rng.fork("runtime").seed(),
        })
    }

    /// True when the plan can never inject anything: no crash windows and
    /// every probabilistic knob at zero. The engine still runs its fault
    /// path for a quiet plan (draws happen on an independent stream), but
    /// `chance(0.0)` never fires, so outcomes match a fault-free run.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
            && self.ack_loss_prob == 0.0
            && self.stuck_prob == 0.0
            && self.spike_prob == 0.0
            && self
                .jitter_range_ms
                .is_none_or(|[lo, hi]| lo == 0.0 && hi == 0.0)
            && self.message_loss.iter().all(|&p| p == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;
    use spider_types::Amount;

    fn topo() -> Topology {
        gen::isp_topology(Amount::from_xrp(100))
    }

    /// Crash events (`NodeCrash` toggles) in a plan.
    fn crashes(plan: &FaultPlan) -> usize {
        plan.events
            .iter()
            .filter(|e| matches!(e.change, FaultChange::NodeCrash { .. }))
            .count()
    }

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let cfg = FaultConfig::default();
        let a = FaultPlan::generate(&t, &cfg, &mut DetRng::new(7)).unwrap();
        let b = FaultPlan::generate(&t, &cfg, &mut DetRng::new(7)).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::generate(&t, &cfg, &mut DetRng::new(8)).unwrap();
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.message_loss.len(), t.channel_count());
        // Events sorted by instant, within the horizon, on valid nodes.
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &a.events {
            assert!(e.at.as_secs_f64() < cfg.horizon_secs);
            match e.change {
                FaultChange::NodeCrash { node } | FaultChange::NodeRecover { node } => {
                    assert!(node.index() < t.node_count())
                }
            }
        }
        // Per-channel loss wanders around the base within [0.5x, 1.5x].
        for &p in &a.message_loss {
            assert!(p >= cfg.message_loss_prob * 0.5 - 1e-12);
            assert!(p <= cfg.message_loss_prob * 1.5 + 1e-12);
        }
    }

    #[test]
    fn every_crash_precedes_its_recovery() {
        let t = topo();
        let cfg = FaultConfig {
            crash: Some(CrashConfig {
                rate_per_sec: 2.0,
                recovery_mean_secs: Some(1.0),
            }),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&t, &cfg, &mut DetRng::new(3)).unwrap();
        assert!(crashes(&plan) > 0, "crash stream never fired");
        // Walk the sorted schedule: a node can only recover while down.
        let mut down = vec![0u32; t.node_count()];
        for e in &plan.events {
            match e.change {
                FaultChange::NodeCrash { node } => down[node.index()] += 1,
                FaultChange::NodeRecover { node } => {
                    assert!(down[node.index()] > 0, "recover before any crash");
                    down[node.index()] -= 1;
                }
            }
        }
    }

    #[test]
    fn intensity_scales_faults() {
        let t = topo();
        let base = FaultConfig::default();
        let quiet = FaultPlan::generate(&t, &base.scaled(0.0), &mut DetRng::new(5)).unwrap();
        assert!(quiet.is_quiet(), "zero intensity must be a quiet plan");
        let mild = FaultPlan::generate(&t, &base.scaled(0.5), &mut DetRng::new(5)).unwrap();
        let harsh = FaultPlan::generate(&t, &base.scaled(50.0), &mut DetRng::new(5)).unwrap();
        assert!(!harsh.is_quiet());
        assert!(crashes(&harsh) > crashes(&mild));
        assert!(harsh.message_loss[0] > mild.message_loss[0]);
        // Scaling clamps probabilities to 1.
        let extreme = base.scaled(1e9);
        assert!(extreme.message_loss_prob <= 1.0 && extreme.spike_prob <= 1.0);
        assert!(extreme.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let t = topo();
        for cfg in [
            FaultConfig {
                message_loss_prob: -0.1,
                ..FaultConfig::default()
            },
            FaultConfig {
                ack_loss_prob: 1.5,
                ..FaultConfig::default()
            },
            FaultConfig {
                jitter_range_ms: Some([5.0, 2.0]),
                ..FaultConfig::default()
            },
            FaultConfig {
                hop_timeout_secs: 0.0,
                ..FaultConfig::default()
            },
            FaultConfig {
                crash: Some(CrashConfig {
                    rate_per_sec: -1.0,
                    recovery_mean_secs: None,
                }),
                ..FaultConfig::default()
            },
            FaultConfig {
                crash: Some(CrashConfig {
                    rate_per_sec: 0.1,
                    recovery_mean_secs: Some(0.0),
                }),
                ..FaultConfig::default()
            },
            FaultConfig {
                horizon_secs: -1.0,
                ..FaultConfig::default()
            },
        ] {
            assert!(FaultPlan::generate(&t, &cfg, &mut DetRng::new(0)).is_err());
        }
    }
}
