//! # spider-dynamics
//!
//! Live-network churn for the Spider reproduction: deterministic
//! generation of [`TopologyEvent`] schedules — Poisson channel closes with
//! exponential reopen delays, mid-run channel spawns, capacity resizes,
//! node leave/join cycles, and periodic flap traces — all driven by a
//! [`DetRng`] fork so the same experiment seed always produces the same
//! churn.
//!
//! The paper evaluates Spider on frozen snapshots; this crate opens the
//! dynamics axis the related work treats as the hard case (SpeedyMurmurs'
//! on-demand repair under churn, Varma–Maguluri's stationary-regime
//! stability analysis). The engine applies the events mid-run
//! (`spider_sim::Simulation::install`) and routers repair
//! their candidate caches incrementally
//! (`spider_routing::PathCache::on_topology_change`).
//!
//! Ids are stable across churn: a schedule never invents channels — it
//! closes, reopens and resizes the channels of the **union topology** the
//! simulation was built with. Channels that "open mid-run" are union
//! channels scheduled closed at `t = 0` and opened later.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

use serde::Serialize;
use spider_topology::Topology;
use spider_types::distr::{Distribution, Exponential};
use spider_types::{
    check, Amount, ChannelId, DetRng, NodeId, Result, SimTime, SpiderError, TopologyChange,
    TopologyEvent,
};

/// Parameters of a churn schedule. All rates are per simulated second over
/// the whole network; every distribution draws from the `DetRng` handed to
/// [`ChurnSchedule::generate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DynamicsConfig {
    /// Poisson rate of channel-close events (events/s across the network).
    pub close_rate_per_sec: f64,
    /// Mean of the exponential delay after which a closed channel reopens.
    /// `None` = closes are permanent.
    pub reopen_mean_secs: Option<f64>,
    /// Poisson rate of capacity-resize events (events/s).
    pub resize_rate_per_sec: f64,
    /// Resize factors are drawn log-uniformly from this `[min, max]`
    /// range and applied to the channel's *original* (union-topology)
    /// capacity: each event samples an absolute target, so repeated
    /// resizes of one channel wander within the range instead of
    /// compounding toward zero or infinity. [`ChurnSchedule::generate`]
    /// rejects a range that could grow the topology's largest channel
    /// past [`Amount::MAX_BALANCE`].
    pub resize_factor_range: [f64; 2],
    /// Poisson rate of node-leave events (events/s). A leave closes every
    /// channel of the node; the node rejoins after the reopen delay
    /// (permanently gone when `reopen_mean_secs` is `None`).
    pub node_leave_rate_per_sec: f64,
    /// Fraction of channels that only come into existence mid-run: they
    /// are scheduled closed at `t = 0` and open at a uniform instant.
    pub spawn_fraction: f64,
    /// Number of *flapping* channels: each toggles closed/open with its
    /// own deterministic period and phase.
    pub flap_channels: usize,
    /// Mean flap period (seconds); each flapping channel's period is
    /// drawn uniformly in `[0.5, 1.5] ×` this mean, half closed half open.
    pub flap_period_secs: f64,
    /// Schedule horizon (seconds): no event is generated at or beyond it.
    pub horizon_secs: f64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            close_rate_per_sec: 0.5,
            reopen_mean_secs: Some(5.0),
            resize_rate_per_sec: 0.25,
            resize_factor_range: [0.5, 2.0],
            node_leave_rate_per_sec: 0.05,
            spawn_fraction: 0.05,
            flap_channels: 2,
            flap_period_secs: 6.0,
            horizon_secs: 20.0,
        }
    }
}

impl DynamicsConfig {
    /// A copy with every event rate (closes, resizes, node leaves, spawn
    /// fraction, flap count) scaled by `intensity` — the knob the
    /// `churn_resilience` benchmark sweeps. `0.0` yields an empty
    /// schedule.
    pub fn scaled(&self, intensity: f64) -> DynamicsConfig {
        DynamicsConfig {
            close_rate_per_sec: self.close_rate_per_sec * intensity,
            resize_rate_per_sec: self.resize_rate_per_sec * intensity,
            node_leave_rate_per_sec: self.node_leave_rate_per_sec * intensity,
            spawn_fraction: (self.spawn_fraction * intensity).min(0.9),
            flap_channels: (self.flap_channels as f64 * intensity).round() as usize,
            ..self.clone()
        }
    }

    /// Validates parameter sanity; a config that passes generates
    /// without panicking.
    pub fn validate(&self) -> Result<()> {
        check::non_negative("the churn close rate", self.close_rate_per_sec)?;
        check::non_negative("the churn resize rate", self.resize_rate_per_sec)?;
        check::non_negative("the churn leave rate", self.node_leave_rate_per_sec)?;
        if let Some(m) = self.reopen_mean_secs {
            check::positive("the reopen mean", m)?;
        }
        let [lo, hi] = self.resize_factor_range;
        check::positive("the least resize factor", lo)?;
        check::non_negative("the resize factor spread", hi - lo)?;
        check::fraction("the spawn fraction", self.spawn_fraction)?;
        check::positive("the dynamics horizon", self.horizon_secs)?;
        // A flap trace steps by half its period, which is at least a
        // quarter of the mean: that step must move the clock by 1 µs
        // even at the horizon, or the trace would take horizon / step
        // steps (or never end).
        let step = 0.25 * self.flap_period_secs;
        let advance = (self.horizon_secs + step) - self.horizon_secs;
        if self.flap_channels > 0 && (advance.is_nan() || advance < 1e-6) {
            return Err(SpiderError::InvalidConfig(
                "a quarter of the flap period must advance the clock by at least 1 µs".into(),
            ));
        }
        Ok(())
    }
}

/// A generated, time-sorted churn schedule.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChurnSchedule {
    /// The events, sorted by instant (ties keep generation order — the
    /// engine applies same-instant events in list order).
    pub events: Vec<TopologyEvent>,
}

impl ChurnSchedule {
    /// Generates the deterministic schedule for `topo` under `cfg`,
    /// drawing every random choice from `rng`. The same (topology, config,
    /// rng state) always yields the same schedule.
    pub fn generate(topo: &Topology, cfg: &DynamicsConfig, rng: &mut DetRng) -> Result<Self> {
        cfg.validate()?;
        let mut events: Vec<TopologyEvent> = Vec::new();
        let horizon = cfg.horizon_secs;
        let n_channels = topo.channel_count();
        let n_nodes = topo.node_count();
        if n_channels == 0 {
            return Ok(ChurnSchedule { events });
        }
        let at = |secs: f64| SimTime::from_secs_f64(secs);

        // Mid-run spawns: a deterministic sample of channels starts
        // closed and opens at a uniform instant.
        let mut spawn_rng = rng.fork("spawn");
        let spawn_count = ((n_channels as f64) * cfg.spawn_fraction).floor() as usize;
        let flap_count = cfg
            .flap_channels
            .min(n_channels.saturating_sub(spawn_count));
        let mut ids: Vec<usize> = (0..n_channels).collect();
        spawn_rng.shuffle(&mut ids);
        // Spawn and flap channels are *owned* by their trace: the Poisson
        // close/resize streams and the node cycles skip them, so a spawn
        // channel can never be opened before its spawn instant (e.g. by a
        // NodeJoin reopening every closed incident channel) and a flap
        // square wave is never perturbed mid-cycle.
        let mut reserved = vec![false; n_channels];
        for &ci in ids.iter().take(spawn_count) {
            reserved[ci] = true;
        }
        for &ci in ids.iter().rev().take(flap_count) {
            reserved[ci] = true;
        }
        let node_reserved: Vec<bool> = (0..n_nodes)
            .map(|u| {
                topo.neighbors(NodeId::from_index(u))
                    .iter()
                    .any(|a| reserved[a.channel.index()])
            })
            .collect();
        for &ci in ids.iter().take(spawn_count) {
            let channel = ChannelId::from_index(ci);
            events.push(TopologyEvent {
                at: SimTime::ZERO,
                change: TopologyChange::ChannelClose { channel },
            });
            events.push(TopologyEvent {
                at: at(spawn_rng.uniform() * horizon),
                change: TopologyChange::ChannelOpen { channel },
            });
        }

        // Poisson channel closes with exponential reopens.
        let mut close_rng = rng.fork("close");
        if cfg.close_rate_per_sec > 0.0 {
            let gap = Exponential::new(cfg.close_rate_per_sec);
            let mut t = gap.sample(&mut close_rng);
            while t < horizon {
                let ci = close_rng.index(n_channels);
                if reserved[ci] {
                    // Owned by the spawn/flap traces: thin the process.
                    t += gap.sample(&mut close_rng);
                    continue;
                }
                let channel = ChannelId::from_index(ci);
                events.push(TopologyEvent {
                    at: at(t),
                    change: TopologyChange::ChannelClose { channel },
                });
                if let Some(mean) = cfg.reopen_mean_secs {
                    let dt = Exponential::with_mean(mean).sample(&mut close_rng);
                    if t + dt < horizon {
                        events.push(TopologyEvent {
                            at: at(t + dt),
                            change: TopologyChange::ChannelOpen { channel },
                        });
                    }
                }
                t += gap.sample(&mut close_rng);
            }
        }

        // Poisson capacity resizes, log-uniform factors against the
        // channel's original capacity.
        let mut resize_rng = rng.fork("resize");
        if cfg.resize_rate_per_sec > 0.0 {
            let gap = Exponential::new(cfg.resize_rate_per_sec);
            let [lo, hi] = cfg.resize_factor_range;
            // The largest channel, grown by the largest factor, must stay
            // within the balance bound (as `mul_f64` rounds it).
            let largest = topo.channels().map(|(_, c)| c.capacity).max();
            let grown = largest.unwrap_or_default().mul_f64(hi);
            check::balance("the largest channel resized", grown)?;
            let (ln_lo, ln_hi) = (lo.ln(), hi.ln());
            let mut t = gap.sample(&mut resize_rng);
            while t < horizon {
                let ci = resize_rng.index(n_channels);
                if reserved[ci] {
                    t += gap.sample(&mut resize_rng);
                    continue;
                }
                let channel = ChannelId::from_index(ci);
                let factor = (ln_lo + resize_rng.uniform() * (ln_hi - ln_lo)).exp();
                let base = topo.channel(channel).capacity;
                let new_capacity = base.mul_f64(factor).max(Amount::DROP);
                events.push(TopologyEvent {
                    at: at(t),
                    change: TopologyChange::ChannelResize {
                        channel,
                        new_capacity,
                    },
                });
                t += gap.sample(&mut resize_rng);
            }
        }

        // Poisson node leave/join cycles.
        let mut node_rng = rng.fork("node");
        if cfg.node_leave_rate_per_sec > 0.0 && n_nodes > 0 {
            let gap = Exponential::new(cfg.node_leave_rate_per_sec);
            let mut t = gap.sample(&mut node_rng);
            while t < horizon {
                let ni = node_rng.index(n_nodes);
                if node_reserved[ni] {
                    // An incident channel is owned by the spawn/flap
                    // traces: a join here could open a spawn channel
                    // before its spawn instant. Thin the process.
                    t += gap.sample(&mut node_rng);
                    continue;
                }
                let node = NodeId::from_index(ni);
                events.push(TopologyEvent {
                    at: at(t),
                    change: TopologyChange::NodeLeave { node },
                });
                if let Some(mean) = cfg.reopen_mean_secs {
                    let dt = Exponential::with_mean(mean).sample(&mut node_rng);
                    if t + dt < horizon {
                        events.push(TopologyEvent {
                            at: at(t + dt),
                            change: TopologyChange::NodeJoin { node },
                        });
                    }
                }
                t += gap.sample(&mut node_rng);
            }
        }

        // Flap traces: square-wave closed/open toggling on the reserved
        // channels disjoint from the spawn set.
        let mut flap_rng = rng.fork("flap");
        for &ci in ids.iter().rev().take(flap_count) {
            let channel = ChannelId::from_index(ci);
            let period = cfg.flap_period_secs * (0.5 + flap_rng.uniform());
            let mut t = flap_rng.uniform() * period;
            let mut closing = true;
            while t < horizon {
                events.push(TopologyEvent {
                    at: at(t),
                    change: if closing {
                        TopologyChange::ChannelClose { channel }
                    } else {
                        TopologyChange::ChannelOpen { channel }
                    },
                });
                closing = !closing;
                t += period / 2.0;
            }
        }

        // Stable by instant: same-instant events keep generation order
        // (spawns, closes, resizes, node cycles, flaps).
        events.sort_by_key(|e| e.at);
        Ok(ChurnSchedule { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;

    fn topo() -> Topology {
        gen::isp_topology(Amount::from_xrp(100))
    }

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let cfg = DynamicsConfig::default();
        let a = ChurnSchedule::generate(&t, &cfg, &mut DetRng::new(7)).unwrap();
        let b = ChurnSchedule::generate(&t, &cfg, &mut DetRng::new(7)).unwrap();
        assert_eq!(a, b);
        let c = ChurnSchedule::generate(&t, &cfg, &mut DetRng::new(8)).unwrap();
        assert_ne!(a, c, "different seeds must differ");
        assert!(!a.events.is_empty());
        // Sorted by instant.
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Every event stays within the horizon and the id spaces.
        for e in &a.events {
            assert!(e.at.as_secs_f64() < cfg.horizon_secs);
            match e.change {
                TopologyChange::ChannelClose { channel }
                | TopologyChange::ChannelOpen { channel }
                | TopologyChange::ChannelResize { channel, .. } => {
                    assert!(channel.index() < t.channel_count())
                }
                TopologyChange::NodeLeave { node } | TopologyChange::NodeJoin { node } => {
                    assert!(node.index() < t.node_count())
                }
            }
        }
    }

    #[test]
    fn spawned_channels_close_at_zero_then_open() {
        let t = topo();
        let cfg = DynamicsConfig {
            spawn_fraction: 0.2,
            close_rate_per_sec: 0.0,
            resize_rate_per_sec: 0.0,
            node_leave_rate_per_sec: 0.0,
            flap_channels: 0,
            ..DynamicsConfig::default()
        };
        let s = ChurnSchedule::generate(&t, &cfg, &mut DetRng::new(1)).unwrap();
        let spawns = ((t.channel_count() as f64) * 0.2).floor() as usize;
        let initial = s.events.iter().filter(|e| e.at == SimTime::ZERO).count();
        assert_eq!(initial, spawns);
        assert_eq!(s.events.len() - initial, spawns);
        for e in &s.events {
            if e.at == SimTime::ZERO {
                assert!(matches!(e.change, TopologyChange::ChannelClose { .. }));
            } else {
                assert!(matches!(e.change, TopologyChange::ChannelOpen { .. }));
            }
        }
    }

    #[test]
    fn intensity_scales_event_count() {
        let t = topo();
        let base = DynamicsConfig::default();
        let gen_n = |i: f64| {
            ChurnSchedule::generate(&t, &base.scaled(i), &mut DetRng::new(3))
                .unwrap()
                .events
                .len()
        };
        assert_eq!(gen_n(0.0), 0, "zero intensity is a quiet network");
        assert!(gen_n(2.0) > gen_n(0.5));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let t = topo();
        for cfg in [
            DynamicsConfig {
                close_rate_per_sec: -1.0,
                ..DynamicsConfig::default()
            },
            DynamicsConfig {
                resize_factor_range: [0.0, 2.0],
                ..DynamicsConfig::default()
            },
            DynamicsConfig {
                spawn_fraction: 1.5,
                ..DynamicsConfig::default()
            },
            DynamicsConfig {
                horizon_secs: 0.0,
                ..DynamicsConfig::default()
            },
            DynamicsConfig {
                reopen_mean_secs: Some(0.0),
                ..DynamicsConfig::default()
            },
            // Finite factors that would grow a 100 XRP channel past
            // `Amount::MAX_BALANCE`.
            DynamicsConfig {
                resize_factor_range: [1e12, 1e12],
                ..DynamicsConfig::default()
            },
            DynamicsConfig {
                resize_factor_range: [1.0, 1e300],
                ..DynamicsConfig::default()
            },
        ] {
            assert!(ChurnSchedule::generate(&t, &cfg, &mut DetRng::new(0)).is_err());
        }
    }
}
