//! # spider-overload
//!
//! Deterministic adversarial-load generation for the Spider reproduction:
//! flash-crowd rate spikes, Zipf-skewed hot-pair demand, one-way
//! liquidity-draining flows, and griefing payments whose units are
//! deliberately held by a hop until the sender's timeout fires — all
//! derived from a [`DetRng`] fork so the same experiment seed always
//! produces the same attack.
//!
//! The paper evaluates offered load up to the feasible envelope; this
//! crate opens the *beyond-capacity* axis the same way `spider-dynamics`
//! opened churn and `spider-faults` opened loss. An [`OverloadPlan`] is
//! generated once from an [`OverloadConfig`] (mirroring
//! `FaultPlan::generate`) and applied in two places:
//!
//! * **workload transforms** — [`OverloadPlan::warp_secs`] compresses
//!   arrival times into the flash-crowd window and
//!   [`OverloadPlan::transform_pair`] redirects a deterministic fraction
//!   of (src, dst) pairs onto the hot/drain pairs, drawing from the
//!   plan's own `transform_seed` stream;
//! * **engine griefing** — installed with `spider_sim::Simulation::install`
//!   (which refuses a hold that cannot be added to the run's horizon),
//!   the engine draws per-payment griefing from the plan's
//!   `runtime_seed` stream and holds the payment's units at their final
//!   hop until [`OverloadPlan::griefing_hold`] expires (reusing the
//!   stuck-unit hop-timeout plumbing of `spider-faults`).
//!
//! Determinism contract: the overload streams are independent of the
//! workload, scheme, churn and fault streams (labeled forks), and **no
//! plan installed means no draw ever happens** — overload-free configs
//! stay bit-identical to the overload-unaware engine. A quiet plan
//! (zero intensity) draws only `chance(0.0)`, which never fires, so its
//! outcomes equal a no-plan run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

use serde::Serialize;
use spider_topology::Topology;
use spider_types::{check, DetRng, NodeId, Result, SimDuration, SpiderError};

/// Flash-crowd parameters: a time window during which the arrival rate is
/// multiplied by compressing later arrivals into it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlashCrowdConfig {
    /// When the crowd arrives (seconds into the run).
    pub start_secs: f64,
    /// How long the spike lasts (seconds).
    pub duration_secs: f64,
    /// Arrival-rate multiplier inside the window (`1.0` = no spike).
    pub rate_multiplier: f64,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        FlashCrowdConfig {
            start_secs: 5.0,
            duration_secs: 5.0,
            rate_multiplier: 4.0,
        }
    }
}

/// Number of hot (src, dst) pairs.
pub const HOT_PAIRS: usize = 8;

/// Zipf exponent over the hot set (`0.0` would be uniform; larger = the
/// first pair dominates).
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Number of one-way (src, dst) drain flows.
pub const DRAIN_FLOWS: usize = 4;

/// Zipf-skewed hot-pair parameters: a fraction of all transactions is
/// redirected onto [`HOT_PAIRS`] (src, dst) pairs with Zipf weights.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HotPairsConfig {
    /// Fraction of transactions redirected onto the hot set.
    pub fraction: f64,
}

impl Default for HotPairsConfig {
    fn default() -> Self {
        HotPairsConfig { fraction: 0.3 }
    }
}

/// One-way liquidity-drain parameters: a fraction of transactions is
/// redirected onto fixed one-way flows, steadily emptying the channel
/// directions they cross (pure DAG demand — the component Spider cannot
/// sustain off-chain), [`DRAIN_FLOWS`] of them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DrainConfig {
    /// Fraction of transactions redirected onto the drain flows.
    pub fraction: f64,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig { fraction: 0.1 }
    }
}

/// Griefing parameters: a fraction of payments whose units a hop silently
/// holds until the sender-side timeout cancels them, pinning liquidity
/// for the whole hold window at zero goodput cost to the attacker.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GriefingConfig {
    /// Fraction of payments that grief.
    pub fraction: f64,
    /// How long the hop holds each griefing unit before the sender's
    /// timeout refunds it (seconds).
    pub hold_secs: f64,
}

impl Default for GriefingConfig {
    fn default() -> Self {
        GriefingConfig {
            fraction: 0.02,
            hold_secs: 1.0,
        }
    }
}

/// Parameters of an overload plan. Each sub-attack is optional; `None`
/// disables it entirely.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverloadConfig {
    /// Flash-crowd rate spike. `None` = arrivals keep their Poisson times.
    pub flash_crowd: Option<FlashCrowdConfig>,
    /// Zipf-skewed hot-pair demand. `None` = pairs are untouched.
    pub hot_pairs: Option<HotPairsConfig>,
    /// One-way liquidity-draining flows. `None` = no drain.
    pub drain: Option<DrainConfig>,
    /// Griefing payments. `None` = no griefing.
    pub griefing: Option<GriefingConfig>,
    /// Plan horizon (seconds): the flash window is clamped inside it.
    pub horizon_secs: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            flash_crowd: Some(FlashCrowdConfig::default()),
            hot_pairs: Some(HotPairsConfig::default()),
            drain: Some(DrainConfig::default()),
            griefing: Some(GriefingConfig::default()),
            horizon_secs: 20.0,
        }
    }
}

impl OverloadConfig {
    /// A copy with every redirect/griefing fraction scaled by `intensity`
    /// (clamped to a valid probability) and the flash-crowd multiplier
    /// interpolated between `1.0` and its configured value — the knob the
    /// `overload_resilience` benchmark sweeps. `0.0` yields a plan that
    /// never changes anything.
    pub fn scaled(&self, intensity: f64) -> OverloadConfig {
        let p = |base: f64| (base * intensity).min(1.0);
        OverloadConfig {
            flash_crowd: self.flash_crowd.as_ref().map(|f| FlashCrowdConfig {
                rate_multiplier: (1.0 + (f.rate_multiplier - 1.0) * intensity).max(1.0),
                ..f.clone()
            }),
            hot_pairs: self.hot_pairs.as_ref().map(|h| HotPairsConfig {
                fraction: p(h.fraction),
            }),
            drain: self.drain.as_ref().map(|d| DrainConfig {
                fraction: p(d.fraction),
            }),
            griefing: self.griefing.as_ref().map(|g| GriefingConfig {
                fraction: p(g.fraction),
                ..g.clone()
            }),
            horizon_secs: self.horizon_secs,
        }
    }

    /// Validates parameter sanity; a config that passes generates and
    /// warps arrival times without panicking.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| Err(SpiderError::InvalidConfig(msg.into()));
        if let Some(f) = &self.flash_crowd {
            if !(f.start_secs >= 0.0 && f.duration_secs > 0.0) {
                return bad("flash crowd window must be non-negative and non-empty");
            }
            check::non_negative("the flash-crowd multiplier over 1", f.rate_multiplier - 1.0)?;
        }
        if let Some(h) = &self.hot_pairs {
            check::fraction("the hot-pair fraction", h.fraction)?;
        }
        if let Some(d) = &self.drain {
            check::fraction("the drain fraction", d.fraction)?;
        }
        if let Some(g) = &self.griefing {
            check::fraction("the griefing fraction", g.fraction)?;
            check::positive("the griefing hold", g.hold_secs)?;
        }
        check::positive("the overload horizon", self.horizon_secs)
    }
}

/// A directed (src, dst) demand pair targeted by an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TargetPair {
    /// Paying node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

/// A generated, deterministic overload plan: the targeted pairs, the
/// flash window, and the seeds of the two runtime draw streams.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverloadPlan {
    /// Flash window start (seconds); `f64::INFINITY` disables the warp.
    pub flash_start: f64,
    /// Flash window end (seconds).
    pub flash_end: f64,
    /// Rate multiplier inside the window (`1.0` = identity warp).
    pub flash_multiplier: f64,
    /// The Zipf-weighted hot pairs (distinct src ≠ dst).
    pub hot_pairs: Vec<TargetPair>,
    /// Cumulative Zipf weights over `hot_pairs` (last entry = 1.0).
    pub hot_cdf: Vec<f64>,
    /// Fraction of transactions redirected onto the hot set.
    pub hot_fraction: f64,
    /// The one-way drain flows (distinct src ≠ dst).
    pub drain_pairs: Vec<TargetPair>,
    /// Fraction of transactions redirected onto the drain flows.
    pub drain_fraction: f64,
    /// Per-payment griefing probability the engine draws against.
    pub griefing_prob: f64,
    /// How long a hop holds a griefing unit before the sender-side
    /// timeout refunds it.
    pub griefing_hold: SimDuration,
    /// Seed of the workload-transform draw stream (hot/drain redirects).
    pub transform_seed: u64,
    /// Seed of the engine's runtime draw stream (per-payment griefing).
    pub runtime_seed: u64,
}

impl OverloadPlan {
    /// Generates the deterministic plan for `topo` under `cfg`, drawing
    /// every random choice from `rng`. The same (topology, config, rng
    /// state) always yields the same plan.
    pub fn generate(topo: &Topology, cfg: &OverloadConfig, rng: &mut DetRng) -> Result<Self> {
        cfg.validate()?;
        let n_nodes = topo.node_count();
        if n_nodes < 2 {
            return Err(SpiderError::InvalidConfig(
                "overload plan needs at least 2 nodes".into(),
            ));
        }
        let draw_pairs = |rng: &mut DetRng, count: usize| -> Vec<TargetPair> {
            (0..count)
                .map(|_| {
                    let src = rng.index(n_nodes);
                    let mut dst = rng.index(n_nodes);
                    while dst == src {
                        dst = rng.index(n_nodes);
                    }
                    TargetPair {
                        src: NodeId::from_index(src),
                        dst: NodeId::from_index(dst),
                    }
                })
                .collect()
        };

        let (flash_start, flash_end, flash_multiplier) = match &cfg.flash_crowd {
            Some(f) => {
                let start = f.start_secs.min(cfg.horizon_secs);
                let end = (start + f.duration_secs).min(cfg.horizon_secs);
                (start, end, f.rate_multiplier)
            }
            None => (f64::INFINITY, f64::INFINITY, 1.0),
        };

        let mut hot_rng = rng.fork("hot");
        let (hot_pairs, hot_cdf, hot_fraction) = match &cfg.hot_pairs {
            Some(h) => {
                let pairs = draw_pairs(&mut hot_rng, HOT_PAIRS);
                // Zipf weights w_i = 1/(i+1)^s, normalized to a CDF.
                let weights: Vec<f64> = (0..pairs.len())
                    .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_EXPONENT))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf: Vec<f64> = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                (pairs, cdf, h.fraction)
            }
            None => (Vec::new(), Vec::new(), 0.0),
        };

        let mut drain_rng = rng.fork("drain");
        let (drain_pairs, drain_fraction) = match &cfg.drain {
            Some(d) => (draw_pairs(&mut drain_rng, DRAIN_FLOWS), d.fraction),
            None => (Vec::new(), 0.0),
        };

        let (griefing_prob, griefing_hold) = match &cfg.griefing {
            Some(g) => (g.fraction, SimDuration::from_secs_f64(g.hold_secs)),
            None => (0.0, SimDuration::from_secs(1)),
        };

        Ok(OverloadPlan {
            flash_start,
            flash_end,
            flash_multiplier,
            hot_pairs,
            hot_cdf,
            hot_fraction,
            drain_pairs,
            drain_fraction,
            griefing_prob,
            griefing_hold,
            transform_seed: rng.fork("transform").seed(),
            runtime_seed: rng.fork("runtime").seed(),
        })
    }

    /// True when the plan can never change anything: identity time warp,
    /// zero redirect fractions, zero griefing. The engine and workload
    /// transform still run for a quiet plan (draws happen on independent
    /// streams), but `chance(0.0)` never fires and the warp is the
    /// identity, so outcomes match an overload-free run.
    pub fn is_quiet(&self) -> bool {
        self.flash_multiplier == 1.0
            && self.hot_fraction == 0.0
            && self.drain_fraction == 0.0
            && self.griefing_prob == 0.0
    }

    /// The flash-crowd time warp: a monotone, order-preserving map of
    /// arrival seconds. Arrivals originally in
    /// `[start, start + (end − start) · m)` are compressed into
    /// `[start, end)` (an m× rate inside the window); later arrivals
    /// shift earlier by the compressed slack. Identity when the
    /// multiplier is `1.0` or the window is unreachable.
    pub fn warp_secs(&self, t: f64) -> f64 {
        let (s, e, m) = (self.flash_start, self.flash_end, self.flash_multiplier);
        if m <= 1.0 || !s.is_finite() || e <= s || t < s {
            return t;
        }
        let span = e - s;
        if t < s + span * m {
            s + (t - s) / m
        } else {
            t - span * (m - 1.0)
        }
    }

    /// The hot/drain redirect for one transaction, drawing from `rng`
    /// (seed it with [`OverloadPlan::transform_seed`]). Draw order is
    /// fixed — hot chance, hot index, drain chance, drain index — and a
    /// drain hit overrides a hot hit. With both fractions zero the input
    /// pair is returned untouched (no draw ever fires).
    pub fn transform_pair(&self, src: NodeId, dst: NodeId, rng: &mut DetRng) -> (NodeId, NodeId) {
        let mut out = (src, dst);
        if !self.hot_pairs.is_empty() && rng.chance(self.hot_fraction) {
            let u = rng.uniform();
            let i = self
                .hot_cdf
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(self.hot_cdf.len() - 1);
            out = (self.hot_pairs[i].src, self.hot_pairs[i].dst);
        }
        if !self.drain_pairs.is_empty() && rng.chance(self.drain_fraction) {
            let p = self.drain_pairs[rng.index(self.drain_pairs.len())];
            out = (p.src, p.dst);
        }
        out
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

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let cfg = OverloadConfig::default();
        let a = OverloadPlan::generate(&t, &cfg, &mut DetRng::new(7)).unwrap();
        let b = OverloadPlan::generate(&t, &cfg, &mut DetRng::new(7)).unwrap();
        assert_eq!(a, b);
        let c = OverloadPlan::generate(&t, &cfg, &mut DetRng::new(8)).unwrap();
        assert_ne!(a, c, "different seeds must differ");
        // Targeted pairs are valid and directed src != dst.
        for p in a.hot_pairs.iter().chain(&a.drain_pairs) {
            assert!(p.src.index() < t.node_count());
            assert!(p.dst.index() < t.node_count());
            assert_ne!(p.src, p.dst);
        }
        // The Zipf CDF is monotone and ends at 1.
        for w in a.hot_cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((a.hot_cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intensity_scales_the_attack() {
        let t = topo();
        let base = OverloadConfig::default();
        let quiet = OverloadPlan::generate(&t, &base.scaled(0.0), &mut DetRng::new(5)).unwrap();
        assert!(quiet.is_quiet(), "zero intensity must be a quiet plan");
        assert_eq!(quiet.flash_multiplier, 1.0);
        let mild = OverloadPlan::generate(&t, &base.scaled(0.5), &mut DetRng::new(5)).unwrap();
        let harsh = OverloadPlan::generate(&t, &base.scaled(2.0), &mut DetRng::new(5)).unwrap();
        assert!(!harsh.is_quiet());
        assert!(harsh.hot_fraction > mild.hot_fraction);
        assert!(harsh.flash_multiplier > mild.flash_multiplier);
        // Scaling clamps fractions to 1.
        let extreme = base.scaled(1e9);
        assert!(extreme.hot_pairs.as_ref().unwrap().fraction <= 1.0);
        assert!(extreme.validate().is_ok());
    }

    #[test]
    fn time_warp_is_monotone_and_compresses_the_window() {
        let t = topo();
        let cfg = OverloadConfig {
            flash_crowd: Some(FlashCrowdConfig {
                start_secs: 5.0,
                duration_secs: 5.0,
                rate_multiplier: 4.0,
            }),
            ..OverloadConfig::default()
        };
        let plan = OverloadPlan::generate(&t, &cfg, &mut DetRng::new(1)).unwrap();
        // Before the window: identity.
        assert_eq!(plan.warp_secs(3.0), 3.0);
        // The base span [5, 25) compresses into [5, 10).
        assert_eq!(plan.warp_secs(5.0), 5.0);
        assert!((plan.warp_secs(25.0) - 10.0).abs() < 1e-12);
        assert!((plan.warp_secs(15.0) - 7.5).abs() < 1e-12);
        // After the compressed span: shifted earlier by the slack (15 s).
        assert!((plan.warp_secs(40.0) - 25.0).abs() < 1e-12);
        // Monotone everywhere.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..400 {
            let w = plan.warp_secs(i as f64 * 0.1);
            assert!(w >= prev, "warp must be monotone");
            prev = w;
        }
        // A quiet plan's warp is the identity.
        let quiet = OverloadPlan::generate(&t, &cfg.scaled(0.0), &mut DetRng::new(1)).unwrap();
        assert_eq!(quiet.warp_secs(15.0), 15.0);
    }

    #[test]
    fn transform_redirects_the_configured_fraction() {
        let t = topo();
        let cfg = OverloadConfig {
            flash_crowd: None,
            hot_pairs: Some(HotPairsConfig { fraction: 0.5 }),
            drain: Some(DrainConfig { fraction: 0.1 }),
            griefing: None,
            ..OverloadConfig::default()
        };
        let plan = OverloadPlan::generate(&t, &cfg, &mut DetRng::new(3)).unwrap();
        let mut rng = DetRng::new(plan.transform_seed);
        let n = 20_000;
        let mut redirected = 0;
        let mut hot_hits = vec![0usize; plan.hot_pairs.len()];
        for i in 0..n {
            let src = NodeId::from_index(i % t.node_count());
            let dst = NodeId::from_index((i + 1) % t.node_count());
            let (s, d) = plan.transform_pair(src, dst, &mut rng);
            if (s, d) != (src, dst) {
                redirected += 1;
            }
            if let Some(k) = plan.hot_pairs.iter().position(|p| p.src == s && p.dst == d) {
                hot_hits[k] += 1;
            }
        }
        let frac = redirected as f64 / n as f64;
        // Hot 0.5 + drain 0.1 (minus overlap/self-hits): a loose band.
        assert!((0.4..0.7).contains(&frac), "redirect fraction {frac}");
        // Zipf skew: the first hot pair dominates the last.
        assert_eq!(hot_hits.len(), HOT_PAIRS);
        assert!(hot_hits[0] > hot_hits[HOT_PAIRS - 1], "{hot_hits:?}");
        // Same seed → same redirects.
        let mut rng2 = DetRng::new(plan.transform_seed);
        let a = plan.transform_pair(NodeId(0), NodeId(1), &mut rng2);
        let mut rng3 = DetRng::new(plan.transform_seed);
        let b = plan.transform_pair(NodeId(0), NodeId(1), &mut rng3);
        assert_eq!(a, b);
    }

    #[test]
    fn quiet_plan_never_changes_a_pair() {
        let t = topo();
        let plan = OverloadPlan::generate(
            &t,
            &OverloadConfig::default().scaled(0.0),
            &mut DetRng::new(9),
        )
        .unwrap();
        let mut rng = DetRng::new(plan.transform_seed);
        for i in 0..1_000 {
            let src = NodeId::from_index(i % t.node_count());
            let dst = NodeId::from_index((i + 3) % t.node_count());
            assert_eq!(plan.transform_pair(src, dst, &mut rng), (src, dst));
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let t = topo();
        for cfg in [
            OverloadConfig {
                flash_crowd: Some(FlashCrowdConfig {
                    rate_multiplier: 0.5,
                    ..FlashCrowdConfig::default()
                }),
                ..OverloadConfig::default()
            },
            OverloadConfig {
                flash_crowd: Some(FlashCrowdConfig {
                    duration_secs: 0.0,
                    ..FlashCrowdConfig::default()
                }),
                ..OverloadConfig::default()
            },
            OverloadConfig {
                hot_pairs: Some(HotPairsConfig { fraction: 1.5 }),
                ..OverloadConfig::default()
            },
            OverloadConfig {
                drain: Some(DrainConfig { fraction: -0.1 }),
                ..OverloadConfig::default()
            },
            OverloadConfig {
                griefing: Some(GriefingConfig {
                    hold_secs: 0.0,
                    ..GriefingConfig::default()
                }),
                ..OverloadConfig::default()
            },
            OverloadConfig {
                horizon_secs: 0.0,
                ..OverloadConfig::default()
            },
        ] {
            assert!(OverloadPlan::generate(&t, &cfg, &mut DetRng::new(0)).is_err());
        }
    }
}
