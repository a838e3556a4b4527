//! Declarative routing-scheme configuration.

use serde::{Deserialize, Serialize};
use spider_paygraph::PaymentGraph;
use spider_protocol::{ProtocolConfig, ProtocolRouter, RateConfig};
use spider_routing::{
    MaxFlow, ShortestPath, SilentWhispers, SpeedyMurmurs, SpiderLp, SpiderWaterfilling,
};
use spider_sim::Router;
use spider_topology::Topology;
use spider_types::{Amount, Result, SpiderError};

/// Overrides for the `spider-protocol` sender tunables (AIMD window steps
/// and price smoothing). Every field is optional; `None` keeps the
/// defaults of [`RateConfig`]/[`ProtocolConfig`], and omitted fields
/// deserialize as `None`, so configs written before these knobs existed
/// keep their meaning.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProtocolTuning {
    /// Initial per-path AIMD window, XRP.
    pub initial_window_xrp: Option<f64>,
    /// Additive window increase per clean delivered ack, XRP.
    pub increase_xrp: Option<f64>,
    /// Multiplicative decrease factor on a marked/failed ack (0 < f < 1).
    pub decrease_factor: Option<f64>,
    /// Window floor, XRP.
    pub min_window_xrp: Option<f64>,
    /// Window ceiling, XRP.
    pub max_window_xrp: Option<f64>,
    /// EWMA weight of each new path-price observation (0 < γ ≤ 1).
    pub price_gamma: Option<f64>,
    /// Price attributed to a dropped unit.
    pub nack_price: Option<f64>,
}

impl ProtocolTuning {
    /// The `spider-protocol` sender configuration with these overrides
    /// applied on top of the defaults.
    pub fn to_config(self) -> ProtocolConfig {
        let mut cfg = ProtocolConfig::default();
        let rate = RateConfig::default();
        let amt =
            |xrp: Option<f64>, default: Amount| xrp.map(Amount::from_xrp_f64).unwrap_or(default);
        cfg.rate = RateConfig {
            initial_window: amt(self.initial_window_xrp, rate.initial_window),
            increase: amt(self.increase_xrp, rate.increase),
            decrease_factor: self.decrease_factor.unwrap_or(rate.decrease_factor),
            min_window: amt(self.min_window_xrp, rate.min_window),
            max_window: amt(self.max_window_xrp, rate.max_window),
        };
        if let Some(g) = self.price_gamma {
            cfg.price_gamma = g;
        }
        if let Some(p) = self.nack_price {
            cfg.nack_price = p;
        }
        cfg
    }
}

/// A routing scheme, as configured in an experiment file.
///
/// (`Eq` ended with the `f64` protocol tunables; `PartialEq` remains for
/// config round-trip checks.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchemeConfig {
    /// Spider (Waterfilling) over `paths` edge-disjoint paths.
    SpiderWaterfilling {
        /// Candidate paths per pair (paper: 4).
        paths: usize,
    },
    /// Spider (LP): offline fluid-LP weights over `paths` disjoint paths.
    SpiderLp {
        /// Candidate paths per pair (paper: 4).
        paths: usize,
    },
    /// Non-atomic shortest-path baseline.
    ShortestPath,
    /// Atomic per-transaction max-flow.
    MaxFlow,
    /// Atomic landmark routing with `landmarks` landmarks.
    SilentWhispers {
        /// Number of landmarks (highest-degree nodes).
        landmarks: usize,
    },
    /// Atomic embedding routing over `trees` spanning trees.
    SpeedyMurmurs {
        /// Number of spanning trees.
        trees: usize,
    },
    /// Spider (Pricing): the §5.3 price feedback as an online
    /// imbalance-aware scheme (this reproduction's extension).
    SpiderPricing {
        /// Candidate paths per pair.
        paths: usize,
    },
    /// The decentralized §5 protocol: router queues, price marking and
    /// per-path AIMD rate control (`spider-protocol`). Experiments select
    /// this together with `QueueingMode::PerChannelFifo`; `ExperimentConfig`
    /// auto-enables default queueing when it is left at `Lockstep`.
    SpiderProtocol {
        /// Candidate edge-disjoint paths per pair (paper: 4).
        paths: usize,
        /// Optional AIMD/price tunable overrides (`None` = defaults).
        tuning: Option<ProtocolTuning>,
    },
}

impl SchemeConfig {
    /// The §5 protocol scheme with default tunables (the common case).
    pub fn spider_protocol(paths: usize) -> SchemeConfig {
        SchemeConfig::SpiderProtocol {
            paths,
            tuning: None,
        }
    }

    /// The paper's six-scheme lineup (Fig. 6 legend order).
    pub fn paper_lineup() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::SpiderLp { paths: 4 },
            SchemeConfig::SpiderWaterfilling { paths: 4 },
            SchemeConfig::MaxFlow,
            SchemeConfig::ShortestPath,
            SchemeConfig::SilentWhispers { landmarks: 3 },
            SchemeConfig::SpeedyMurmurs { trees: 3 },
        ]
    }

    /// The paper lineup plus this reproduction's extensions.
    pub fn extended_lineup() -> Vec<SchemeConfig> {
        let mut v = Self::paper_lineup();
        v.push(SchemeConfig::SpiderPricing { paths: 4 });
        v.push(SchemeConfig::spider_protocol(4));
        v
    }

    /// Scheme name as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeConfig::SpiderWaterfilling { .. } => "spider-waterfilling",
            SchemeConfig::SpiderLp { .. } => "spider-lp",
            SchemeConfig::ShortestPath => "shortest-path",
            SchemeConfig::MaxFlow => "max-flow",
            SchemeConfig::SilentWhispers { .. } => "silentwhispers",
            SchemeConfig::SpeedyMurmurs { .. } => "speedymurmurs",
            SchemeConfig::SpiderPricing { .. } => "spider-pricing",
            SchemeConfig::SpiderProtocol { .. } => "spider-protocol",
        }
    }

    /// Checks what the scheme's router asserts on at construction or on
    /// its first route; a scheme that passes builds and routes without
    /// panicking. A path-based scheme needs at least one path
    /// (`SpiderLp { paths: 0 }` would build, and complete nothing).
    pub fn validate(&self) -> Result<()> {
        let at_least_one = |n: usize, what: &str| {
            if n == 0 {
                let scheme = self.name();
                Err(SpiderError::InvalidConfig(format!(
                    "{scheme} needs at least one {what}"
                )))
            } else {
                Ok(())
            }
        };
        match *self {
            SchemeConfig::SpiderWaterfilling { paths }
            | SchemeConfig::SpiderLp { paths }
            | SchemeConfig::SpiderPricing { paths } => at_least_one(paths, "path"),
            SchemeConfig::SpiderProtocol { paths, tuning } => {
                at_least_one(paths, "path")?;
                tuning.unwrap_or_default().to_config().validate()
            }
            SchemeConfig::SilentWhispers { landmarks } => at_least_one(landmarks, "landmark"),
            SchemeConfig::SpeedyMurmurs { trees } => at_least_one(trees, "tree"),
            SchemeConfig::ShortestPath | SchemeConfig::MaxFlow => Ok(()),
        }
    }

    /// Instantiates the router. `demands` is the long-term demand estimate
    /// (used only by Spider (LP), exactly as in §6.1); `delta_secs` is the
    /// confirmation delay of the fluid model.
    pub fn build(
        &self,
        topo: &Topology,
        demands: &PaymentGraph,
        delta_secs: f64,
    ) -> Box<dyn Router> {
        match *self {
            SchemeConfig::SpiderWaterfilling { paths } => Box::new(SpiderWaterfilling::new(paths)),
            SchemeConfig::SpiderLp { paths } => {
                Box::new(SpiderLp::new(topo, demands, delta_secs, paths))
            }
            SchemeConfig::ShortestPath => Box::new(ShortestPath::new()),
            SchemeConfig::MaxFlow => Box::new(MaxFlow::new()),
            SchemeConfig::SilentWhispers { landmarks } => {
                Box::new(SilentWhispers::new(topo, landmarks))
            }
            SchemeConfig::SpeedyMurmurs { trees } => Box::new(SpeedyMurmurs::new(topo, trees)),
            SchemeConfig::SpiderPricing { paths } => {
                Box::new(spider_routing::SpiderPricing::new(paths))
            }
            SchemeConfig::SpiderProtocol { paths, tuning } => Box::new(match tuning {
                Some(t) => ProtocolRouter::with_config(paths, t.to_config()),
                None => ProtocolRouter::new(paths),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;
    use spider_types::Amount;

    #[test]
    fn lineup_has_six_schemes_with_unique_names() {
        let lineup = SchemeConfig::paper_lineup();
        assert_eq!(lineup.len(), 6);
        let mut names: Vec<&str> = lineup.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn all_schemes_build() {
        let topo = gen::paper_example_topology(Amount::from_xrp(1000));
        let demands = spider_paygraph::examples::paper_example_demands();
        for cfg in SchemeConfig::paper_lineup() {
            let router = cfg.build(&topo, &demands, 0.5);
            assert_eq!(router.name(), cfg.name());
        }
    }

    #[test]
    fn atomicity_flags_match_paper() {
        let topo = gen::paper_example_topology(Amount::from_xrp(1000));
        let demands = spider_paygraph::examples::paper_example_demands();
        let atomic = [false, false, true, false, true, true]; // lineup order
        for (cfg, want) in SchemeConfig::paper_lineup().iter().zip(atomic) {
            assert_eq!(
                cfg.build(&topo, &demands, 0.5).atomic(),
                want,
                "{}",
                cfg.name()
            );
        }
    }

    #[test]
    fn protocol_scheme_builds_and_is_nonatomic() {
        let topo = gen::paper_example_topology(Amount::from_xrp(1000));
        let demands = spider_paygraph::examples::paper_example_demands();
        let cfg = SchemeConfig::spider_protocol(4);
        let router = cfg.build(&topo, &demands, 0.5);
        assert_eq!(router.name(), "spider-protocol");
        assert!(!router.atomic());
    }

    #[test]
    fn serde_round_trip() {
        for cfg in SchemeConfig::extended_lineup() {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: SchemeConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
        }
    }
}
