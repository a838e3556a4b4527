//! Declarative routing-scheme configuration.

use spider_paygraph::PaymentGraph;
use spider_protocol::ProtocolRouter;
use spider_routing::{
    MaxFlow, ShortestPath, SilentWhispers, SpeedyMurmurs, SpiderLp, SpiderWaterfilling,
};
use spider_sim::Router;
use spider_topology::Topology;
use spider_types::{Result, SpiderError};

/// Landmarks of SilentWhispers (the highest-degree nodes).
const LANDMARKS: usize = 3;

/// Spanning trees of SpeedyMurmurs.
const TREES: usize = 3;

/// A routing scheme, as an [`ExperimentConfig`](crate::ExperimentConfig)
/// names it.
#[derive(Debug, Clone, Copy)]
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
    /// Atomic landmark routing over 3 landmarks.
    SilentWhispers,
    /// Atomic embedding routing over 3 spanning trees.
    SpeedyMurmurs,
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
    },
}

impl SchemeConfig {
    /// The §5 protocol scheme over `paths` candidate paths per pair.
    pub fn spider_protocol(paths: usize) -> SchemeConfig {
        SchemeConfig::SpiderProtocol { paths }
    }

    /// The paper's six-scheme lineup (Fig. 6 legend order).
    pub fn paper_lineup() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::SpiderLp { paths: 4 },
            SchemeConfig::SpiderWaterfilling { paths: 4 },
            SchemeConfig::MaxFlow,
            SchemeConfig::ShortestPath,
            SchemeConfig::SilentWhispers,
            SchemeConfig::SpeedyMurmurs,
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
            SchemeConfig::SilentWhispers => "silentwhispers",
            SchemeConfig::SpeedyMurmurs => "speedymurmurs",
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
            | SchemeConfig::SpiderPricing { paths }
            | SchemeConfig::SpiderProtocol { paths } => at_least_one(paths, "path"),
            SchemeConfig::ShortestPath
            | SchemeConfig::MaxFlow
            | SchemeConfig::SilentWhispers
            | SchemeConfig::SpeedyMurmurs => Ok(()),
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
            SchemeConfig::SilentWhispers => Box::new(SilentWhispers::new(topo, LANDMARKS)),
            SchemeConfig::SpeedyMurmurs => Box::new(SpeedyMurmurs::new(topo, TREES)),
            SchemeConfig::SpiderPricing { paths } => {
                Box::new(spider_routing::SpiderPricing::new(paths))
            }
            SchemeConfig::SpiderProtocol { paths } => Box::new(ProtocolRouter::new(paths)),
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
}
