//! The simulator-level figures of §6: the scheme comparison (Fig. 6), the
//! capacity sweep (Fig. 7), the §5 protocol under queueing (Fig. 8) and
//! the three ablations.

use crate::figure::{holds, Body, Check, Claim, Figure, Grid, Point, Rows};
use crate::{both_topologies, isp_experiment, windowed_lineup, Result, Scale};
use spider_core::{ExperimentConfig, SchemeConfig, SweepJob};
use spider_sim::config::RebalancingConfig;
use spider_sim::{QueueConfig, QueueingMode, SchedulingPolicy};
use spider_types::SimDuration;

const SCALES: &[Scale] = &[Scale::Default, Scale::Full];
/// Per-channel capacity (XRP) of the headline comparison.
const CAPACITY_XRP: u64 = 30_000;
const BOTH: [&str; 2] = ["isp", "ripple"];

/// `leader`'s success ratio is at or above every one of `others`' under
/// `<figure>-<topology>` for each topology; the margin is the smallest
/// lead, in points.
fn leads(d: &Rows, figure: &str, topologies: &[&str], leader: &str, others: &[&str]) -> Check {
    let mut margin = f64::INFINITY;
    for topology in topologies {
        let experiment = format!("{figure}-{topology}");
        let lead = d.scheme(&experiment, leader)?.success_ratio_pct;
        for other in others {
            margin = margin.min(lead - d.scheme(&experiment, other)?.success_ratio_pct);
        }
    }
    holds(margin, || {
        format!("{leader} trails one of {others:?} by {:.1} pt", -margin)
    })
}

/// Fig. 6 — "Comparison of payments completed across schemes on the ISP
/// and Ripple topologies when the capacity per link is 30,000": success
/// ratio and success volume for the six schemes on both topologies.
pub const FIG6_SUCCESS: Figure = Figure {
    name: "fig6_success",
    paper_ref: "§6.2, Fig. 6",
    about: "six schemes × {ISP, Ripple-like} at 30,000 XRP: success ratio and volume",
    scales: SCALES,
    body: Body::Sweep {
        grid: fig6_grid,
        claims: &[
            Claim::new(
                "Spider (Waterfilling) ≥ shortest-path, SilentWhispers, SpeedyMurmurs (success ratio)",
                |d| {
                    let others = ["shortest-path", "silentwhispers", "speedymurmurs"];
                    leads(d, "fig6", &BOTH, "spider-waterfilling", &others)
                },
            ),
            Claim::new(
                "max-flow ≥ shortest-path, SilentWhispers, SpeedyMurmurs (success ratio)",
                |d| {
                    let others = ["shortest-path", "silentwhispers", "speedymurmurs"];
                    leads(d, "fig6", &BOTH, "max-flow", &others)
                },
            ),
            Claim::new(
                "Spider (LP) success volume pins within 1 pt of the demand's circulation share",
                |d| {
                    let mut margin = f64::INFINITY;
                    for experiment in ["fig6-isp", "fig6-ripple"] {
                        let volume = d.scheme(experiment, "spider-lp")?.success_volume_pct;
                        let off = (volume - d.circulation_pct(experiment)?).abs();
                        margin = margin.min(1.0 - off);
                    }
                    holds(margin, || format!("off by {:.2} pt", 1.0 - margin))
                },
            ),
        ],
    },
};

fn fig6_grid(scale: Scale, seed: u64) -> Result<Grid> {
    let mut grid = Grid::default();
    for (label, base) in both_topologies("fig6", CAPACITY_XRP, scale.is_full(), seed) {
        let at = ("capacity_xrp", CAPACITY_XRP as f64);
        let schemes = SchemeConfig::paper_lineup().into_iter();
        grid.points
            .extend(schemes.map(|scheme| Point::of(&label, at, None, scheme, &base)));
        grid.circulation_of.push((label, base));
    }
    Ok(grid)
}

/// Fig. 7 — "Effect of increasing capacity per link on the success
/// metrics when routing payments on the ISP topology": capacity from
/// 10,000 to 100,000 XRP for the six schemes. (Also in the paper, not a
/// claim here: Spider (LP) is the least sensitive to capacity.)
pub const FIG7_CAPACITY_SWEEP: Figure = Figure {
    name: "fig7_capacity_sweep",
    paper_ref: "§6.2, Fig. 7",
    about: "six schemes × six per-channel capacities (10k–100k XRP) on ISP",
    scales: SCALES,
    body: Body::Sweep {
        grid: |scale, seed| {
            let mut points = Vec::new();
            for capacity in [10_000u64, 20_000, 30_000, 50_000, 75_000, 100_000] {
                let base = isp_experiment(capacity, scale.is_full(), seed);
                let at = ("capacity_xrp", capacity as f64);
                let schemes = SchemeConfig::paper_lineup().into_iter();
                points.extend(schemes.map(|scheme| Point::of("fig7-isp", at, None, scheme, &base)));
            }
            Ok(points.into())
        },
        claims: &[Claim::new(
            "success ratio is non-decreasing in per-channel capacity for every scheme",
            |d| {
                let mut margin = f64::INFINITY;
                for scheme in SchemeConfig::paper_lineup() {
                    let curve = d.rows.iter().filter(|r| r.scheme == scheme.name());
                    let ratios: Vec<f64> = curve.map(|r| r.success_ratio_pct).collect();
                    let steps = ratios
                        .iter()
                        .zip(ratios.iter().skip(1))
                        .map(|(lo, hi)| hi - lo);
                    margin = steps.fold(margin, f64::min);
                }
                holds(margin, || {
                    format!("a scheme loses {:.2} pt with more capacity", -margin)
                })
            },
        )],
    },
};

/// §6.2 — "Splitting the payments into transaction units and scheduling
/// them according to SRPT already provides a 10 % increase in success
/// ratio over SpeedyMurmurs and SilentWhispers even for the shortest path
/// routing scheme": packet-switched shortest path against the atomic
/// schemes on ISP, then the pending queue's scheduling policy (SRPT, FIFO,
/// anti-SRPT) with the routing held fixed.
pub const ABLATION_PACKET_SWITCHING: Figure = Figure {
    name: "ablation_packet_switching",
    paper_ref: "§6.2 (packet switching, SRPT)",
    about: "ISP: packet-switched shortest path vs the atomic schemes; SRPT vs FIFO vs anti-SRPT",
    scales: SCALES,
    body: Body::Sweep {
        grid: packet_switching_grid,
        claims: &[
            Claim::new(
                // The paper's lift is ≈ +10 pt; this workload gives ≈ +5.
                "packet-switched shortest path beats the best atomic scheme on ISP (success ratio)",
                |d| {
                    leads(
                        d,
                        "ablation",
                        &["transport"],
                        "shortest-path",
                        &["silentwhispers", "speedymurmurs"],
                    )
                },
            ),
            Claim::new(
                // 13.1 / 10.0 / 8.7 pt on seeds 42 / 7 / 1.
                "SRPT beats FIFO by at least 5 pt (success ratio)",
                |d| policy_lead(d, "srpt", "fifo", 5.0),
            ),
            Claim::new(
                // 4.3 / 4.3 / 4.0 pt on seeds 42 / 7 / 1.
                "FIFO beats anti-SRPT by at least 2 pt (success ratio)",
                |d| policy_lead(d, "fifo", "anti-srpt", 2.0),
            ),
        ],
    },
};

/// Under shortest path, the `leader` scheduling policy's success ratio
/// exceeds `other`'s by at least `pt` points; the margin is the excess.
fn policy_lead(d: &Rows, leader: &str, other: &str, pt: f64) -> Check {
    let ratio = |policy| {
        let row = d.scheme("ablation-sched", &format!("shortest-path/{policy}"));
        row.map(|r| r.success_ratio_pct)
    };
    let lead = ratio(leader)? - ratio(other)?;
    holds(lead - pt, || {
        format!("{leader} leads {other} by {lead:.2} pt, not {pt}")
    })
}

fn packet_switching_grid(scale: Scale, seed: u64) -> Result<Grid> {
    let base = isp_experiment(CAPACITY_XRP, scale.is_full(), seed);
    let transport = |packet_switched, scheme| {
        let at = ("packet_switched", packet_switched);
        Point::of("ablation-transport", at, None, scheme, &base)
    };
    let mut points = vec![
        transport(1.0, SchemeConfig::ShortestPath),
        transport(0.0, SchemeConfig::SilentWhispers),
        transport(0.0, SchemeConfig::SpeedyMurmurs),
    ];
    for (policy, tag) in [
        (SchedulingPolicy::Srpt, "srpt"),
        (SchedulingPolicy::Fifo, "fifo"),
        (SchedulingPolicy::LargestRemaining, "anti-srpt"),
    ] {
        let mut cfg = base.clone();
        cfg.sim.scheduling = policy;
        let name = Some(format!("shortest-path/{tag}"));
        let scheme = SchemeConfig::ShortestPath;
        points.push(Point::of(
            "ablation-sched",
            ("policy", 0.0),
            name,
            scheme,
            &cfg,
        ));
    }
    Ok(points.into())
}

/// §5.3.1 — "We leave an investigation of the best way to select the
/// paths to future work": Spider (Waterfilling) with k ∈ {1, 2, 4, 8}
/// edge-disjoint paths on ISP (k = 1 is balance-aware shortest path), and
/// Spider (Pricing) at k = 4.
pub const ABLATION_PATH_CHOICE: Figure = Figure {
    name: "ablation_path_choice",
    paper_ref: "§5.3.1 (path selection)",
    about: "ISP at 10,000 XRP: waterfilling over k = 1, 2, 4, 8 paths, pricing at k = 4",
    scales: SCALES,
    body: Body::Sweep {
        grid: |scale, seed| {
            let base = isp_experiment(10_000, scale.is_full(), seed);
            let run =
                |k, name, scheme| Point::of("ablation-paths", ("k", k as f64), name, scheme, &base);
            let mut points = Vec::new();
            for paths in [1, 2, 4, 8] {
                let scheme = SchemeConfig::SpiderWaterfilling { paths };
                points.push(run(paths, Some(format!("waterfilling-k{paths}")), scheme));
            }
            points.push(run(4, None, SchemeConfig::SpiderPricing { paths: 4 }));
            Ok(points.into())
        },
        claims: &[
            Claim::new(
                "waterfilling over k = 4 paths delivers at least k = 1's success volume, less 1 pt",
                |d| {
                    let k4 = d
                        .scheme("ablation-paths", "waterfilling-k4")?
                        .success_volume_pct;
                    let k1 = d
                        .scheme("ablation-paths", "waterfilling-k1")?
                        .success_volume_pct;
                    holds(k4 - k1 + 1.0, || {
                        format!("k = 4 volume {k4:.1} % vs k = 1 {k1:.1} %")
                    })
                },
            ),
            Claim::new(
                "Spider (Pricing) delivers at least waterfilling's success volume at the same k = 4",
                |d| {
                    let pricing = d
                        .scheme("ablation-paths", "spider-pricing")?
                        .success_volume_pct;
                    let k4 = d
                        .scheme("ablation-paths", "waterfilling-k4")?
                        .success_volume_pct;
                    holds(pricing - k4, || {
                        format!("pricing volume {pricing:.1} % vs waterfilling {k4:.1} %")
                    })
                },
            ),
        ],
    },
};

const REBALANCING: &str = "ablation-rebalancing";

/// §5.2.3 in the simulator — a DAG-heavy workload on ISP, swept over how
/// depleted a channel must be before it tops itself up on-chain. Returns
/// diminish (even reverse) at aggressive triggers: many small deposits
/// are wasted — the γ cost-benefit trade-off.
pub const ABLATION_REBALANCING: Figure = Figure {
    name: "ablation_rebalancing",
    paper_ref: "§5.2.3 (on-chain rebalancing)",
    about: "ISP, DAG-heavy demand: waterfilling with no rebalancing vs four on-chain triggers",
    scales: SCALES,
    body: Body::Sweep {
        grid: rebalancing_grid,
        claims: &[
            Claim::new(
                // Prop. 1, modulo the finite-capacity buffer.
                "without rebalancing, success volume stays under the circulation ceiling + 5 pt",
                |d| {
                    let (ceiling, volume) = (d.circulation_pct(REBALANCING)?, no_rebalancing(d)?);
                    let why = || format!("volume {volume:.1} % vs ceiling {ceiling:.1} %");
                    holds(ceiling + 5.0 - volume, why)
                },
            ),
            Claim::new(
                "every rebalancing trigger delivers more volume than no rebalancing",
                |d| {
                    let triggered = d.rows.iter().filter(|r| r.value > 0.0);
                    let least = triggered
                        .map(|r| r.success_volume_pct)
                        .fold(f64::INFINITY, f64::min);
                    let baseline = no_rebalancing(d)?;
                    holds(least - baseline, || {
                        format!("a trigger delivers {least:.1} % ≤ {baseline:.1} %")
                    })
                },
            ),
        ],
    },
};

fn rebalancing_grid(scale: Scale, seed: u64) -> Result<Grid> {
    let mut base = isp_experiment(10_000, scale.is_full(), seed);
    // Strong sender skew → circulation fraction ≈ 0.1.
    base.workload.sender_skew_scale = 2.0;
    let mut grid = Grid::default();
    for trigger in [0.0, 0.05, 0.15, 0.30, 0.45] {
        let mut cfg = base.clone();
        cfg.sim.rebalancing = (trigger > 0.0).then(|| RebalancingConfig {
            check_interval: SimDuration::from_millis(500),
            trigger_fraction: trigger,
            target_fraction: 0.5,
            confirmation_delay: SimDuration::from_secs(5),
        });
        let scheme = SchemeConfig::SpiderWaterfilling { paths: 4 };
        let at = ("trigger_fraction", trigger);
        grid.points
            .push(Point::of(REBALANCING, at, None, scheme, &cfg));
    }
    grid.circulation_of.push((REBALANCING.to_string(), base));
    Ok(grid)
}

fn no_rebalancing(d: &Rows) -> Result<f64, String> {
    let row = d.rows.iter().find(|r| r.value == 0.0);
    let volume = row.map(|r| r.success_volume_pct);
    volume.ok_or_else(|| "no trigger = 0 row".to_string())
}

/// The Fig. 6 experiments under the §5 per-channel router queues.
fn queued(base: &ExperimentConfig) -> ExperimentConfig {
    let mut cfg = base.clone();
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    cfg
}

/// Fig. 8 (this reproduction's extension of the Fig. 6 comparison) — the
/// §5 decentralized protocol under router queueing against the
/// transport-layer baselines ([`windowed_lineup`]) and plain lockstep
/// shortest-path, on the Fig. 6 topologies, identical workload and seed.
/// Queues absorb bursts and marking prevents collapse; the waterfilling
/// window reads live balances, which §5's senders cannot.
pub const FIG8_QUEUE_PROTOCOL: Figure = Figure {
    name: "fig8_queue_protocol",
    paper_ref: "§5 protocol (extends Fig. 6)",
    about: "§5 queue + price + AIMD protocol vs windowed baselines and plain shortest-path",
    scales: SCALES,
    body: Body::Sweep {
        grid: fig8_grid,
        claims: &[
            Claim::new(
                "spider-protocol ≥ shortest-path+window and plain shortest-path (success ratio)",
                |d| {
                    let others = ["shortest-path+window", "shortest-path"];
                    leads(d, "fig8", &BOTH, "spider-protocol", &others)
                },
            ),
            Claim::new(
                "spider-waterfilling+window ≥ spider-protocol (success ratio)",
                |d| {
                    leads(
                        d,
                        "fig8",
                        &BOTH,
                        "spider-waterfilling+window",
                        &["spider-protocol"],
                    )
                },
            ),
        ],
    },
};

fn fig8_grid(scale: Scale, seed: u64) -> Result<Grid> {
    let mut points = Vec::new();
    for (label, base) in both_topologies("fig8", CAPACITY_XRP, scale.is_full(), seed) {
        let scheme = SchemeConfig::ShortestPath;
        let plain = SweepJob::Scheme(ExperimentConfig {
            scheme,
            ..base.clone()
        });
        let lineup = windowed_lineup(&queued(&base)).into_iter();
        points.extend(
            lineup
                .chain([("shortest-path", plain)])
                .map(|(name, job)| Point {
                    experiment: label.clone(),
                    parameter: "capacity_xrp",
                    value: CAPACITY_XRP as f64,
                    scheme: Some(name.to_string()),
                    job,
                }),
        );
    }
    Ok(points.into())
}
