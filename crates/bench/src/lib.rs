//! # spider-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§6). Each figure has a dedicated binary:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig4_example` | §5.1 / Fig. 4 — shortest-path (5) vs optimal (8) balanced routing |
//! | `prop1_circulation` | §5.2.2 / Fig. 5 — Proposition 1 bounds |
//! | `fig6_success` | Fig. 6 — success ratio & volume, 6 schemes × {ISP, Ripple} |
//! | `fig7_capacity_sweep` | Fig. 7 — success metrics vs per-channel capacity |
//! | `rebalancing_curve` | §5.2.3 — t(B): throughput vs rebalancing budget |
//! | `primal_dual_convergence` | §5.3 — decentralized algorithm vs LP optimum |
//! | `ablation_packet_switching` | §6.2 — packet switching + SRPT vs atomic delivery |
//! | `fig8_queue_protocol` | §5 protocol under queueing vs transport baselines |
//! | `fig10_queue_dynamics` | Fig. 10 — per-channel queue depths over time |
//! | `engine_throughput` | engine events/sec on a fixed grid; CI's quick-grid outcome gate |
//!
//! Every binary accepts `--full` (paper-scale parameters — slower),
//! `--seed N`, and `--out DIR` (write CSV + JSON-lines there). Defaults are
//! laptop-scale and finish in seconds; the *shape* of results (ordering of
//! schemes, crossovers) is what should match the paper, not absolute
//! numbers — see EXPERIMENTS.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spider_core::output::FigureRow;
use spider_core::{run_sweep, ExperimentConfig, SchemeConfig, SweepJob, TopologyConfig};
use spider_sim::{SimConfig, SimReport, SizeDistribution, WorkloadConfig};
use spider_types::{Amount, SimDuration};
use std::path::PathBuf;

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Paper-scale parameters (200k / 75k transactions, full Ripple size).
    pub full: bool,
    /// The paper's own measurement point: full Ripple topology driven for
    /// a 200 s horizon (implies `full`; bins that support it extend the
    /// Ripple workload from 85 s to 200 s). Enabled by `--paper-scale`.
    pub paper_scale: bool,
    /// CI-smoke scale: tiny workloads that finish in seconds while still
    /// exercising every code path and output schema.
    pub smoke: bool,
    /// Master seed.
    pub seed: u64,
    /// Where to write CSV/JSONL outputs (also printed to stdout).
    pub out_dir: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parses `--full`, `--paper-scale`, `--smoke`, `--seed N`,
    /// `--out DIR` from `std::env::args`.
    pub fn parse() -> Self {
        let mut args = HarnessArgs {
            full: false,
            paper_scale: false,
            smoke: false,
            seed: 42,
            out_dir: None,
        };
        const USAGE: &str = "options: --full  --smoke  --seed N  --out DIR";
        let usage_error = |what: &str| -> ! {
            eprintln!("{what}\n{USAGE}");
            std::process::exit(2)
        };
        let mut iter = std::env::args().skip(1);
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--full" => args.full = true,
                "--paper-scale" => {
                    args.paper_scale = true;
                    args.full = true;
                }
                "--smoke" => args.smoke = true,
                "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                    Some(seed) => args.seed = seed,
                    None => usage_error("--seed requires an integer"),
                },
                "--out" => match iter.next() {
                    Some(dir) => args.out_dir = Some(PathBuf::from(dir)),
                    None => usage_error("--out requires a path"),
                },
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown option {other}")),
            }
        }
        args
    }
}

/// The six-scheme lineup of Fig. 6 / Fig. 7.
pub fn paper_schemes() -> Vec<SchemeConfig> {
    SchemeConfig::paper_lineup()
}

/// The ISP-topology experiment of §6.1 at the given per-channel capacity.
///
/// Full scale: 200,000 transactions at 1,000 tx/s (200 s horizon).
/// Default scale: 20,000 transactions at the same arrival rate, preserving
/// the load-per-capacity operating point while finishing ~10× faster.
pub fn isp_experiment(capacity_xrp: u64, full: bool, seed: u64) -> ExperimentConfig {
    let (count, rate) = if full {
        (200_000, 1_000.0)
    } else {
        (20_000, 1_000.0)
    };
    let horizon = SimDuration::from_secs_f64(count as f64 / rate + 1.0);
    ExperimentConfig {
        topology: TopologyConfig::Isp { capacity_xrp },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleIsp,
            // Calibrated so the demand matrix's circulation fraction is
            // ~0.52 — the paper's Spider (LP) success volume on ISP pins
            // "precisely at the circulation component", 52 %.
            sender_skew_scale: 8.0,
        },
        sim: SimConfig {
            horizon,
            mtu: Amount::from_xrp(10),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath, // overridden per run
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// The Ripple-subgraph experiment of §6.1 at the given capacity.
///
/// Full scale: 3,774 nodes / ~12.5k channels, 75,000 transactions over
/// ~85 s. Default scale: a 400-node Ripple-like graph with the transaction
/// count scaled to keep per-channel load comparable.
pub fn ripple_experiment(capacity_xrp: u64, full: bool, seed: u64) -> ExperimentConfig {
    let (nodes, count, rate) = if full {
        (spider_topology::gen::RIPPLE_NODES, 75_000, 75_000.0 / 85.0)
    } else {
        (400, 8_000, 8_000.0 / 85.0 * 10.0)
    };
    let horizon = SimDuration::from_secs_f64(count as f64 / rate + 1.0);
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes,
            capacity_xrp,
        },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleFull,
            // Calibrated to a circulation fraction of ~0.22-0.29, matching
            // the paper's Ripple-side Spider (LP) success volume of 22 %.
            sender_skew_scale: nodes as f64 / 8.0,
        },
        sim: SimConfig {
            horizon,
            mtu: Amount::from_xrp(20),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// The shared scaffolding of the resilience sweeps (`churn_resilience`,
/// `fault_resilience`, `overload_resilience`): a scheme lineup ×
/// {ISP, Ripple} × intensity grid on the identical workload and seed per
/// topology, fanned through [`run_sweep`] and echoed row-by-row as CSV
/// while collecting [`FigureRow`]s.
pub struct ResilienceSweep<'a> {
    /// Per-topology row labels, e.g. `["churn-isp", "churn-ripple"]`.
    pub labels: [&'a str; 2],
    /// The `FigureRow` parameter column, e.g. `"churn_intensity"`.
    pub parameter: &'a str,
    /// Per-channel capacity (XRP) of both topologies.
    pub capacity_xrp: u64,
    /// The intensity grid of the sweep.
    pub intensities: &'a [f64],
    /// The scheme lineup run at every intensity.
    pub schemes: &'a [SchemeConfig],
}

impl ResilienceSweep<'_> {
    /// Runs the sweep and returns all rows.
    ///
    /// `prepare` tweaks each topology's base experiment (paper-scale
    /// workload extensions, extra knobs) before smoke downsizing;
    /// `scale` derives the experiment for one `(base, intensity)` grid
    /// point (the scheme is overridden afterwards); `detail` prints
    /// per-run diagnostics to stderr.
    pub fn run(
        &self,
        args: &HarnessArgs,
        mut prepare: impl FnMut(&str, &mut ExperimentConfig),
        scale: impl Fn(&ExperimentConfig, f64) -> ExperimentConfig,
        mut detail: impl FnMut(&SimReport, f64),
    ) -> Vec<FigureRow> {
        let mut rows = Vec::new();
        for (label, mut base) in [
            (
                self.labels[0],
                isp_experiment(self.capacity_xrp, args.full, args.seed),
            ),
            (
                self.labels[1],
                ripple_experiment(self.capacity_xrp, args.full, args.seed),
            ),
        ] {
            prepare(label, &mut base);
            if args.smoke {
                // CI scale: a few seconds per topology while still
                // driving every scheme through the real machinery.
                base.workload.count = 800;
                base.sim.horizon =
                    SimDuration::from_secs_f64(800.0 / base.workload.rate_per_sec + 1.0);
                if let TopologyConfig::RippleLike { nodes, .. } = &mut base.topology {
                    *nodes = 120;
                }
            }
            // Phase timings ride along in every row (the profile_*_s
            // JSONL columns); the wall clocks never touch simulated time.
            base.sim.obs.profile = true;
            eprintln!(
                "running {label} ({} txns, {} schemes x {} intensities)…",
                base.workload.count,
                self.schemes.len(),
                self.intensities.len()
            );
            let (base, scale) = (&base, &scale);
            let jobs: Vec<SweepJob> = self
                .intensities
                .iter()
                .flat_map(|&i| {
                    self.schemes.iter().map(move |&scheme| {
                        SweepJob::Scheme(ExperimentConfig {
                            scheme,
                            ..scale(base, i)
                        })
                    })
                })
                .collect();
            let reports = run_sweep(&jobs).expect("experiments run");
            for (j, r) in reports.iter().enumerate() {
                let intensity = self.intensities[j / self.schemes.len()];
                let row = FigureRow::new(label, self.parameter, intensity, r);
                println!("{}", spider_core::output::to_csv_row(&row));
                detail(r, intensity);
                rows.push(row);
            }
        }
        rows
    }
}

/// Prints the table and optionally writes `NAME.csv` / `NAME.jsonl`.
pub fn emit(name: &str, rows: &[FigureRow], out_dir: &Option<PathBuf>) {
    println!("{}", spider_core::output::to_table(rows));
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        std::fs::write(
            dir.join(format!("{name}.csv")),
            spider_core::output::to_csv(rows),
        )
        .expect("write csv");
        std::fs::write(
            dir.join(format!("{name}.jsonl")),
            spider_core::output::to_json_lines(rows),
        )
        .expect("write jsonl");
        eprintln!("wrote {}/{{{name}.csv,{name}.jsonl}}", dir.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builders_scale() {
        let small = isp_experiment(30_000, false, 1);
        let full = isp_experiment(30_000, true, 1);
        assert!(full.workload.count > small.workload.count);
        assert_eq!(small.workload.rate_per_sec, full.workload.rate_per_sec);
        let rs = ripple_experiment(30_000, false, 1);
        let rf = ripple_experiment(30_000, true, 1);
        assert!(matches!(rf.topology, TopologyConfig::RippleLike { nodes, .. } if nodes == 3774));
        assert!(matches!(rs.topology, TopologyConfig::RippleLike { nodes, .. } if nodes == 400));
    }

    #[test]
    fn lineup_is_paper_lineup() {
        assert_eq!(paper_schemes().len(), 6);
    }
}
