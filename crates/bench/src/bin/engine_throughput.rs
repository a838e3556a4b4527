//! Engine-throughput benchmark: wall-clock cost of the simulation engine
//! itself on the two §6.1 topologies, in both queueing modes.
//!
//! Unlike the figure bins (which care about *routing* quality), this bin
//! measures how fast the event loop chews through a fixed, deterministic
//! workload — the quantity the hot-path work (path interning, slab
//! recycling, analytic waterfilling, bitset path oracles) is judged
//! against. It emits `BENCH_engine.json` with one record per
//! configuration: events/sec, units/sec, wall seconds, peak live
//! events/units and the deterministic outcome counters `spider-report`
//! gates on. Perf claims are judged by the repo benchmark
//! (`BENCHMARK.json`), not by this bin's wall clocks.
//!
//! Full runs finish with an engine **phase breakdown** (calendar pop,
//! routing, forwarding, settlement, churn repair, sampling) measured on
//! separate profiled reruns, so the profiling clocks never touch the
//! timed sections.
//!
//! ```sh
//! cargo run --release -p spider-bench --bin engine_throughput -- --out .
//! # CI smoke (ISP only, short horizon):
//! cargo run --release -p spider-bench --bin engine_throughput -- --quick --out .
//! # payment-lifecycle trace smoke: emit + schema-check both trace formats
//! cargo run --release -p spider-bench --bin engine_throughput -- --trace-smoke --out .
//! # invariant-monitor smoke: monitored run ≡ unmonitored run, bit for bit
//! cargo run --release -p spider-bench --bin engine_throughput -- --monitor-smoke
//! ```

use spider_core::{execute, ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_sim::{
    QueueConfig, QueueingMode, SimConfig, SimReport, Simulation, SizeDistribution, SlabStats,
    StreamingWorkload, WorkloadConfig,
};
use spider_types::{Amount, DetRng, SimDuration};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One measured configuration.
struct BenchCase {
    name: &'static str,
    topology: &'static str,
    mode: &'static str,
    cfg: ExperimentConfig,
    /// Feed the engine a lazy [`StreamingWorkload`] instead of a
    /// materialized transaction list (the paper-scale rows: nothing is
    /// pre-seeded, so `peak_live_events` shows the in-flight bound).
    streaming: bool,
}

/// The measured result of one case.
struct BenchRun {
    case: &'static str,
    topology: &'static str,
    mode: &'static str,
    scheme: String,
    wall_seconds: f64,
    report: SimReport,
    slab: SlabStats,
}

fn isp_base(count: usize, seed: u64) -> ExperimentConfig {
    let rate = 1_000.0;
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 30_000,
        },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs_f64(count as f64 / rate + 1.0),
            mtu: Amount::from_xrp(10),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

fn ripple_base(count: usize, seed: u64) -> ExperimentConfig {
    let rate = 75_000.0 / 85.0;
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes: spider_topology::gen::RIPPLE_NODES,
            capacity_xrp: 30_000,
        },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: spider_topology::gen::RIPPLE_NODES as f64 / 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs_f64(count as f64 / rate + 1.0),
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

fn with_scheme(mut cfg: ExperimentConfig, scheme: SchemeConfig, queued: bool) -> ExperimentConfig {
    cfg.scheme = scheme;
    if queued {
        cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    }
    cfg
}

/// The fixed measurement grid: ISP and the 3,774-node Ripple-like graph,
/// lockstep and per-channel-FIFO queueing, over the schemes that exercise
/// each hot path (cached shortest paths, analytic waterfilling, the §5
/// queue machinery). `--quick` trims to the ISP cases at a short horizon
/// for CI smoke runs.
fn cases(seed: u64, quick: bool) -> Vec<BenchCase> {
    let isp_count = if quick { 3_000 } else { 20_000 };
    let ripple_count = 10_000;
    let mut v = vec![
        BenchCase {
            name: "isp-lockstep-shortest",
            topology: "isp",
            mode: "lockstep",
            cfg: with_scheme(isp_base(isp_count, seed), SchemeConfig::ShortestPath, false),
            streaming: false,
        },
        BenchCase {
            name: "isp-lockstep-waterfilling",
            topology: "isp",
            mode: "lockstep",
            cfg: with_scheme(
                isp_base(isp_count, seed),
                SchemeConfig::SpiderWaterfilling { paths: 4 },
                false,
            ),
            streaming: false,
        },
        BenchCase {
            name: "isp-fifo-protocol",
            topology: "isp",
            mode: "per-channel-fifo",
            cfg: with_scheme(
                isp_base(isp_count, seed),
                SchemeConfig::spider_protocol(4),
                true,
            ),
            streaming: false,
        },
    ];
    if !quick {
        v.push(BenchCase {
            name: "ripple-lockstep-shortest",
            topology: "ripple-3774",
            mode: "lockstep",
            cfg: with_scheme(
                ripple_base(ripple_count, seed),
                SchemeConfig::ShortestPath,
                false,
            ),
            streaming: false,
        });
        v.push(BenchCase {
            name: "ripple-fifo-protocol",
            topology: "ripple-3774",
            mode: "per-channel-fifo",
            cfg: with_scheme(
                ripple_base(ripple_count, seed),
                SchemeConfig::spider_protocol(4),
                true,
            ),
            streaming: false,
        });
        // Paper scale: the full Ripple graph driven for the paper's own
        // 200 s horizon (~176k transactions at 75,000/85 tx/s), arrivals
        // streamed: these rows demonstrate `peak_live_events` staying
        // bounded by in-flight work while the horizon grows 20×.
        let ripple_200s_count = (200.0 * 75_000.0 / 85.0) as usize;
        v.push(BenchCase {
            name: "ripple-200s-lockstep-shortest",
            topology: "ripple-3774",
            mode: "lockstep",
            cfg: with_scheme(
                ripple_base(ripple_200s_count, seed),
                SchemeConfig::ShortestPath,
                false,
            ),
            streaming: true,
        });
        v.push(BenchCase {
            name: "ripple-200s-fifo-protocol",
            topology: "ripple-3774",
            mode: "per-channel-fifo",
            cfg: with_scheme(
                ripple_base(ripple_200s_count, seed),
                SchemeConfig::spider_protocol(4),
                true,
            ),
            streaming: true,
        });
    }
    if quick {
        // The quick grid is CI smoke, not a timing trajectory: turn on
        // channel attribution there so `BENCH_engine.json` carries a
        // hotspot table to exercise `spider-report` against. Full rows
        // stay obs-free.
        for case in &mut v {
            case.cfg.sim.obs.attribution = true;
        }
    }
    v
}

/// Builds everything outside the timed section, then times `sim.run()`.
fn run_case(case: &BenchCase) -> BenchRun {
    let cfg = &case.cfg;
    let mut sim = if case.streaming {
        // Paper-scale rows: hand the engine the lazy generator. The
        // streamed schemes ignore the demand matrix, so nothing needs
        // the materialized list — enforce that, or a future
        // demand-dependent streaming case would silently solve over an
        // all-zero matrix.
        assert!(
            !matches!(cfg.scheme, SchemeConfig::SpiderLp { .. }),
            "streaming cases cannot use demand-dependent schemes ({}): \
             the demand matrix is left empty",
            cfg.scheme.name(),
        );
        let rng = DetRng::new(cfg.seed);
        let topo = cfg.topology.build(&rng).expect("topology builds");
        let stream = StreamingWorkload::new(
            topo.node_count(),
            cfg.workload.clone(),
            rng.fork("workload"),
        );
        let demands = spider_paygraph::PaymentGraph::new(topo.node_count());
        let router = cfg
            .scheme
            .build(&topo, &demands, cfg.sim.confirmation_delay.as_secs_f64());
        Simulation::new(topo, stream, router, cfg.effective_sim()).expect("simulation builds")
    } else {
        cfg.simulation(None).expect("simulation builds")
    };
    let t0 = Instant::now();
    let report = sim.run();
    let wall_seconds = t0.elapsed().as_secs_f64();
    sim.check_conservation();
    BenchRun {
        case: case.name,
        topology: case.topology,
        mode: case.mode,
        scheme: report.scheme.clone(),
        wall_seconds,
        slab: sim.slab_stats(),
        report,
    }
}

/// Units the engine processed: lock attempts in lockstep mode, units
/// accepted for forwarding in queueing mode (`units_failed` is not added
/// there — it mixes ingress rejections with mid-path drops of units
/// already counted by `units_injected`).
fn units_processed(r: &BenchRun) -> u64 {
    match r.mode {
        "lockstep" => r.report.units_locked + r.report.units_failed,
        _ => r.slab.units_injected,
    }
}

fn json_record(r: &BenchRun) -> String {
    let events_per_sec = r.slab.events_executed as f64 / r.wall_seconds.max(1e-9);
    let units_per_sec = units_processed(r) as f64 / r.wall_seconds.max(1e-9);
    let mut s = String::new();
    write!(
        s,
        "{{\"config\":\"{}\",\"topology\":\"{}\",\"mode\":\"{}\",\"scheme\":\"{}\",\
         \"wall_seconds\":{:.4},\"events_executed\":{},\"events_per_sec\":{:.0},\
         \"units_processed\":{},\"units_per_sec\":{:.0},\
         \"peak_live_events\":{},\"peak_live_units\":{},\"interned_paths\":{},\
         \"attempted_payments\":{},\"completed_payments\":{},\"delivered_drops\":{},\
         \"units_locked\":{},\"units_failed\":{},\"units_dropped\":{},\"retries\":{}",
        r.case,
        r.topology,
        r.mode,
        r.scheme,
        r.wall_seconds,
        r.slab.events_executed,
        events_per_sec,
        units_processed(r),
        units_per_sec,
        r.slab.peak_live_events,
        r.slab.peak_live_units,
        r.slab.interned_paths,
        r.report.attempted_payments,
        r.report.completed_payments,
        r.report.delivered_volume.drops(),
        r.report.units_locked,
        r.report.units_failed,
        r.report.units_dropped,
        r.report.retries,
    )
    .expect("write to string");
    // Completion-latency percentiles from the report histogram (null when
    // nothing completed), the per-reason drop breakdown, and the channel
    // hotspot table (empty unless `obs.attribution` ran — the quick grid).
    let pct = |p: f64| {
        r.report
            .latency_hist
            .percentile(p)
            .map(|v| format!("{v:.6}"))
            .unwrap_or_else(|| "null".to_string())
    };
    let d = &r.report.drops_by_reason;
    write!(
        s,
        ",\"latency_p50_s\":{},\"latency_p99_s\":{},\
         \"drops_queue_timeout\":{},\"drops_queue_overflow\":{},\"drops_expired\":{},\
         \"drops_channel_closed\":{},\"drops_message_lost\":{},\"drops_hop_timeout\":{},\
         \"drops_node_crashed\":{},\"drops_shed\":{},\"drops_admission_rejected\":{},\
         \"hotspots\":{}}}",
        pct(50.0),
        pct(99.0),
        d.queue_timeout,
        d.queue_overflow,
        d.expired,
        d.channel_closed,
        d.message_lost,
        d.hop_timeout,
        d.node_crashed,
        d.shed,
        d.admission_rejected,
        spider_obs::attribution::hotspots_to_json_array(&r.report.hotspots),
    )
    .expect("write to string");
    s
}

/// `--trace-smoke`: run the quick ISP protocol case with payment
/// tracing on, emit both trace formats, and validate every JSONL line
/// parses with the expected envelope — the CI schema check. The same
/// config is re-run untraced and its outcomes must be bit-identical:
/// observation may cost time, never semantics. With `--full`, the case
/// is the paper-scale ripple-200s §5 protocol run instead (the full
/// 3,774-node graph, ~176k payments) — the acceptance check that
/// tracing survives paper scale; minutes of wall time, not CI material.
fn run_trace_smoke(seed: u64, out_dir: &PathBuf, full: bool) {
    let cfg = if full {
        let count = (200.0 * 75_000.0 / 85.0) as usize;
        with_scheme(
            ripple_base(count, seed),
            SchemeConfig::spider_protocol(4),
            true,
        )
    } else {
        with_scheme(
            isp_base(3_000, seed),
            SchemeConfig::spider_protocol(4),
            true,
        )
    };
    // The traced run also switches on channel attribution and the drop
    // flight recorder, so these asserts prove the *whole* observability
    // stack observes without perturbing: traced+attributed+forensics
    // outcomes must be bit-identical to the bare run.
    let mut ocfg = cfg.clone();
    ocfg.sim.obs.trace = true;
    ocfg.sim.obs.attribution = true;
    ocfg.sim.obs.forensics_capacity = 4_096;
    let observed = execute(ocfg.simulation(None).expect("traced run builds"));
    let (report, trace) = (observed.report, observed.trace.expect("obs.trace is set"));
    let untraced = cfg.run().expect("untraced run");
    assert_eq!(
        report.completed_payments, untraced.completed_payments,
        "tracing changed completion counts"
    );
    assert_eq!(
        report.delivered_volume, untraced.delivered_volume,
        "tracing changed delivered volume"
    );
    assert_eq!(
        report.units_locked, untraced.units_locked,
        "tracing changed unit accounting"
    );
    assert_eq!(
        report.units_dropped, untraced.units_dropped,
        "observability changed drop accounting"
    );
    let jsonl = trace.to_jsonl();
    let mut arrivals = 0u64;
    let mut completes = 0u64;
    for line in jsonl.lines() {
        let v = serde_json::parse(line).expect("trace line is valid JSON");
        let ev = v["ev"].as_str().expect("every line carries an ev tag");
        if ev != "path" {
            v["seq"].as_u64().expect("event lines carry seq");
            v["t_us"].as_u64().expect("event lines carry t_us");
        }
        match ev {
            "arrival" => arrivals += 1,
            "complete" => completes += 1,
            _ => {}
        }
    }
    assert_eq!(
        arrivals, report.attempted_payments,
        "one arrival per payment"
    );
    assert_eq!(
        completes, report.completed_payments,
        "one complete per completion"
    );
    let chrome = trace.to_chrome_trace();
    serde_json::parse(&chrome).expect("chrome trace is valid JSON");
    std::fs::create_dir_all(out_dir).expect("create output directory");
    std::fs::write(out_dir.join("trace_smoke.jsonl"), &jsonl).expect("write trace jsonl");
    std::fs::write(out_dir.join("trace_smoke_chrome.json"), &chrome).expect("write chrome trace");
    eprintln!(
        "trace smoke ok: {} events ({} arrivals, {} completions), wrote {}/trace_smoke{{.jsonl,_chrome.json}}",
        trace.len(),
        arrivals,
        completes,
        out_dir.display()
    );
}

/// `--monitor-smoke`: run the quick ISP §5-protocol case under real
/// overload (a flash crowd past the admission rate, tight queues so
/// shedding actually evicts) twice — once with the runtime invariant
/// monitor auditing at a tight cadence, once with it off — and require
/// the two reports to serialize bit-for-bit identically: the monitor
/// observes conservation, queue accounting and drop bookkeeping, it
/// never steers. Panics (the monitor's own job) or any report delta
/// fail the smoke.
fn run_monitor_smoke(seed: u64) {
    let mut cfg = with_scheme(
        isp_base(3_000, seed),
        SchemeConfig::spider_protocol(4),
        true,
    );
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
        max_queue_units: 64,
        ..QueueConfig::default()
    });
    cfg.sim.shedding = true;
    cfg.sim.admission = Some(spider_sim::AdmissionConfig::default());
    cfg.overload = Some(spider_overload::OverloadConfig {
        flash_crowd: Some(spider_overload::FlashCrowdConfig {
            start_secs: 1.0,
            duration_secs: 1.0,
            rate_multiplier: 4.0,
        }),
        horizon_secs: cfg.sim.horizon.as_secs_f64(),
        ..spider_overload::OverloadConfig::default()
    });
    let mut monitored_cfg = cfg.clone();
    monitored_cfg.sim.obs.invariants_every = 64;
    let monitored = monitored_cfg.run().expect("monitored run");
    let bare = cfg.run().expect("unmonitored run");
    let m = serde_json::to_string(&monitored).expect("report serializes");
    let b = serde_json::to_string(&bare).expect("report serializes");
    assert_eq!(m, b, "the invariant monitor changed the report");
    assert!(
        monitored.drops_by_reason.admission_rejected > 0,
        "monitor smoke never tripped admission control — not auditing overload"
    );
    eprintln!(
        "monitor smoke ok: monitored == unmonitored bit-for-bit \
         ({} payments, {} shed, {} admission-rejected)",
        monitored.attempted_payments,
        monitored.drops_by_reason.shed,
        monitored.drops_by_reason.admission_rejected,
    );
}

fn main() {
    let mut quick = false;
    let mut full = false;
    let mut trace_smoke = false;
    let mut monitor_smoke = false;
    let mut seed = 42u64;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--trace-smoke" => trace_smoke = true,
            "--monitor-smoke" => monitor_smoke = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires an integer");
            }
            "--out" => out_dir = PathBuf::from(args.next().expect("--out requires a path")),
            "--help" | "-h" => {
                eprintln!(
                    "options: --quick  --trace-smoke [--full]  --monitor-smoke  --seed N  --out DIR"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    if trace_smoke {
        run_trace_smoke(seed, &out_dir, full);
        return;
    }
    if monitor_smoke {
        run_monitor_smoke(seed);
        return;
    }
    if full {
        eprintln!("--full only applies to --trace-smoke; the default grid is already full-scale");
        std::process::exit(2);
    }
    let mut records = Vec::new();
    for case in cases(seed, quick) {
        eprintln!("running {}…", case.name);
        let run = run_case(&case);
        eprintln!(
            "  {}: {:.2}s wall, {:.0} events/s, {} events scheduled in {} calendar entries, \
             peak live events {}, peak live units {}",
            run.case,
            run.wall_seconds,
            run.slab.events_executed as f64 / run.wall_seconds.max(1e-9),
            run.slab.events_scheduled,
            run.slab.calendar_entries,
            run.slab.peak_live_events,
            run.slab.peak_live_units,
        );
        records.push(json_record(&run));
    }
    let doc = format!(
        "{{\"bench\":\"engine_throughput\",\"seed\":{seed},\"quick\":{quick},\"runs\":[\n{}\n]}}\n",
        records.join(",\n"),
    );
    print!("{doc}");
    // Phase breakdown, from separate profiled reruns on the quick grid so
    // the profiling clocks never touch the timed sections above.
    eprintln!("engine phase breakdown (profiled rerun, quick grid):");
    for mut case in cases(seed, true) {
        case.cfg.sim.obs.profile = true;
        let run = run_case(&case);
        eprintln!("  {}: {}", run.case, run.report.profile.summary());
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_engine.json");
    std::fs::write(&path, &doc).expect("write BENCH_engine.json");
    eprintln!("wrote {}", path.display());
    // Validate that what we wrote parses (the CI smoke step relies on it).
    serde_json::parse(&doc).expect("BENCH_engine.json is well-formed JSON");
}
