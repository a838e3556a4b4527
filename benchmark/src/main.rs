//! The benchmark's command line.
//!
//! ```sh
//! # one workload; the last stdout line is the JSON result
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload ripple-fifo-protocol --seed 42 --seconds 20 --trace 0
//! # do two sets of runs agree within the bounds of BENCHMARK.json?
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- agree a.jsonl b.jsonl
//! # print BENCHMARK.json from the bin's own tables
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- schema
//! ```

use spider_benchmark::agree;
use spider_benchmark::alloc::CountingAlloc;
use spider_benchmark::metrics::{benchmark_json, RUN_SECONDS};
use spider_benchmark::runner::run_workload;
use spider_benchmark::workloads::{workload, NAMES};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str =
    "usage: spider-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       spider-benchmark agree <setA.jsonl> <setB.jsonl>
       spider-benchmark schema";

/// Exit code for a usage error, as distinct from a failed check (1).
const USAGE_ERROR: u8 = 2;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    let Some(def) = workload(&args.workload, args.seed, args.smoke) else {
        eprintln!(
            "unknown workload {}; one of: {}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(USAGE_ERROR);
    };
    let result = run_workload(&def, args.seconds, args.trace, &ALLOC);
    if let Some(spans) = &result.spans_json {
        // Best effort: the per-layer table below does not depend on it.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.spans.json", def.name));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if let Some(digest) = result.digest {
        println!("digest {digest}");
    }
    for (m, v) in &result.metrics {
        println!("{:<36} {v:>18.6} {}", m.name, m.unit);
    }
    if result.correct && !result.metrics.is_empty() {
        println!("{}", result.to_json_line());
        ExitCode::SUCCESS
    } else {
        for f in &result.failures {
            eprintln!("FAILED {f}");
        }
        ExitCode::FAILURE
    }
}

fn run_agree(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(USAGE_ERROR);
    };
    let schema = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let load = |what: &str, path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("{what} {}: {e}", path.display()))
    };
    let parsed = load("bounds", &schema)
        .and_then(|text| agree::parse_bounds(&text))
        .and_then(|bounds| {
            let a = agree::parse_set(&load("set", Path::new(a))?)?;
            let b = agree::parse_set(&load("set", Path::new(b))?)?;
            Ok((bounds, a, b))
        });
    let (bounds, a, b) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(USAGE_ERROR);
        }
    };
    let verdicts = agree::compare(&a, &b, &bounds);
    let mut breached = verdicts.is_empty();
    for v in &verdicts {
        println!(
            "{}: worst is {:.0}% of its bound - {}",
            v.workload,
            v.worst.0 * 100.0,
            v.worst.1
        );
        for breach in &v.breaches {
            breached = true;
            println!("  BREACH {breach}");
        }
    }
    if breached {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("agree") => run_agree(&args[1..]),
        Some("schema") => {
            print!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            ExitCode::from(USAGE_ERROR)
        }
        Some(_) => run(&args),
    }
}
