//! `figures <name>… | all [--smoke|--full|--paper-scale] [--seed N]
//! [--out DIR] [--only LABEL]` — runs figures from the registry
//! ([`spider_bench::FIGURES`]), writes their data and checks their
//! claims. Bare `figures` prints the registry.
//!
//! Exit status: 0 = every claim of every figure run holds; 1 = a claim
//! failed or a run errored; 2 = usage error.

use spider_bench::{figure, registry_listing, Figure, Options, Result, Scale, FIGURES};
use std::process::ExitCode;

const USAGE: &str = "usage: figures <name>… | all  [--smoke | --full | --paper-scale]  \
[--seed N]  [--out DIR]  [--only LABEL]
  --smoke / --full / --paper-scale   CI / paper-parameter / paper-measurement scale (default: laptop);
                                     a figure without that scale runs the nearest it defines
  --seed N      master seed (default 42)
  --out DIR     write DIR/<name>.csv and DIR/<name>.jsonl (`all` also writes DIR/REPRODUCTION.json)
  --only LABEL  keep grid points whose experiment label is, or has the dash-separated part, LABEL
                (isp, ripple, protected, …); claims are skipped on a partial grid
  --help";

/// The figures to run, whether that is the whole registry, and how.
type Request = (Vec<&'static Figure>, bool, Options);

/// `Ok(None)` = print the usage and the registry.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Request>, String> {
    let (mut figures, mut all) = (Vec::new(), false);
    let mut opts = Options {
        scale: Scale::Default,
        seed: 42,
        out_dir: None,
        only: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--smoke" => opts.scale = Scale::Smoke,
            "--full" => opts.scale = Scale::Full,
            "--paper-scale" => opts.scale = Scale::Paper,
            "--seed" => {
                opts.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => opts.out_dir = Some(value("a path")?.into()),
            "--only" => opts.only = Some(value("a label")?),
            "--help" | "-h" => return Ok(None),
            "all" => all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            name => figures.push(
                FIGURES
                    .iter()
                    .find(|f| f.name == name)
                    .ok_or(format!("unknown figure {name}"))?,
            ),
        }
    }
    if all {
        figures = FIGURES.iter().collect();
    }
    Ok((!figures.is_empty()).then_some((figures, all, opts)))
}

fn main() -> ExitCode {
    let request = match parse(std::env::args().skip(1)) {
        Ok(Some(request)) => request,
        Ok(None) => {
            println!("{USAGE}\n\n{}", registry_listing());
            return ExitCode::SUCCESS;
        }
        Err(what) => {
            eprintln!("{what}\n{USAGE}\n\n{}", registry_listing());
            return ExitCode::from(2);
        }
    };
    match run_all(request) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("{failed} claim(s) failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the figures; returns how many claims failed. `all --out DIR` also
/// writes `DIR/REPRODUCTION.json`: one record per claim, registry order,
/// no margins (they go to stdout), so the file is byte-stable.
fn run_all((figures, all, opts): Request) -> Result<usize> {
    let (mut failed, mut records) = (0, Vec::new());
    for fig in figures {
        println!("== {} — {}", fig.name, fig.paper_ref);
        for (claim, check) in figure::run(fig, &opts)? {
            if check.is_err() {
                eprintln!("FAILED {}: {claim}", fig.name);
                failed += 1;
            }
            let text = |s: &str| serde_json::to_string(s);
            let (name, paper_ref, claim, pass) = (
                text(fig.name)?,
                text(fig.paper_ref)?,
                text(claim)?,
                check.is_ok(),
            );
            records.push(format!(
                "{{\"figure\":{name},\"paper_ref\":{paper_ref},\"claim\":{claim},\"pass\":{pass}}}"
            ));
        }
    }
    if let (true, Some(dir), None) = (all, &opts.out_dir, &opts.only) {
        std::fs::write(
            dir.join("REPRODUCTION.json"),
            format!("[\n{}\n]\n", records.join(",\n")),
        )?;
        eprintln!("wrote {}/REPRODUCTION.json", dir.display());
    }
    Ok(failed)
}
