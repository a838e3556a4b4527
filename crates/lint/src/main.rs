//! CLI for spider-lint.
//!
//! ```text
//! cargo run -p spider-lint -- --check            # CI entry point
//! cargo run -p spider-lint -- --update-baseline  # tighten the ratchet
//! ```
//!
//! `--check` exits 0 only when the tree lints clean: no determinism
//! hazards, no serde derive on a generic type, and panic-site counts at
//! or below the committed baseline. The ratchet summary prints on every
//! run so drift stays visible in CI logs.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_update = false;
    let mut root_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {} // the default mode
            "--update-baseline" => mode_update = true,
            "--root" => root_arg = it.next().cloned(),
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                return ExitCode::from(2);
            }
        }
    }
    let start = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot determine working directory: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let Some(root) = spider_lint::find_workspace_root(&start) else {
        eprintln!(
            "no workspace root ([workspace] in Cargo.toml) found above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    if mode_update {
        return match spider_lint::update_baseline(&root) {
            Ok(text) => {
                println!(
                    "wrote {} ({} crates)",
                    spider_lint::BASELINE_PATH,
                    text.lines().filter(|l| l.starts_with('[')).count()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let result = match spider_lint::run_check(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &result.findings {
        println!("{f}");
    }
    print!(
        "{}",
        spider_lint::ratchet::summary_table(&result.counts, &result.baseline)
    );
    for (name, cat, cur, base) in &result.ratchet.regressions {
        println!("RATCHET: crates/{name}: {cat} sites grew {base} -> {cur}; remove them or justify via --update-baseline");
    }
    for name in &result.ratchet.stale {
        println!(
            "RATCHET: baseline lists crate `{name}` that no longer exists; run --update-baseline"
        );
    }
    for (name, cat, cur, base) in &result.ratchet.improvements {
        println!("note: crates/{name}: {cat} sites dropped {base} -> {cur}; run --update-baseline to lock in");
    }

    if result.ok() {
        let n_find = result.findings.len();
        debug_assert_eq!(n_find, 0);
        println!("spider-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "spider-lint: {} finding(s), {} ratchet regression(s)",
            result.findings.len(),
            result.ratchet.regressions.len() + result.ratchet.stale.len()
        );
        ExitCode::FAILURE
    }
}

fn print_usage() {
    println!(
        "spider-lint: workspace determinism static analysis\n\n\
         USAGE:\n  cargo run -p spider-lint -- [--check | --update-baseline] [--root <dir>]\n\n\
         MODES:\n  --check            run all rules + the panic-site ratchet (default)\n  \
         --update-baseline  recount panic sites and rewrite crates/lint/baseline.toml\n\n\
         Suppress a finding with `// lint: allow(<rule>): <why>` on the flagged\n\
         line or in the comment block above it. Rules: unordered-iter,\n\
         float-accum, wall-clock, non-det-rng, generic-derive."
    );
}
