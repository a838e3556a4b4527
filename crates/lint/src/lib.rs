//! spider-lint: repo-specific static analysis for the Spider workspace.
//!
//! Everything this reproduction reports — the §5 protocol figures, the
//! churn/fault sweeps, the repo benchmark's digests — rests on
//! bit-exact determinism, pinned by goldens but guarded *statically* by
//! nothing. spider-lint closes that gap with three rule families over a
//! lightweight token stream (no external parser; the environment is
//! offline):
//!
//! 1. **Determinism hazards** ([`rules`]): unordered `HashMap`/`HashSet`
//!    iteration, wall-clock reads outside obs/bench, non-`DetRng`
//!    randomness, float accumulation over hash order.
//! 2. **Panic-site ratchet** ([`ratchet`]): per-crate
//!    unwrap/expect/panic counts against a committed
//!    `baseline.toml`; new sites fail, removals tighten via
//!    `--update-baseline`.
//! 3. **Vendored-shim guard** ([`rules`]): serde derives on generic
//!    types, which the vendored shim cannot expand.
//!
//! Artifact schemas are not linted: each is stated once, and the
//! compiler (exhaustive `DropReason` matches), the unit tests and the
//! goldens hold them.
//!
//! Run as `cargo run -p spider-lint -- --check` (CI does) or
//! `-- --update-baseline` after deliberately removing panic sites.

pub mod lexer;
pub mod ratchet;
pub mod rules;

use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: u32,
    /// Rule identifier.
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(file: &str, line: u32, rule: &str, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        }
    }
}

/// Runs the per-file rules over one source string (fixture-test entry
/// point; `rel_path` drives the path-based allowlists).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    rules::check_file(&rules::FileContext {
        rel_path,
        lexed: &lexed,
    })
}

/// Locates the workspace root by ascending from `start` until a
/// `Cargo.toml` declaring `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Lists every lintable source file under `crates/*/src`, sorted, as
/// `(crate_name, workspace_relative_path)`. `vendor/`, `target/` and the
/// lint fixtures are never visited.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((name.clone(), rel));
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of a full workspace check.
pub struct CheckResult {
    /// All rule findings (determinism, vendored-shim, pragma misuse).
    pub findings: Vec<Finding>,
    /// Current per-crate panic-site counts.
    pub counts: ratchet::CrateCounts,
    /// Ratchet comparison against the committed baseline.
    pub ratchet: ratchet::RatchetReport,
    /// The committed baseline (for the summary table).
    pub baseline: ratchet::CrateCounts,
}

impl CheckResult {
    /// True when the tree lints clean.
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.ratchet.ok()
    }
}

/// Workspace-relative path of the ratchet baseline.
pub const BASELINE_PATH: &str = "crates/lint/baseline.toml";

/// Runs the full check from the workspace root.
pub fn run_check(root: &Path) -> Result<CheckResult, String> {
    let mut findings = Vec::new();
    let mut counts = ratchet::CrateCounts::new();
    let sources =
        workspace_sources(root).map_err(|e| format!("scanning workspace sources: {e}"))?;
    for (crate_name, rel) in &sources {
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let lexed = lexer::lex(&src);
        findings.extend(rules::check_file(&rules::FileContext {
            rel_path: rel,
            lexed: &lexed,
        }));
        ratchet::accumulate(&mut counts, crate_name, ratchet::count_file(&lexed));
    }
    let baseline = match std::fs::read_to_string(root.join(BASELINE_PATH)) {
        Ok(text) => ratchet::parse_baseline(&text)?,
        Err(_) => {
            findings.push(Finding::new(
                BASELINE_PATH,
                0,
                "panic-ratchet",
                "baseline missing — create it with `cargo run -p spider-lint -- --update-baseline`"
                    .to_string(),
            ));
            ratchet::CrateCounts::new()
        }
    };
    let ratchet = ratchet::compare(&counts, &baseline);
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(CheckResult {
        findings,
        counts,
        ratchet,
        baseline,
    })
}

/// Recounts panic sites and rewrites the baseline file. Returns the
/// rendered baseline text.
pub fn update_baseline(root: &Path) -> Result<String, String> {
    let mut counts = ratchet::CrateCounts::new();
    for (crate_name, rel) in
        workspace_sources(root).map_err(|e| format!("scanning workspace sources: {e}"))?
    {
        let src = std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        ratchet::accumulate(
            &mut counts,
            &crate_name,
            ratchet::count_file(&lexer::lex(&src)),
        );
    }
    let text = ratchet::format_baseline(&counts);
    std::fs::write(root.join(BASELINE_PATH), &text)
        .map_err(|e| format!("writing {BASELINE_PATH}: {e}"))?;
    Ok(text)
}
