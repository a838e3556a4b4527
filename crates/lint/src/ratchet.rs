//! The panic-site ratchet.
//!
//! Counts `unwrap()` / `.expect()` / `panic!`-family macros per crate and
//! compares against the committed `crates/lint/baseline.toml`. New sites
//! fail the check; removed sites pass but are reported so
//! `--update-baseline` can tighten the floor. `assert!`/`assert_eq!` are
//! deliberately not counted: they state invariants, the ratchet is about
//! *incidental* panic sites. Nor is slice indexing: nobody could act on
//! that count.

use crate::lexer::{Lexed, TokKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Panic-site counts for one crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `.unwrap()` calls.
    pub unwrap: u64,
    /// `.expect(...)` calls.
    pub expect: u64,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` invocations.
    pub panic: u64,
}

impl Counts {
    /// Field access by ratchet category name.
    pub fn get(&self, key: &str) -> u64 {
        match key {
            "unwrap" => self.unwrap,
            "expect" => self.expect,
            "panic" => self.panic,
            _ => 0,
        }
    }

    fn add(&mut self, other: Counts) {
        self.unwrap += other.unwrap;
        self.expect += other.expect;
        self.panic += other.panic;
    }
}

/// The ratchet categories, in baseline/report order.
pub const CATEGORIES: &[&str] = &["unwrap", "expect", "panic"];

/// Counts the panic sites in one tokenized file (test code included: the
/// ratchet tracks the whole crate, and fixture-style `unwrap()`s in tests
/// are exactly what the tightening satellite converts).
pub fn count_file(lx: &Lexed) -> Counts {
    let mut c = Counts::default();
    for (i, tok) in lx.toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let method_call = i >= 1 && lx.is_punct(i - 1, '.') && lx.is_punct(i + 1, '(');
        match tok.text.as_str() {
            "unwrap" if method_call => c.unwrap += 1,
            "expect" if method_call => c.expect += 1,
            "panic" | "unreachable" | "todo" | "unimplemented" if lx.is_punct(i + 1, '!') => {
                c.panic += 1;
            }
            _ => {}
        }
    }
    c
}

/// Per-crate counts, keyed by crate directory name (`crates/<name>`).
pub type CrateCounts = BTreeMap<String, Counts>;

/// Accumulates one file's counts into its crate bucket.
pub fn accumulate(totals: &mut CrateCounts, crate_name: &str, file: Counts) {
    totals.entry(crate_name.to_string()).or_default().add(file);
}

/// Parses the baseline TOML subset: `[crate]` sections with
/// `key = integer` entries, `#` comments, blank lines. Returns an error
/// string for anything else — the file is machine-written, drift means
/// someone edited it by hand.
pub fn parse_baseline(text: &str) -> Result<CrateCounts, String> {
    let mut out = CrateCounts::new();
    let mut current: Option<String> = None;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_string();
            out.entry(name.clone()).or_default();
            current = Some(name);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "baseline.toml line {}: expected `key = value`",
                ln + 1
            ));
        };
        let Some(section) = current.as_ref() else {
            return Err(format!(
                "baseline.toml line {}: entry before any [crate] section",
                ln + 1
            ));
        };
        let v: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("baseline.toml line {}: non-integer value", ln + 1))?;
        let entry = out.get_mut(section).expect("section inserted above");
        match key.trim() {
            "unwrap" => entry.unwrap = v,
            "expect" => entry.expect = v,
            "panic" => entry.panic = v,
            other => {
                return Err(format!(
                    "baseline.toml line {}: unknown category `{other}`",
                    ln + 1
                ))
            }
        }
    }
    Ok(out)
}

/// Renders counts in the exact format [`parse_baseline`] reads.
pub fn format_baseline(counts: &CrateCounts) -> String {
    let mut out = String::from(
        "# Panic-site ratchet baseline: per-crate counts of unwrap()/expect()/\n\
         # panic-family macro sites. New sites fail `--check`;\n\
         # after removing sites, tighten with:\n\
         #   cargo run -p spider-lint -- --update-baseline\n",
    );
    for (name, c) in counts {
        let _ = write!(
            out,
            "\n[{name}]\nunwrap = {}\nexpect = {}\npanic = {}\n",
            c.unwrap, c.expect, c.panic
        );
    }
    out
}

/// Outcome of comparing current counts against the baseline.
#[derive(Debug, Default)]
pub struct RatchetReport {
    /// `(crate, category, current, baseline)` where current > baseline —
    /// these fail the check.
    pub regressions: Vec<(String, &'static str, u64, u64)>,
    /// `(crate, category, current, baseline)` where current < baseline —
    /// informational; `--update-baseline` locks these in.
    pub improvements: Vec<(String, &'static str, u64, u64)>,
    /// Baseline crates that no longer exist in the tree.
    pub stale: Vec<String>,
}

impl RatchetReport {
    /// True when nothing regressed and the baseline matches the tree.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.stale.is_empty()
    }
}

/// Compares current per-crate counts against the baseline. Crates absent
/// from the baseline ratchet against zero: a brand-new crate must either
/// be panic-free or be consciously admitted via `--update-baseline`.
pub fn compare(current: &CrateCounts, baseline: &CrateCounts) -> RatchetReport {
    let mut rep = RatchetReport::default();
    for (name, cur) in current {
        let base = baseline.get(name).copied().unwrap_or_default();
        for &cat in CATEGORIES {
            let (c, b) = (cur.get(cat), base.get(cat));
            if c > b {
                rep.regressions.push((name.clone(), cat, c, b));
            } else if c < b {
                rep.improvements.push((name.clone(), cat, c, b));
            }
        }
    }
    for name in baseline.keys() {
        if !current.contains_key(name) {
            rep.stale.push(name.clone());
        }
    }
    rep
}

/// Renders the per-crate `current/baseline` summary table the CI step
/// prints, one row per crate plus a totals row.
pub fn summary_table(current: &CrateCounts, baseline: &CrateCounts) -> String {
    let mut out = String::from("panic-site ratchet (current/baseline):\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>12} {:>12}",
        "crate", "unwrap", "expect", "panic"
    );
    let mut cur_tot = Counts::default();
    let mut base_tot = Counts::default();
    for (name, cur) in current {
        let base = baseline.get(name).copied().unwrap_or_default();
        cur_tot.add(*cur);
        base_tot.add(base);
        let cell = |cat: &str| format!("{}/{}", cur.get(cat), base.get(cat));
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>12} {:>12}",
            name,
            cell("unwrap"),
            cell("expect"),
            cell("panic")
        );
    }
    let cell = |cat: &str| format!("{}/{}", cur_tot.get(cat), base_tot.get(cat));
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>12} {:>12}",
        "TOTAL",
        cell("unwrap"),
        cell("expect"),
        cell("panic")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn counts_methods_macros_and_indexing() {
        // Index expressions are not panic sites the ratchet counts: the
        // last line adds nothing.
        let src = "fn f(v: Vec<u32>, m: &M) -> u32 {\n\
                   let a = v.get(0).unwrap();\n\
                   let b = m.slot(1).expect(\"slot live\");\n\
                   if *a > 3 { panic!(\"boom\") } else { unreachable!() }\n\
                   v[0] + rows[i][j] + f()[k]\n\
                   }\n";
        let c = count_file(&lex(src));
        assert_eq!(
            c,
            Counts {
                unwrap: 1,
                expect: 1,
                panic: 2,
            }
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_count() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) }";
        let c = count_file(&lex(src));
        assert_eq!(c.unwrap, 0);
        assert_eq!(c.expect, 0);
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = "// has unwrap() and panic! in prose\nfn f() -> &'static str { \"x.unwrap()\" }";
        assert_eq!(count_file(&lex(src)), Counts::default());
    }

    #[test]
    fn baseline_round_trip() {
        let mut counts = CrateCounts::new();
        counts.insert(
            "sim".into(),
            Counts {
                unwrap: 3,
                expect: 14,
                panic: 2,
            },
        );
        counts.insert("types".into(), Counts::default());
        let text = format_baseline(&counts);
        assert_eq!(parse_baseline(&text).expect("round trip parses"), counts);
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(
            parse_baseline("unwrap = 3").is_err(),
            "entry before section"
        );
        assert!(parse_baseline("[sim]\nunwrap = x").is_err(), "non-integer");
        assert!(
            parse_baseline("[sim]\nwat = 3").is_err(),
            "unknown category"
        );
    }

    #[test]
    fn compare_flags_regressions_and_improvements() {
        let mut cur = CrateCounts::new();
        cur.insert(
            "a".into(),
            Counts {
                unwrap: 5,
                expect: 1,
                ..Counts::default()
            },
        );
        let mut base = CrateCounts::new();
        base.insert(
            "a".into(),
            Counts {
                unwrap: 3,
                expect: 2,
                ..Counts::default()
            },
        );
        base.insert("gone".into(), Counts::default());
        let rep = compare(&cur, &base);
        assert_eq!(rep.regressions, vec![("a".to_string(), "unwrap", 5, 3)]);
        assert_eq!(rep.improvements, vec![("a".to_string(), "expect", 1, 2)]);
        assert_eq!(rep.stale, vec!["gone".to_string()]);
        assert!(!rep.ok());
    }

    #[test]
    fn new_crate_ratchets_against_zero() {
        let mut cur = CrateCounts::new();
        cur.insert(
            "fresh".into(),
            Counts {
                unwrap: 1,
                ..Counts::default()
            },
        );
        let rep = compare(&cur, &CrateCounts::new());
        assert_eq!(rep.regressions.len(), 1);
    }
}
