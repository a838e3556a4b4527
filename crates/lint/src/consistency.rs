//! Cross-file exhaustiveness/consistency checks.
//!
//! Several invariants in this workspace span files that the compiler
//! cannot tie together:
//!
//! * every [`DropReason`] variant must be counted by `DropBreakdown`
//!   (`crates/sim/src/metrics.rs`) and rendered by the trace renderers
//!   (`crates/obs/src/trace.rs`, whose `reason_str` feeds both the JSONL
//!   and the Chrome emitter);
//! * `FigureRow`'s field list must match `CSV_HEADER` in
//!   `crates/core/src/output.rs` column for column;
//! * the hotspot table (`crates/obs/src/attribution.rs`): the
//!   `ChannelHotspot` fields, the `HOTSPOT_HEADER` columns, and the
//!   field names its hand-written JSONL renderers emit must all agree;
//! * the forensics artifacts (`crates/obs/src/forensics.rs`):
//!   `DropRecord` ≡ `FORENSICS_HEADER`, `RootCauseRow` ≡
//!   `ROOTCAUSE_HEADER`, the rendered JSONL field names equal the union
//!   of both headers, and every `DropReason` variant is keyed by the
//!   root-cause table (`reason_ord`/`REASONS`).
//!
//! All checks parse tokens/strings only, so they keep working across
//! rustfmt and refactors that preserve the names.

use crate::lexer::{lex, Lexed, TokKind};
use crate::Finding;
use std::collections::BTreeSet;
use std::path::Path;

/// Extracts the variant names of `enum <name>` from tokenized source.
pub fn enum_variants(lx: &Lexed, name: &str) -> Option<Vec<String>> {
    let t = &lx.toks;
    let start = (0..t.len())
        .find(|&i| lx.is_ident(i, "enum") && lx.is_ident(i + 1, name) && lx.is_punct(i + 2, '{'))?;
    let mut variants = Vec::new();
    let mut depth = 1usize;
    let mut expect_name = true;
    let mut i = start + 3;
    while i < t.len() && depth > 0 {
        match (t[i].kind, t[i].text.as_str()) {
            (TokKind::Punct, "{" | "(" | "[") => depth += 1,
            (TokKind::Punct, "}" | ")" | "]") => depth -= 1,
            (TokKind::Punct, ",") if depth == 1 => expect_name = true,
            (TokKind::Ident, v) if depth == 1 && expect_name => {
                variants.push(v.to_string());
                expect_name = false;
            }
            _ => {}
        }
        i += 1;
    }
    Some(variants)
}

/// Extracts the `pub` field names of `struct <name>`, in declaration order.
pub fn struct_pub_fields(lx: &Lexed, name: &str) -> Option<Vec<String>> {
    let t = &lx.toks;
    let start = (0..t.len()).find(|&i| {
        lx.is_ident(i, "struct") && lx.is_ident(i + 1, name) && lx.is_punct(i + 2, '{')
    })?;
    let mut fields = Vec::new();
    let mut depth = 1usize;
    let mut i = start + 3;
    while i < t.len() && depth > 0 {
        match (t[i].kind, t[i].text.as_str()) {
            (TokKind::Punct, "{" | "(" | "[" | "<") => depth += 1,
            (TokKind::Punct, "}" | ")" | "]" | ">") => depth -= 1,
            (TokKind::Ident, "pub")
                if depth == 1
                    && t.get(i + 1).map(|x| x.kind) == Some(TokKind::Ident)
                    && lx.is_punct(i + 2, ':') =>
            {
                fields.push(t[i + 1].text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    Some(fields)
}

/// True when `Enum :: Variant` appears anywhere in the token stream.
pub fn references_variant(lx: &Lexed, enum_name: &str, variant: &str) -> bool {
    let t = &lx.toks;
    (0..t.len()).any(|i| {
        lx.is_ident(i, enum_name)
            && lx.is_punct(i + 1, ':')
            && lx.is_punct(i + 2, ':')
            && lx.is_ident(i + 3, variant)
    })
}

/// Collects every `\"name\":` field name written by a hand-rolled JSONL
/// renderer (the names live inside Rust string literals as escaped
/// `\"name\":` sequences).
pub fn jsonl_field_names(lx: &Lexed) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for tok in &lx.toks {
        if tok.kind != TokKind::Str {
            continue;
        }
        let s = &tok.text;
        let mut from = 0usize;
        while let Some(pos) = s[from..].find("\\\"") {
            let start = from + pos + 2;
            let Some(endq) = s[start..].find("\\\"") else {
                break;
            };
            let name = &s[start..start + endq];
            let after = start + endq + 2;
            if s[after..].starts_with(':')
                && !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                names.insert(name.to_string());
            }
            from = start;
        }
    }
    names
}

/// Paths (workspace-relative) the consistency checks read.
pub const INPUTS: &[&str] = &[
    "crates/types/src/unit.rs",
    "crates/sim/src/metrics.rs",
    "crates/obs/src/trace.rs",
    "crates/core/src/output.rs",
    "crates/obs/src/attribution.rs",
    "crates/obs/src/forensics.rs",
];

/// Runs every cross-file check from the workspace root.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut sources = Vec::new();
    for rel in INPUTS {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => sources.push(s),
            Err(e) => {
                out.push(Finding::new(
                    rel,
                    0,
                    "consistency",
                    format!("cannot read consistency input: {e} — if the file moved, update crates/lint/src/consistency.rs"),
                ));
                return out;
            }
        }
    }
    let [unit_src, metrics_src, trace_src, output_src, attribution_src, forensics_src] =
        &sources[..]
    else {
        unreachable!("sources has INPUTS.len() elements");
    };
    check_sources(
        unit_src,
        metrics_src,
        trace_src,
        output_src,
        attribution_src,
        forensics_src,
        &mut out,
    );
    out
}

/// The file-content core of [`check`], separated for fixture tests.
pub fn check_sources(
    unit_src: &str,
    metrics_src: &str,
    trace_src: &str,
    output_src: &str,
    attribution_src: &str,
    forensics_src: &str,
    out: &mut Vec<Finding>,
) {
    let unit = lex(unit_src);
    let metrics = lex(metrics_src);
    let trace = lex(trace_src);
    let output = lex(output_src);
    let attribution = lex(attribution_src);
    let forensics = lex(forensics_src);

    // DropReason exhaustiveness across the breakdown and the renderers.
    match enum_variants(&unit, "DropReason") {
        None => out.push(Finding::new(
            "crates/types/src/unit.rs",
            0,
            "consistency",
            "enum DropReason not found".to_string(),
        )),
        Some(variants) => {
            for (file, lexed, role) in [
                (
                    "crates/sim/src/metrics.rs",
                    &metrics,
                    "DropBreakdown::count",
                ),
                (
                    "crates/obs/src/trace.rs",
                    &trace,
                    "reason_str (feeds both trace renderers)",
                ),
                (
                    "crates/obs/src/forensics.rs",
                    &forensics,
                    "reason_ord/REASONS (the root-cause table key)",
                ),
            ] {
                for v in &variants {
                    if !references_variant(lexed, "DropReason", v) {
                        out.push(Finding::new(
                            file,
                            0,
                            "consistency",
                            format!("DropReason::{v} is not handled here ({role})"),
                        ));
                    }
                }
            }
        }
    }

    // Struct fields ≡ named header-constant columns, in order, for every
    // (file, struct, header const) artifact schema pair.
    for (file, lexed, struct_name, header_name) in [
        (
            "crates/core/src/output.rs",
            &output,
            "FigureRow",
            "CSV_HEADER",
        ),
        (
            "crates/obs/src/attribution.rs",
            &attribution,
            "ChannelHotspot",
            "HOTSPOT_HEADER",
        ),
        (
            "crates/obs/src/forensics.rs",
            &forensics,
            "DropRecord",
            "FORENSICS_HEADER",
        ),
        (
            "crates/obs/src/forensics.rs",
            &forensics,
            "RootCauseRow",
            "ROOTCAUSE_HEADER",
        ),
    ] {
        let fields = struct_pub_fields(lexed, struct_name);
        let header = const_str(lexed, header_name);
        match (fields, header) {
            (Some(fields), Some(header)) => {
                let cols: Vec<String> = header.split(',').map(str::to_string).collect();
                if fields != cols {
                    out.push(Finding::new(
                        file,
                        0,
                        "consistency",
                        format!(
                            "{struct_name} fields {fields:?} do not match {header_name} columns {cols:?}"
                        ),
                    ));
                }
            }
            _ => out.push(Finding::new(
                file,
                0,
                "consistency",
                format!("{struct_name} struct or {header_name} not found"),
            )),
        }
    }

    // The hand-written JSONL renderers must emit exactly the header
    // columns as field names: attribution's renderers cover
    // HOTSPOT_HEADER, forensics' two renderers cover the union of
    // FORENSICS_HEADER and ROOTCAUSE_HEADER.
    for (file, lexed, header_names) in [
        (
            "crates/obs/src/attribution.rs",
            &attribution,
            &["HOTSPOT_HEADER"][..],
        ),
        (
            "crates/obs/src/forensics.rs",
            &forensics,
            &["FORENSICS_HEADER", "ROOTCAUSE_HEADER"][..],
        ),
    ] {
        let mut want = BTreeSet::new();
        for h in header_names {
            if let Some(header) = const_str(lexed, h) {
                want.extend(header.split(',').map(str::to_string));
            }
        }
        if want.is_empty() {
            // Already reported above as a missing header constant.
            continue;
        }
        let written = jsonl_field_names(lexed);
        for missing in want.difference(&written) {
            out.push(Finding::new(
                file,
                0,
                "consistency",
                format!("header column \"{missing}\" is never written by the JSONL renderer"),
            ));
        }
        for extra in written.difference(&want) {
            out.push(Finding::new(
                file,
                0,
                "consistency",
                format!("JSONL renderer writes field \"{extra}\" that no header declares"),
            ));
        }
    }
}

/// The string literal assigned to `const <name>`.
fn const_str(lx: &Lexed, name: &str) -> Option<String> {
    let t = &lx.toks;
    let i = (0..t.len()).find(|&i| lx.is_ident(i, name))?;
    t[i..]
        .iter()
        .find(|tok| tok.kind == TokKind::Str)
        .map(|tok| tok.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variants_with_payloads() {
        let lx = lex("pub enum E { A, B { x: u32, y: Vec<(u8, u8)> }, C(usize), D }");
        assert_eq!(
            enum_variants(&lx, "E").expect("enum parsed"),
            vec!["A", "B", "C", "D"]
        );
        assert!(enum_variants(&lx, "F").is_none());
    }

    #[test]
    fn struct_fields_in_order() {
        let lx = lex("pub struct R { pub a: String, pub b: f64, c: u64, pub d: Option<f64> }");
        assert_eq!(
            struct_pub_fields(&lx, "R").expect("struct parsed"),
            vec!["a", "b", "d"],
            "non-pub fields are not CSV columns"
        );
    }

    #[test]
    fn variant_references() {
        let lx = lex("match r { E::A => 1, E::B => 2 }");
        assert!(references_variant(&lx, "E", "A"));
        assert!(!references_variant(&lx, "E", "C"));
    }

    #[test]
    fn jsonl_names_from_escaped_literals() {
        let lx = lex(
            r#"fn f() { write!(out, "{{\"t_us\":{},\"channel\":", 1); w(",\"count\":{}}}"); g("\"{col}\":"); }"#,
        );
        let names = jsonl_field_names(&lx);
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            vec!["channel", "count", "t_us"],
            "interpolated-name probes like \\\"{{col}}\\\": must not count"
        );
    }

    /// A consistent set of fixture sources; each drift case below breaks
    /// exactly one of them.
    fn fixtures() -> [&'static str; 6] {
        let unit = "pub enum DropReason { Expired, Lost }";
        let metrics =
            "fn c(r: DropReason) { match r { DropReason::Expired => {}, DropReason::Lost => {} } }";
        let trace = r#"fn r(x: DropReason) -> &'static str { match x { DropReason::Expired => "expired", DropReason::Lost => "lost" } }"#;
        let output =
            "pub struct FigureRow { pub a: u32, pub b: u32 } pub const CSV_HEADER: &str = \"a,b\";";
        let attribution = r#"pub const HOTSPOT_HEADER: &str = "channel,score";
            pub struct ChannelHotspot { pub channel: u32, pub score: f64 }
            fn j() { w("{\"channel\":{},\"score\":{:.6}}"); }"#;
        let forensics = r#"pub const FORENSICS_HEADER: &str = "t_us,reason";
            pub const ROOTCAUSE_HEADER: &str = "reason,count";
            pub struct DropRecord { pub t_us: u64, pub reason: DropReason }
            pub struct RootCauseRow { pub reason: &'static str, pub count: u64 }
            fn o(r: DropReason) -> u8 { match r { DropReason::Expired => 0, DropReason::Lost => 1 } }
            fn j() { w("{\"t_us\":{},\"reason\":\"{}\"}"); w("{\"reason\":\"{}\",\"count\":{}}"); }"#;
        [unit, metrics, trace, output, attribution, forensics]
    }

    fn run_check(srcs: &[&str; 6]) -> Vec<Finding> {
        let mut out = Vec::new();
        check_sources(
            srcs[0], srcs[1], srcs[2], srcs[3], srcs[4], srcs[5], &mut out,
        );
        out
    }

    #[test]
    fn check_sources_cross_validates() {
        let good = fixtures();
        assert!(run_check(&good).is_empty(), "{:?}", run_check(&good));

        // Remove a match arm → exactly that variant is reported.
        let mut bad = good;
        bad[1] = "fn c(r: DropReason) { match r { DropReason::Expired => {}, _ => {} } }";
        let out = run_check(&bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("DropReason::Lost"), "{out:?}");

        // CSV header drift.
        let mut bad = good;
        bad[3] =
            "pub struct FigureRow { pub a: u32, pub b: u32 } pub const CSV_HEADER: &str = \"a\";";
        let out = run_check(&bad);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("CSV_HEADER"), "{out:?}");
    }

    #[test]
    fn check_sources_catches_obs_artifact_drift() {
        let good = fixtures();

        // Hotspot header gains a column the struct and renderer lack.
        let mut bad = good;
        bad[4] = r#"pub const HOTSPOT_HEADER: &str = "channel,score,ghost";
            pub struct ChannelHotspot { pub channel: u32, pub score: f64 }
            fn j() { w("{\"channel\":{},\"score\":{:.6}}"); }"#;
        let out = run_check(&bad);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("HOTSPOT_HEADER"), "{out:?}");
        assert!(out[1].message.contains("never written"), "{out:?}");

        // Forensics renderer writes a field no header declares.
        let mut bad = good;
        bad[5] = r#"pub const FORENSICS_HEADER: &str = "t_us,reason";
            pub const ROOTCAUSE_HEADER: &str = "reason,count";
            pub struct DropRecord { pub t_us: u64, pub reason: DropReason }
            pub struct RootCauseRow { pub reason: &'static str, pub count: u64 }
            fn o(r: DropReason) -> u8 { match r { DropReason::Expired => 0, DropReason::Lost => 1 } }
            fn j() { w("{\"t_us\":{},\"reason\":\"{}\",\"stray\":1}"); w("{\"reason\":\"{}\",\"count\":{}}"); }"#;
        let out = run_check(&bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("stray"), "{out:?}");

        // The root-cause key stops covering a DropReason variant.
        let mut bad = good;
        bad[5] = r#"pub const FORENSICS_HEADER: &str = "t_us,reason";
            pub const ROOTCAUSE_HEADER: &str = "reason,count";
            pub struct DropRecord { pub t_us: u64, pub reason: DropReason }
            pub struct RootCauseRow { pub reason: &'static str, pub count: u64 }
            fn o(r: DropReason) -> u8 { match r { DropReason::Expired => 0, _ => 1 } }
            fn j() { w("{\"t_us\":{},\"reason\":\"{}\"}"); w("{\"reason\":\"{}\",\"count\":{}}"); }"#;
        let out = run_check(&bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("DropReason::Lost"), "{out:?}");
    }
}
