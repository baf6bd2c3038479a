//! Scope-sensitive lint rules migrated onto the structural tree.
//!
//! These two rules used to live in the flat-token lint layer, where
//! "inside the sanctioned seam" could only be expressed as allowlist
//! entries pinned to symbol names. With the item tree the seam is a
//! *function body*, so the rules state their real invariant directly:
//!
//! - **`no-direct-fit`** — in serve-land, the banned fit entry points
//!   may appear only inside the body of the one `fn fit_context` seam.
//! - **`single-construction`** — exactly one production construction
//!   site of `SampleExpectations` (a struct literal outside any item
//!   header) and exactly one production `fn continuation_spec`.

use super::tree::{all_items, ItemKind};
use super::{Finding, SourceFile, Workspace};
use crate::lexer::Kind;

/// Serve-land: the files whose fits must route through the seam.
const SERVE_LAND: [&str; 3] =
    ["crates/core/src/serve", "crates/core/src/sched", "crates/core/src/overload"];

/// The banned direct-fit entry points (plus `PreparedBackend::fit`,
/// matched as a qualified path). Bare `fit` is deliberately not banned:
/// codec fits (`codec.fit(..)`) are a different, uncached contract.
const BANNED_FITS: [&str; 3] = ["from_frozen", "meter", "fit_model"];

/// Token ranges of every non-test `fn fit_context` body in the file,
/// plus the name span of each definition (for the multi-seam check).
fn seam_spans(file: &SourceFile) -> Vec<(usize, usize, usize, usize)> {
    all_items(&file.tree)
        .into_iter()
        .filter(|i| i.kind == ItemKind::Fn && i.name == "fit_context" && !i.cfg_test)
        .filter_map(|i| i.body.map(|(b0, b1)| (b0, b1, i.line, i.col)))
        .collect()
}

/// Flags direct context-fit entry points in serve-land outside the
/// `fit_context` seam. The old flat-token rule could only say "this
/// symbol is banned in this file" and leaned on four allowlist entries
/// to re-admit the seam's own calls; structurally the seam is simply
/// the one function body where the banned names are legal.
pub fn no_direct_fit(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seams_seen = 0usize;
    for file in &ws.files {
        if !SERVE_LAND.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        let seams = seam_spans(file);
        for &(_, _, line, col) in &seams {
            seams_seen += 1;
            if seams_seen > 1 {
                out.push(Finding {
                    path: file.path.clone(),
                    line,
                    col,
                    rule: "no-direct-fit",
                    symbol: "fit_context".to_string(),
                    message: "second `fn fit_context` definition in serve-land: the fit seam \
                              must be unique or cache reuse and cost metering can fork"
                        .to_string(),
                });
            }
        }
        let in_seam = |i: usize| seams.iter().any(|&(b0, b1, _, _)| (b0..b1).contains(&i));
        for (i, t) in file.tokens.iter().enumerate() {
            if file.test_mask[i] || t.kind != Kind::Ident || in_seam(i) {
                continue;
            }
            if BANNED_FITS.contains(&t.text.as_str()) {
                out.push(Finding {
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "no-direct-fit",
                    symbol: t.text.clone(),
                    message: format!(
                        "{} called outside the fit_context seam: every serve-path context fit \
                         must go through fit_context so the cross-batch cache and cost \
                         metering cannot be bypassed",
                        t.text
                    ),
                });
            } else if t.is_ident("PreparedBackend")
                && file.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && file.tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && file.tokens.get(i + 3).is_some_and(|t| t.is_ident("fit"))
            {
                out.push(Finding {
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "no-direct-fit",
                    symbol: "PreparedBackend::fit".to_string(),
                    message: "PreparedBackend::fit called outside the fit_context seam: every \
                              serve-path context fit must go through fit_context so the \
                              cross-batch cache and cost metering cannot be bypassed"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// One production construction site, for the exactly-one rule.
struct ConstructionSite {
    path: String,
    line: usize,
    col: usize,
}

/// Enforces the exactly-one rule structurally: one struct-literal
/// construction of `SampleExpectations` and one `fn continuation_spec`
/// definition in production code across the whole workspace.
///
/// The old flat-token rule guessed at type positions ("is the previous
/// token `struct`/`impl`/`->`"); here a non-constructing mention is
/// simply one inside an item *header* (struct definition, impl header,
/// fn signature), which the tree delimits exactly.
pub fn single_construction(ws: &Workspace) -> Vec<Finding> {
    let mut ctor_sites = Vec::new();
    let mut fn_sites = Vec::new();
    for file in &ws.files {
        // Header ranges: item start up to (not including) its body; the
        // whole item for bodiless ones (`struct Tuple(u8);`, `use ...`).
        let headers: Vec<(usize, usize)> = all_items(&file.tree)
            .into_iter()
            .filter(|i| i.kind != ItemKind::Const && i.kind != ItemKind::Static)
            .map(|i| (i.start, i.body.map_or(i.end, |(b0, _)| b0)))
            .collect();
        let in_header = |i: usize| headers.iter().any(|&(s, e)| (s..e).contains(&i));
        for (i, t) in file.tokens.iter().enumerate() {
            if file.test_mask[i] || t.kind != Kind::Ident {
                continue;
            }
            if t.is_ident("SampleExpectations")
                && file.tokens.get(i + 1).is_some_and(|t| t.is_punct('{'))
                && !in_header(i)
            {
                ctor_sites.push(ConstructionSite {
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
        for item in all_items(&file.tree) {
            if item.kind == ItemKind::Fn && item.name == "continuation_spec" && !item.cfg_test {
                fn_sites.push(ConstructionSite {
                    path: file.path.clone(),
                    line: item.line,
                    col: item.col,
                });
            }
        }
    }
    let mut out = Vec::new();
    for (what, sites) in [("SampleExpectations", ctor_sites), ("continuation_spec", fn_sites)] {
        match sites.len() {
            1 => {}
            0 => out.push(Finding {
                path: "<workspace>".to_string(),
                line: 0,
                col: 0,
                rule: "single-construction",
                symbol: what.to_string(),
                message: format!("no production construction site of {what} found"),
            }),
            n => {
                for s in sites {
                    out.push(Finding {
                        path: s.path,
                        line: s.line,
                        col: s.col,
                        rule: "single-construction",
                        symbol: what.to_string(),
                        message: format!(
                            "{what} constructed in {n} places; the contract must have exactly \
                             one production construction site"
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_fits_are_legal_only_inside_the_fit_context_seam() {
        let ws = Workspace::from_sources(vec![(
            "crates/core/src/serve.rs".to_string(),
            "fn fit_context(s: &Spec) -> Prepared {\n\
                 let b = PreparedBackend::fit(s);\n\
                 b.meter(1)\n\
             }\n\
             fn sidestep(s: &Spec) -> Prepared {\n\
                 let b = PreparedBackend::fit(s);\n\
                 b.from_frozen(2)\n\
             }\n"
            .to_string(),
        )]);
        let findings = no_direct_fit(&ws);
        let got: Vec<(usize, &str)> =
            findings.iter().map(|f| (f.line, f.symbol.as_str())).collect();
        assert_eq!(got, vec![(6, "PreparedBackend::fit"), (7, "from_frozen")], "{findings:?}");
    }

    #[test]
    fn a_second_fit_context_definition_is_itself_a_finding() {
        let ws = Workspace::from_sources(vec![
            (
                "crates/core/src/serve.rs".to_string(),
                "fn fit_context(s: &Spec) -> P { fit_model(s) }".to_string(),
            ),
            (
                "crates/core/src/sched.rs".to_string(),
                "fn fit_context(s: &Spec) -> P { fit_model(s) }".to_string(),
            ),
        ]);
        let findings = no_direct_fit(&ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "crates/core/src/sched.rs");
        assert!(findings[0].message.contains("must be unique"), "{}", findings[0].message);
    }

    #[test]
    fn outside_serve_land_fits_are_fair_game() {
        let ws = Workspace::from_sources(vec![(
            "crates/lm/src/presets.rs".to_string(),
            "fn g() { fit_model(1); }".to_string(),
        )]);
        assert!(no_direct_fit(&ws).is_empty());
    }

    #[test]
    fn construction_counting_distinguishes_definition_from_use() {
        let one = "pub struct SampleExpectations { x: u32 }\n\
                   impl SampleExpectations { fn f() {} }\n\
                   fn mk() -> SampleExpectations {\n\
                       SampleExpectations { x: 1 }\n\
                   }\n\
                   fn continuation_spec() -> u32 { 7 }\n";
        let ws = Workspace::from_sources(vec![("a.rs".to_string(), one.to_string())]);
        assert!(single_construction(&ws).is_empty());

        // A second struct literal (even in another file) flags both
        // sites; a test-only one does not count.
        let ws = Workspace::from_sources(vec![
            ("a.rs".to_string(), one.to_string()),
            (
                "b.rs".to_string(),
                "fn dup() -> SampleExpectations { SampleExpectations { x: 2 } }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { let _ = SampleExpectations { x: 3 }; } }\n"
                    .to_string(),
            ),
        ]);
        let findings = single_construction(&ws);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "single-construction"));
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[1].path, "b.rs");
    }

    #[test]
    fn absence_is_reported_against_the_workspace() {
        let ws = Workspace::from_sources(vec![("a.rs".to_string(), "fn x() {}".to_string())]);
        let findings = single_construction(&ws);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.path == "<workspace>" && f.line == 0));
    }
}
