//! The workspace rules: six per-token bans, plus two scope-sensitive
//! rules that state their seam through the item tree.
//!
//! [`token_rules`] runs the six bans in one pass over every file's
//! non-test tokens (test-only items are masked by the tree's
//! `cfg_test` flags):
//!
//! - **`no-unwrap`** — no `.unwrap()` / `.expect(..)` / `panic!` in
//!   library code. Binary targets (`src/bin/`, `main.rs`) are exempt;
//!   everything else needs an allowlist entry with a written
//!   justification.
//! - **`no-println`** — no `println!` / `eprintln!` in library code:
//!   libraries report through return values and the structured trace
//!   layer (`mc-obs`), never by writing to the process's stdio behind
//!   the caller's back. Binary targets are exempt.
//! - **`no-wallclock`** — no `SystemTime`, `Instant::now` or `thread_rng`
//!   in forecast paths: forecasts are seeded and reproducible, ambient
//!   time or entropy would silently break bit-identical replay.
//! - **`no-direct-sync`** — no `std::sync::Mutex` / `std::sync::Condvar`
//!   outside the `mc-sync` shim: locks taken behind the shim's back are
//!   invisible to the loom model checker, so the concurrency suite would
//!   vouch for code it never explored.
//! - **`no-unbounded-queue`** — no raw `VecDeque` or `std::sync::mpsc`
//!   channel use outside `sched::TaskQueue`: every work queue must flow
//!   through the bounded admission path (capacity cap, shed settlement,
//!   deferred-release backoff), so an ad-hoc queue cannot reintroduce
//!   the unbounded growth the overload layer exists to prevent.
//! - **`no-adhoc-bench`** — inside bench-land (`crates/bench/`,
//!   `crates/spec/`), no direct `ForecastEngine` / `serve_all` /
//!   `serve_all_observed` / `ServeHandle` access. Experiments go through
//!   the `mc-spec` runner — the one allowlisted seam — so every bench
//!   bin stays a thin spec wrapper and its numbers stay comparable.
//!   Binary targets are **not** exempt: the rule exists for them.
//!
//! With the item tree a seam is a *function body*, so the other two
//! rules state their real invariant directly instead of through
//! allowlist entries pinned to symbol names:
//!
//! - **`no-direct-fit`** — in serve-land, the banned fit entry points
//!   may appear only inside the body of the one `fn fit_context` seam.
//! - **`single-construction`** — exactly one production construction
//!   site of `SampleExpectations` (a struct literal outside any item
//!   header) and exactly one production `fn continuation_spec`.
//!
//! Rules report findings; suppression and its justification live in
//! the allowlist file ([`crate::allow`]), never in the rules.

use super::tree::{all_items, matching_in, ItemKind};
use super::{Finding, SourceFile, Workspace};
use crate::lexer::{Kind, Token};

/// Runs the six token rules over every file's non-test tokens. Each
/// rule keys on its own identifiers, so one match per token decides.
pub fn token_rules(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let path = file.path.as_str();
        let in_bin = path.contains("/bin/") || path.ends_with("/main.rs");
        let in_bench_land = path.starts_with("crates/bench/") || path.starts_with("crates/spec/");
        let tokens = &file.tokens;
        let punct_at = |j: usize, c: char| tokens.get(j).is_some_and(|t| t.is_punct(c));
        let mut flag = |t: &Token, rule: &'static str, symbol: &str, message: String| {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule,
                symbol: symbol.to_string(),
                message,
            });
        };
        for (i, t) in tokens.iter().enumerate() {
            if file.test_mask[i] || t.kind != Kind::Ident {
                continue;
            }
            let name = t.text.as_str();
            match name {
                "unwrap" | "expect" if !in_bin && i > 0 && punct_at(i - 1, '.') => flag(
                    t,
                    "no-unwrap",
                    name,
                    format!(".{name}() in library code: return a typed error instead"),
                ),
                "panic" if !in_bin && punct_at(i + 1, '!') => flag(
                    t,
                    "no-unwrap",
                    name,
                    "panic! in library code: return a typed error instead".to_string(),
                ),
                "println" | "eprintln" if !in_bin && punct_at(i + 1, '!') => flag(
                    t,
                    "no-println",
                    name,
                    format!(
                        "{name}! in library code: report through return values or the trace layer"
                    ),
                ),
                "SystemTime" | "thread_rng" => flag(
                    t,
                    "no-wallclock",
                    name,
                    format!("{name}: forecast paths must stay deterministic and seeded"),
                ),
                "Instant" if path_segment_at(tokens, i + 1, "now") => flag(
                    t,
                    "no-wallclock",
                    "Instant::now",
                    "Instant::now: forecast paths must stay deterministic and seeded".to_string(),
                ),
                "std"
                    if path_segment_at(tokens, i + 1, "sync")
                        && punct_at(i + 4, ':')
                        && punct_at(i + 5, ':') =>
                {
                    for lock in std_sync_locks(tokens, i + 6) {
                        flag(
                            lock,
                            "no-direct-sync",
                            &lock.text,
                            format!(
                                "std::sync::{} bypasses the mc-sync shim and hides from the loom \
                                 model checker",
                                lock.text
                            ),
                        );
                    }
                }
                // Any `VecDeque` mention (import, type or constructor —
                // importing one is how ad-hoc queues start) and any
                // `mpsc` path or import.
                "VecDeque" => flag(
                    t,
                    "no-unbounded-queue",
                    name,
                    "raw VecDeque: queues must go through sched::TaskQueue so bounded admission \
                     (capacity cap, shed settlement) cannot be bypassed"
                        .to_string(),
                ),
                "mpsc" => flag(
                    t,
                    "no-unbounded-queue",
                    name,
                    "std::sync::mpsc channel: queues must go through sched::TaskQueue, which the \
                     admission layer bounds and the loom suite models"
                        .to_string(),
                ),
                "ForecastEngine" | "serve_all" | "serve_all_observed" | "ServeHandle"
                    if in_bench_land =>
                {
                    flag(
                        t,
                        "no-adhoc-bench",
                        name,
                        format!(
                            "{name} accessed directly in bench-land: drive the experiment \
                             through the mc-spec runner so the scenario stays declarative and \
                             gated"
                        ),
                    );
                }
                _ => {}
            }
        }
    }
    out
}

/// Whether `::segment` follows at token `i` (a path continuation).
fn path_segment_at(tokens: &[Token], i: usize, segment: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident(segment))
}

/// The `Mutex` / `Condvar` tokens a `std::sync::` path names, given the
/// index just past its `::`: the path's own tail, or every one inside a
/// `use std::sync::{..}` tree.
fn std_sync_locks(tokens: &[Token], after: usize) -> Vec<&Token> {
    let is_lock = |t: &&Token| t.is_ident("Mutex") || t.is_ident("Condvar");
    match tokens.get(after) {
        Some(t) if is_lock(&t) => vec![t],
        Some(t) if t.is_punct('{') => matching_in(tokens, after, tokens.len(), '{', '}')
            .map_or_else(Vec::new, |close| tokens[after..close].iter().filter(is_lock).collect()),
        _ => Vec::new(),
    }
}

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
/// `fit_context` seam. A token ban could only say "this symbol is
/// banned in this file" and would need allowlist entries to re-admit
/// the seam's own calls; structurally the seam is simply the one
/// function body where the banned names are legal.
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
            } else if t.is_ident("PreparedBackend") && path_segment_at(&file.tokens, i + 1, "fit") {
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
/// A token pattern would have to guess at type positions ("is the
/// previous token `struct`/`impl`/`->`"); here a non-constructing
/// mention is simply one inside an item *header* (struct definition,
/// impl header, fn signature), which the tree delimits exactly.
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

    /// Token-rule findings for one file at `path`.
    fn token_findings(path: &str, src: &str) -> Vec<Finding> {
        token_rules(&Workspace::from_sources(vec![(path.to_string(), src.to_string())]))
    }

    fn symbols(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.symbol.as_str()).collect()
    }

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        let src = r#"
            pub fn lib_path(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("fine here"); }
            }
        "#;
        let v = token_findings("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (2, "no-unwrap"));
    }

    #[test]
    fn test_attribute_exempts_only_that_item() {
        let src = r#"
            #[test]
            fn covered() { panic!("ok") }
            fn exposed() { panic!("flagged") }
        "#;
        let v = token_findings("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn use_tree_and_path_forms_of_std_sync_are_flagged() {
        let src =
            "use std::sync::{Arc, Mutex, Condvar};\nfn f() { let _ = std::sync::Mutex::new(()); }";
        let v = token_findings("crates/demo/src/lib.rs", src);
        assert_eq!(symbols(&v), vec!["Mutex", "Condvar", "Mutex"]);
        assert!(v.iter().all(|v| v.rule == "no-direct-sync"));
    }

    #[test]
    fn wallclock_sources_are_flagged() {
        let src = "fn f() { let _ = Instant::now(); let _ = thread_rng(); }\nfn ok() { let _ = Instant::from_nanos; }";
        let v = token_findings("crates/demo/src/lib.rs", src);
        assert_eq!(symbols(&v), vec!["Instant::now", "thread_rng"]);
    }

    #[test]
    fn raw_queue_primitives_are_flagged_in_every_form() {
        let src = "use std::collections::VecDeque;\nfn f() { let q: VecDeque<u32> = VecDeque::new(); let (_t, _r) = std::sync::mpsc::channel::<u8>(); }";
        let v = token_findings("crates/demo/src/lib.rs", src);
        assert_eq!(symbols(&v), vec!["VecDeque", "VecDeque", "VecDeque", "mpsc"]);
        assert!(v.iter().all(|v| v.rule == "no-unbounded-queue"));
        // Tests may build scratch queues.
        let test_src = "#[cfg(test)]\nmod tests { use std::collections::VecDeque; }";
        assert!(token_findings("crates/demo/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn bins_are_exempt_from_unwrap_but_not_determinism() {
        let src = "fn main() { foo().unwrap(); println!(\"x\"); let _ = thread_rng(); }";
        for path in ["src/bin/tool.rs", "crates/xtask/src/main.rs"] {
            let v = token_findings(path, src);
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].rule, "no-wallclock");
        }
    }

    #[test]
    fn adhoc_bench_applies_only_in_bench_land_and_ignores_bin_exemption() {
        let src = "fn main() { let e = ForecastEngine::new(c); let _ = serve_all(&b, &s); }";
        // Bench bins are exactly what the rule polices — no bin exemption.
        let v = token_findings("crates/bench/src/bin/quick.rs", src);
        assert_eq!(symbols(&v), vec!["ForecastEngine", "serve_all"]);
        assert!(v.iter().all(|v| v.rule == "no-adhoc-bench"));
        // The spec crate is in scope too (its runner is allowlisted).
        assert_eq!(token_findings("crates/spec/src/runner.rs", src).len(), 2);
        // Outside bench-land the engine is fair game.
        assert!(token_findings("crates/core/src/engine.rs", src).is_empty());
        assert!(token_findings("crates/tasks/src/lib.rs", src).is_empty());
        // `observe_all` is a different identifier, not a match.
        let near = "fn main() { observe_all(&mut m, &p); }";
        assert!(token_findings("crates/spec/src/scenarios.rs", near).is_empty());
    }

    #[test]
    fn println_in_library_code_is_flagged_but_tests_are_exempt() {
        let src = r#"
            pub fn report() { println!("lib stdout"); }
            pub fn complain() { eprintln!("lib stderr"); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { println!("fine here"); }
            }
        "#;
        let v = token_findings("crates/demo/src/lib.rs", src);
        assert_eq!(symbols(&v), vec!["println", "eprintln"]);
        assert!(v.iter().all(|v| v.rule == "no-println"));
    }

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
