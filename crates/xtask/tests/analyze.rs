//! End-to-end tests for `cargo xtask analyze`.
//!
//! Four layers: the committed workspace must come out clean; the
//! lock-order pass must provably cover every `mc-sync` acquisition site
//! in serve-land (cross-checked against an independent token count);
//! each seeded fixture under `fixtures/` and `fixtures/analyze/` must
//! fail with a span-accurate diagnostic, its test-only items exempt;
//! and the allowlist must suppress exactly what it names and report
//! what it no longer covers, and why.

use std::path::Path;

use xtask::allow::Allowlist;
use xtask::analyze::index::SymbolIndex;
use xtask::analyze::{drift, locks, rules, run_analyze, Finding, Workspace, RULE_NAMES};

const LOCK_CYCLE: &str = include_str!("fixtures/analyze/lock_cycle.rs");
const COUNTER_ROBUST: &str = include_str!("fixtures/analyze/counter_drift_robust.rs");
const COUNTER_EVENT: &str = include_str!("fixtures/analyze/counter_drift_event.rs");
const SPEC_SPEC: &str = include_str!("fixtures/analyze/spec_drift_spec.rs");
const SPEC_BUILDER: &str = include_str!("fixtures/analyze/spec_drift_builder.rs");
const SPAN_SPAN: &str = include_str!("fixtures/analyze/span_drift_span.rs");
const SPAN_EXPORT: &str = include_str!("fixtures/analyze/span_drift_export.rs");
const SPAN_METRICS: &str = include_str!("fixtures/analyze/span_drift_metrics.rs");
const DIRECT_FIT: &str = include_str!("fixtures/direct_fit.rs");
const DUP: &str = include_str!("fixtures/dup_construction.rs");
const UNWRAP: &str = include_str!("fixtures/unwrap_in_lib.rs");
const PRINTLN: &str = include_str!("fixtures/println_in_lib.rs");
const WALLCLOCK: &str = include_str!("fixtures/wallclock.rs");
const SYNC: &str = include_str!("fixtures/direct_sync.rs");
const QUEUE: &str = include_str!("fixtures/unbounded_queue.rs");
const ADHOC: &str = include_str!("fixtures/adhoc_bench.rs");

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files.iter().map(|(p, s)| ((*p).to_string(), (*s).to_string())).collect(),
    )
}

/// 1-based column of the first `pat` on 1-based `line` of `src` — spans
/// are asserted against the fixture text itself, not hand-counted.
fn col(src: &str, line: usize, pat: &str) -> usize {
    src.lines().nth(line - 1).unwrap().find(pat).unwrap() + 1
}

/// Token-rule findings for the fixture `src` checked at `path`.
fn token_findings(path: &str, src: &str) -> Vec<Finding> {
    rules::token_rules(&ws(&[(path, src)]))
}

/// `(rule, symbol, line, col)` quadruples, sorted, for compact assertions.
fn shape(findings: &[Finding]) -> Vec<(&'static str, String, usize, usize)> {
    let mut out: Vec<_> =
        findings.iter().map(|f| (f.rule, f.symbol.clone(), f.line, f.col)).collect();
    out.sort();
    out
}

/// One expected token-rule finding on `line` of `src`, at `pat`.
fn at(
    rule: &'static str,
    symbol: &str,
    src: &str,
    line: usize,
    pat: &str,
) -> (&'static str, String, usize, usize) {
    (rule, symbol.to_string(), line, col(src, line, pat))
}

#[test]
fn the_committed_workspace_is_clean() {
    let allow = std::fs::read_to_string(root().join("mc-lint.allow")).unwrap();
    let report = run_analyze(root(), &allow).unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.files >= 100, "only {} files analyzed", report.files);
    assert_eq!(report.lock_sites, 23, "lock inventory moved; update DESIGN.md §13");
    assert!(report.to_json().contains("\"lock_sites\":23"), "{}", report.to_json());
}

#[test]
fn lock_pass_covers_every_acquisition_site_in_serve_land() {
    let ws = Workspace::load(root()).unwrap();
    let report = locks::check(&ws);
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    let serve_land = [
        "crates/core/src/serve.rs",
        "crates/core/src/sched.rs",
        "crates/core/src/overload.rs",
        "crates/lm/src/cache.rs",
    ];
    let mut covered = 0;
    for path in serve_land {
        let file = ws.file(path).unwrap_or_else(|| panic!("{path} missing"));
        // Independent count of non-test `.lock(` call sites, straight
        // off the token stream with no help from the lock pass.
        let expected = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_ident("lock")
                    && *i > 0
                    && file.tokens[i - 1].is_punct('.')
                    && file.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !file.test_mask[*i]
            })
            .count();
        assert!(expected > 0, "{path} has no acquisition sites — inventory is stale");
        let reported = report.sites.iter().filter(|s| s.path == path).count();
        assert_eq!(reported, expected, "{path}: pass covers {reported} of {expected} sites");
        covered += reported;
    }
    assert_eq!(covered, 19, "serve-land acquisition count moved; re-audit lock order");
    assert_eq!(report.sites.len(), 23, "workspace-wide site count (incl. obs/record.rs)");
}

#[test]
fn seeded_lock_cycle_fails_at_the_reversed_acquisition() {
    let w = ws(&[("crates/core/src/sched.rs", LOCK_CYCLE)]);
    let report = locks::check(&w);
    assert_eq!(report.sites.len(), 4);
    assert_eq!(report.edges.len(), 2);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "lock-order");
    assert_eq!(
        (f.path.as_str(), f.line, f.col),
        ("crates/core/src/sched.rs", 22, col(LOCK_CYCLE, 22, "lock")),
    );
    assert!(
        f.message.contains("lock acquisition cycle: Pair.a -> Pair.b -> Pair.a"),
        "{}",
        f.message
    );
}

#[test]
fn seeded_cycle_without_the_shim_import_also_breaks_the_seam() {
    let outside = LOCK_CYCLE.replace("use mc_sync::Mutex;", "use std::sync::Mutex;");
    let w = ws(&[("crates/core/src/sched.rs", outside.as_str())]);
    let report = locks::check(&w);
    let seam: Vec<_> = report.findings.iter().filter(|f| f.rule == "lock-seam").collect();
    assert_eq!(seam.len(), 4, "one per acquisition site: {:?}", report.findings);
    assert_eq!((seam[0].line, seam[0].col), (15, col(&outside, 15, "lock")));
    assert!(seam[0].message.contains("does not import the mc-sync shim"), "{}", seam[0].message);
    // The cycle is still found — the two passes are independent.
    assert!(report.findings.iter().any(|f| f.message.contains("cycle")), "{:?}", report.findings);
}

#[test]
fn seeded_counter_drift_fails_on_both_sides_of_the_mirror() {
    let w = ws(&[(drift::ROBUST_RS, COUNTER_ROBUST), (drift::EVENT_RS, COUNTER_EVENT)]);
    let findings = drift::counter_drift(&w);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "counter-drift"));

    let mismatch = findings.iter().find(|f| f.symbol == "DEFECT_CLASSES").unwrap();
    assert_eq!(
        (mismatch.path.as_str(), mismatch.line, mismatch.col),
        (drift::EVENT_RS, 6, col(COUNTER_EVENT, 6, "DEFECT_CLASSES")),
    );
    assert!(
        mismatch.message.contains("DEFECT_CLASSES is 1 but DefectClass has 2 variants"),
        "{}",
        mismatch.message
    );

    let missing = findings.iter().find(|f| f.symbol == "Shape").unwrap();
    assert_eq!(
        (missing.path.as_str(), missing.line, missing.col),
        (drift::ROBUST_RS, 14, col(COUNTER_ROBUST, 14, "\"shape\"")),
    );
    assert!(
        missing.message.contains("missing from mc-obs DEFECT_CLASS_NAMES"),
        "{}",
        missing.message
    );
}

#[test]
fn seeded_span_drift_fails_on_both_directions_of_the_contract() {
    let w = ws(&[
        (drift::SPAN_RS, SPAN_SPAN),
        (drift::EXPORT_RS, SPAN_EXPORT),
        (drift::METRICS_RS, SPAN_METRICS),
    ]);
    let findings = drift::span_drift(&w);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "span-drift"));

    // Forward: the export half never renders QueueWait — the finding
    // points at the enum variant that lost its coverage.
    let missing = findings.iter().find(|f| f.symbol == "QueueWait").unwrap();
    assert_eq!(
        (missing.path.as_str(), missing.line, missing.col),
        (drift::SPAN_RS, 10, col(SPAN_SPAN, 10, "QueueWait")),
    );
    assert!(
        missing.message.contains("not handled by canonical span export"),
        "{}",
        missing.message
    );

    // Reverse: the stale Probe arm fails at the arm itself.
    let stale = findings.iter().find(|f| f.symbol == "Probe").unwrap();
    assert_eq!(
        (stale.path.as_str(), stale.line, stale.col),
        (drift::EXPORT_RS, 10, col(SPAN_EXPORT, 10, "Probe")),
    );
    assert!(stale.message.contains("the enum no longer declares"), "{}", stale.message);

    // The clean half (metrics) contributes nothing.
    assert!(findings.iter().all(|f| f.path != drift::METRICS_RS), "{findings:?}");
}

#[test]
fn seeded_dead_spec_key_fails_at_the_grammar_arm() {
    let w = ws(&[(drift::SPEC_RS, SPEC_SPEC), (drift::BUILDER_RS, SPEC_BUILDER)]);
    let findings = drift::spec_drift(&w);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "spec-drift");
    assert_eq!(f.symbol, "dead_knob");
    assert_eq!(
        (f.path.as_str(), f.line, f.col),
        (drift::SPEC_RS, 9, col(SPEC_SPEC, 9, "\"dead_knob\"")),
    );
    assert!(f.message.contains("the knob is silently dead"), "{}", f.message);
}

#[test]
fn stale_allowlist_entry_fails_at_its_own_line() {
    let ws = Workspace::load(root()).unwrap();
    let idx = SymbolIndex::build(&ws);
    let allow = Allowlist::parse(
        "# header comment\n\
         no-unwrap crates/core/src * -- live path, must not be flagged -- since PR9\n\
         lock-order crates/core/src/serve_old.rs * -- seeded: file renamed away -- since PR9\n",
    )
    .unwrap();
    // The live entry suppresses a finding; the seeded one names a file
    // that is gone, and says so at its own line.
    let live = Finding {
        path: "crates/core/src/serve.rs".into(),
        line: 1,
        col: 1,
        rule: "no-unwrap",
        symbol: "expect".into(),
        message: String::new(),
    };
    let (kept, stale) = allow.apply(vec![live], &idx);
    assert!(kept.is_empty(), "{kept:?}");
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].starts_with("allowlist line 3: "), "{}", stale[0]);
    assert!(stale[0].contains("crates/core/src/serve_old.rs"), "{}", stale[0]);
    assert!(stale[0].contains("covers no linted source file"), "{}", stale[0]);
}

#[test]
fn direct_fit_fixture_flags_every_sidestep_of_the_seam() {
    let w = ws(&[("crates/core/src/serve.rs", DIRECT_FIT)]);
    let findings = rules::no_direct_fit(&w);
    let got: Vec<(usize, usize, &str)> =
        findings.iter().map(|f| (f.line, f.col, f.symbol.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (8, col(DIRECT_FIT, 8, "PreparedBackend"), "PreparedBackend::fit"),
            (9, col(DIRECT_FIT, 9, "PreparedBackend"), "PreparedBackend::fit"),
            (9, col(DIRECT_FIT, 9, "meter("), "meter"),
            (10, col(DIRECT_FIT, 10, "from_frozen"), "from_frozen"),
            (10, col(DIRECT_FIT, 10, "meter("), "meter"),
            (11, col(DIRECT_FIT, 11, "fit_model"), "fit_model"),
        ],
        "{findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "no-direct-fit"));
}

#[test]
fn dup_construction_fixture_flags_all_four_sites() {
    let w = ws(&[("crates/core/src/samples.rs", DUP)]);
    let findings = rules::single_construction(&w);
    let got: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.symbol.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (10, "SampleExpectations"),
            (16, "SampleExpectations"),
            (19, "continuation_spec"),
            (25, "continuation_spec"),
        ],
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .all(|f| f.rule == "single-construction" && f.message.contains("2 places")));
}

#[test]
fn unwrap_fixture_flags_production_but_not_tests() {
    let got = shape(&token_findings("tests/fixtures/unwrap_in_lib.rs", UNWRAP));
    assert_eq!(
        got,
        vec![
            at("no-unwrap", "expect", UNWRAP, 9, "expect"),
            at("no-unwrap", "panic", UNWRAP, 13, "panic"),
            at("no-unwrap", "unwrap", UNWRAP, 5, "unwrap"),
            // cfg(not(test)) is production code, so line 35 stays flagged;
            // the #[test] fn and #[cfg(test)] mod are exempt.
            at("no-unwrap", "unwrap", UNWRAP, 35, "unwrap"),
        ]
    );
}

#[test]
fn println_fixture_flags_library_stdio_but_not_tests_or_bins() {
    let got = shape(&token_findings("tests/fixtures/println_in_lib.rs", PRINTLN));
    assert_eq!(
        got,
        vec![
            at("no-println", "eprintln", PRINTLN, 8, "eprintln"),
            at("no-println", "println", PRINTLN, 4, "println"),
        ]
    );
    // The same source under a binary path raises nothing.
    assert!(token_findings("src/bin/println_in_lib.rs", PRINTLN).is_empty());
    assert!(token_findings("crates/demo/src/main.rs", PRINTLN).is_empty());
}

#[test]
fn wallclock_fixture_flags_every_nondeterminism_source() {
    let got = shape(&token_findings("tests/fixtures/wallclock.rs", WALLCLOCK));
    assert_eq!(
        got,
        vec![
            at("no-wallclock", "Instant::now", WALLCLOCK, 6, "Instant"),
            at("no-wallclock", "SystemTime", WALLCLOCK, 3, "SystemTime"),
            at("no-wallclock", "SystemTime", WALLCLOCK, 8, "SystemTime"),
            at("no-wallclock", "thread_rng", WALLCLOCK, 15, "thread_rng"),
        ]
    );
}

#[test]
fn sync_fixture_flags_locks_in_path_and_use_tree_form() {
    let got = shape(&token_findings("tests/fixtures/direct_sync.rs", SYNC));
    assert_eq!(
        got,
        vec![
            at("no-direct-sync", "Condvar", SYNC, 5, "Condvar"),
            at("no-direct-sync", "Mutex", SYNC, 4, "Mutex"),
            at("no-direct-sync", "Mutex", SYNC, 8, "Mutex"),
        ]
    );
}

#[test]
fn queue_fixture_flags_imports_types_and_constructors_but_not_tests() {
    let findings = token_findings("tests/fixtures/unbounded_queue.rs", QUEUE);
    assert_eq!(
        shape(&findings),
        vec![
            at("no-unbounded-queue", "VecDeque", QUEUE, 2, "VecDeque"),
            at("no-unbounded-queue", "VecDeque", QUEUE, 4, "VecDeque"),
            at("no-unbounded-queue", "VecDeque", QUEUE, 5, "VecDeque"),
            at("no-unbounded-queue", "mpsc", QUEUE, 9, "mpsc"),
        ]
    );
    // The sanctioned backing store is suppressed the same way the real
    // workspace allowlist suppresses sched.rs — by named symbol.
    let allow = Allowlist::parse(
        "no-unbounded-queue tests/fixtures/unbounded_queue.rs VecDeque -- fixture exercise\n\
         no-unbounded-queue tests/fixtures/unbounded_queue.rs mpsc -- fixture exercise\n",
    )
    .unwrap();
    let (kept, stale) = allow.apply(findings, &SymbolIndex::default());
    assert!(kept.is_empty() && stale.is_empty());
}

#[test]
fn adhoc_bench_fixture_flags_bins_in_bench_land_only() {
    // Under a bench-bin path every direct engine/serve touch is flagged
    // — the bin exemption that softens no-unwrap/no-println does NOT
    // apply, because bench bins are exactly what this rule polices.
    let got = shape(&token_findings("crates/bench/src/bin/adhoc_bench.rs", ADHOC));
    assert_eq!(
        got,
        vec![
            at("no-adhoc-bench", "ForecastEngine", ADHOC, 7, "ForecastEngine"),
            at("no-adhoc-bench", "ServeHandle", ADHOC, 9, "ServeHandle"),
            at("no-adhoc-bench", "serve_all", ADHOC, 10, "serve_all"),
            at("no-adhoc-bench", "serve_all_observed", ADHOC, 11, "serve_all_observed"),
        ]
    );
    // The spec crate is bench-land too; the same source under the
    // runner path is what the workspace allowlist entry suppresses.
    let runner = token_findings("crates/spec/src/runner.rs", ADHOC);
    assert_eq!(runner.len(), 4);
    let allow = Allowlist::parse(
        "no-adhoc-bench crates/spec/src/runner.rs * -- the runner is the sanctioned seam\n",
    )
    .unwrap();
    let (kept, stale) = allow.apply(runner, &SymbolIndex::default());
    assert!(kept.is_empty() && stale.is_empty());
    // Outside bench-land the rule never fires.
    assert!(token_findings("crates/core/src/serve.rs", ADHOC).is_empty());
}

#[test]
fn allowlist_suppresses_exactly_what_it_names() {
    let findings = token_findings("tests/fixtures/unwrap_in_lib.rs", UNWRAP);
    assert_eq!(findings.len(), 4);

    // Symbol-specific entries: the two unwraps and the expect are
    // suppressed, the panic survives.
    let allow = Allowlist::parse(
        "no-unwrap tests/fixtures/unwrap_in_lib.rs unwrap -- fixture exercise\n\
         no-unwrap tests/fixtures/unwrap_in_lib.rs expect -- fixture exercise\n",
    )
    .unwrap();
    let (kept, stale) = allow.apply(findings.clone(), &SymbolIndex::default());
    assert!(stale.is_empty());
    assert_eq!(shape(&kept), vec![at("no-unwrap", "panic", UNWRAP, 13, "panic")]);

    // A wildcard symbol with a path prefix suppresses the whole family.
    let allow = Allowlist::parse("no-unwrap tests/fixtures * -- fixtures are known-bad\n").unwrap();
    let (kept, stale) = allow.apply(findings.clone(), &SymbolIndex::default());
    assert!(kept.is_empty() && stale.is_empty());

    // The rule must match, not just the path: a no-wallclock entry
    // suppresses nothing here and is reported stale.
    let allow =
        Allowlist::parse("no-wallclock tests/fixtures/unwrap_in_lib.rs * -- wrong rule\n").unwrap();
    let (kept, stale) = allow.apply(findings, &SymbolIndex::default());
    assert_eq!(kept.len(), 4);
    assert_eq!(stale.len(), 1);
    assert!(stale[0].contains("no-wallclock"), "stale message names the entry: {}", stale[0]);
}

#[test]
fn stale_entries_fail_even_when_everything_else_is_clean() {
    let allow =
        Allowlist::parse("no-direct-sync crates/nonexistent * -- covers nothing at all\n").unwrap();
    let (kept, stale) = allow.apply(Vec::new(), &SymbolIndex::default());
    assert!(kept.is_empty());
    assert_eq!(stale.len(), 1);
}

#[test]
fn allowlist_rejects_missing_or_empty_justification() {
    assert!(Allowlist::parse("no-unwrap crates/foo *\n").is_err());
    assert!(Allowlist::parse("no-unwrap crates/foo * --\n").is_err());
    assert!(Allowlist::parse("no-such-rule crates/foo * -- why\n").is_err());
    // Comments and blank lines are fine.
    let allow = Allowlist::parse("# header\n\nno-unwrap crates/foo bar -- reason\n").unwrap();
    let (_, stale) = allow.apply(Vec::new(), &SymbolIndex::default());
    assert_eq!(stale.len(), 1);
}

#[test]
fn every_known_rule_name_is_accepted_and_unique() {
    let mut sorted = RULE_NAMES.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), RULE_NAMES.len(), "duplicate rule name: {RULE_NAMES:?}");
    for rule in RULE_NAMES {
        let line = format!("{rule} crates/foo * -- exercising every rule name\n");
        assert!(Allowlist::parse(&line).is_ok(), "rule {rule} rejected");
    }
}
