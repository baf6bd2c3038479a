//! End-to-end parity: the scenario runner reproduces every deterministic
//! artifact checked in under `results/` (reports, BENCH files and the
//! canonical trace) byte for byte, and the chaos BENCH report is
//! schedule-independent — identical at 1, 2 and 8 workers and across
//! repeats, because every metric derives from the logical clock, never
//! the scheduler.

use std::fs;
use std::path::{Path, PathBuf};

use mc_spec::{RunOptions, Runner, ScenarioKind, ScenarioSpec};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A fresh per-test scratch directory under the system temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-spec-parity-{}-{tag}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn committed(rel: &str) -> String {
    let path = repo_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn backtest_runner_matches_checked_in_artifact() {
    let dir = scratch("backtest");
    let opts = RunOptions { results_dir: dir.clone(), ..RunOptions::default() };
    let summary = Runner::new(opts).run_kind(ScenarioKind::Backtest).expect("backtest runs");
    assert_eq!(summary.artifacts.len(), 1);
    let fresh = fs::read_to_string(dir.join("backtest.md")).expect("fresh artifact");
    assert_eq!(
        fresh,
        committed("results/backtest.md"),
        "runner output diverged from the checked-in results/backtest.md"
    );
    assert_eq!(
        summary.bench.expect("backtest emits a BENCH report").to_pretty(),
        committed("results/BENCH_backtest.json"),
        "BENCH report diverged from the checked-in results/BENCH_backtest.json"
    );
    fs::remove_dir_all(&dir).ok();
}

/// Runs `kind` at full fidelity and asserts its markdown report and BENCH
/// file match `results/<name>.md` and `results/BENCH_<name>.json` byte
/// for byte.
fn assert_report_and_bench_match(kind: ScenarioKind, name: &str) {
    let dir = scratch(name);
    let opts = RunOptions {
        results_dir: dir.clone(),
        bench_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let summary = Runner::new(opts).run_kind(kind).expect("scenario runs");
    let fresh = fs::read_to_string(dir.join(format!("{name}.md"))).expect("fresh artifact");
    assert_eq!(
        fresh,
        committed(&format!("results/{name}.md")),
        "runner output diverged from the checked-in results/{name}.md"
    );
    let bench = summary.bench.expect("scenario emits a BENCH report");
    assert_eq!(
        bench.to_pretty(),
        committed(&format!("results/BENCH_{name}.json")),
        "BENCH report diverged from the checked-in results/BENCH_{name}.json"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_chaos_runner_matches_checked_in_artifact() {
    assert_report_and_bench_match(ScenarioKind::ServeChaos, "serve_chaos");
}

#[test]
fn fault_injection_runner_matches_checked_in_artifacts() {
    assert_report_and_bench_match(ScenarioKind::FaultInjection, "fault_injection");
}

/// At full fidelity the cache study's BENCH file matches the committed
/// baseline. (Its markdown report carries wall-clock timings and is
/// deliberately not compared.)
#[test]
fn cache_reuse_bench_matches_checked_in_artifact() {
    let dir = scratch("cache-reuse");
    let opts = RunOptions { results_dir: dir.clone(), ..RunOptions::default() };
    let summary = Runner::new(opts).run_kind(ScenarioKind::CacheReuse).expect("cache reuse runs");
    assert_eq!(
        summary.bench.expect("cache reuse emits a BENCH report").to_pretty(),
        committed("results/BENCH_cache_reuse.json"),
        "BENCH report diverged from the checked-in results/BENCH_cache_reuse.json"
    );
    fs::remove_dir_all(&dir).ok();
}

/// The latency audit's report and BENCH file are built from canonical
/// span ticks, and every recorder call advances the logical clock, so
/// they pin the order of span and event emission on the serve path: a
/// reordered recorder call moves a tick and shows up here.
#[test]
fn latency_audit_runner_matches_checked_in_artifacts() {
    assert_report_and_bench_match(ScenarioKind::LatencyAudit, "latency_audit");
}

/// The telemetry scenario's canonical JSONL trace is stamped on the
/// logical clock, so it pins which events the serve path emits and in
/// what order. (Its markdown report carries wall-clock timings and is
/// deliberately not compared.)
#[test]
fn telemetry_trace_matches_checked_in_artifact() {
    let dir = scratch("telemetry-trace");
    let trace = dir.join("serving_trace.jsonl");
    let opts = RunOptions {
        results_dir: dir.clone(),
        trace_path: Some(trace.clone()),
        ..RunOptions::default()
    };
    Runner::new(opts).run_kind(ScenarioKind::Telemetry).expect("telemetry runs");
    let fresh = fs::read_to_string(&trace).expect("fresh trace");
    assert_eq!(
        fresh,
        committed("results/serving_trace.jsonl"),
        "canonical trace diverged from the checked-in results/serving_trace.jsonl"
    );
    fs::remove_dir_all(&dir).ok();
}

/// The acceptance bar for machine-readable gates: the chaos BENCH file is
/// byte-identical across worker counts and repeats. Every number in it is
/// logical-clock-derived; a scheduler dependency would surface here.
#[test]
fn serve_chaos_bench_is_schedule_independent() {
    let mut renders: Vec<(usize, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        for repeat in 0..if workers == 8 { 2 } else { 1 } {
            let dir = scratch(&format!("chaos-w{workers}-r{repeat}"));
            let mut spec = ScenarioSpec::new(ScenarioKind::ServeChaos);
            spec.serve.workers = Some(workers);
            let opts = RunOptions {
                results_dir: dir.clone(),
                bench_dir: Some(dir.clone()),
                ..RunOptions::default()
            };
            let summary = Runner::new(opts).run(&spec).expect("chaos runs");
            let from_summary = summary.bench.expect("BENCH report").to_pretty();
            let from_disk =
                fs::read_to_string(dir.join("BENCH_serve_chaos.json")).expect("BENCH on disk");
            assert_eq!(from_summary, from_disk, "summary and disk BENCH agree");
            renders.push((workers, from_disk));
            fs::remove_dir_all(&dir).ok();
        }
    }
    let (_, reference) = &renders[0];
    for (workers, render) in &renders[1..] {
        assert_eq!(
            render, reference,
            "BENCH_serve_chaos.json changed at {workers} workers — a metric leaked \
             scheduler state"
        );
    }
}

/// The cache study's BENCH file carries only logical-clock numbers (hit
/// ledger, fit-normalized throughput, token spends), so it must be
/// byte-identical across worker counts and repeats — at CI (`--fast`)
/// scale, which keeps the gate geometry of >= 2 waves x >= 8 requests.
#[test]
fn cache_reuse_bench_is_schedule_independent() {
    let mut renders: Vec<(usize, String)> = Vec::new();
    for workers in [2usize, 8] {
        for repeat in 0..if workers == 8 { 2 } else { 1 } {
            let dir = scratch(&format!("cache-w{workers}-r{repeat}"));
            let mut spec = ScenarioSpec::new(ScenarioKind::CacheReuse);
            spec.serve.workers = Some(workers);
            let opts = RunOptions { results_dir: dir.clone(), fast: true, ..RunOptions::default() };
            let summary = Runner::new(opts).run(&spec).expect("cache reuse runs");
            let bench = summary.bench.expect("cache reuse emits a BENCH report");
            assert!(bench.metric("hit_rate").unwrap_or(0.0) > 0.0, "warm waves must hit");
            assert!(
                bench.metric("throughput_warm_over_cold").unwrap_or(0.0) >= 2.0,
                "warm serving must at least double fit-normalized throughput"
            );
            renders.push((workers, bench.to_pretty()));
            fs::remove_dir_all(&dir).ok();
        }
    }
    let (_, reference) = &renders[0];
    for (workers, render) in &renders[1..] {
        assert_eq!(
            render, reference,
            "BENCH_cache_reuse.json changed at {workers} workers — a metric leaked \
             scheduler state"
        );
    }
}

/// The tokenization study's BENCH report is deterministic across repeats
/// (it has no serve path at all — pure single-threaded decode), and its
/// report and BENCH file match the checked-in artifacts.
#[test]
fn tokenization_bench_is_deterministic_across_repeats() {
    let mut renders: Vec<String> = Vec::new();
    for repeat in 0..2 {
        let dir = scratch(&format!("tok-r{repeat}"));
        let opts = RunOptions {
            results_dir: dir.clone(),
            bench_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        let summary =
            Runner::new(opts).run_kind(ScenarioKind::Tokenization).expect("tokenization runs");
        renders.push(summary.bench.expect("BENCH report").to_pretty());
        assert_eq!(
            fs::read_to_string(dir.join("ablation_tokenization.md")).expect("fresh artifact"),
            committed("results/ablation_tokenization.md"),
            "runner output diverged from the checked-in results/ablation_tokenization.md"
        );
        fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(
        renders[0],
        committed("results/BENCH_tokenization.json"),
        "BENCH report diverged from the checked-in results/BENCH_tokenization.json"
    );
}
