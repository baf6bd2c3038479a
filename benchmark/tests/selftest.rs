//! Self-tests of the benchmark: its inputs, statistics, names, verdicts,
//! and a short run of every workload checked against `BENCHMARK.json`.
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (the short runs compute reference forecasts, which are slow unoptimised).

use std::collections::BTreeSet;
use std::process::Command;

use mc_benchmark::compare::compare;
use mc_benchmark::report::{END_TO_END, EXIT_REFUSED, PER_LAYER};
use mc_benchmark::stats::{percentile, quartiles};
use mc_benchmark::workload::{Inputs, Workload};
use mc_benchmark::DEFAULT_SECONDS;
use mc_spec::json::{self, Json};
use multicast_core::ForecastRequest;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(bench: &Json, key: &str, field: &str) -> Vec<String> {
    let Some(Json::Arr(entries)) = bench.get(key) else { panic!("no array `{key}`") };
    entries
        .iter()
        .map(|m| m.get(field).and_then(Json::as_str).expect("string field").to_string())
        .collect()
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn fingerprints(inputs: &Inputs) -> Vec<u64> {
    inputs.requests.iter().map(ForecastRequest::content_fingerprint).collect()
}

#[test]
fn inputs_are_deterministic_per_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 7);
        let b = Inputs::generate(workload, 7);
        let c = Inputs::generate(workload, 8);
        assert_eq!(fingerprints(&a), fingerprints(&b), "{workload:?}: same seed, same requests");
        assert_eq!(a.truths, b.truths, "{workload:?}: same seed, same held-out values");
        assert_eq!(a.flushes, b.flushes);
        let (fa, fc) = (fingerprints(&a), fingerprints(&c));
        assert!(fa.iter().all(|f| !fc.contains(f)), "{workload:?}: another seed shares a request");
        let distinct: BTreeSet<u64> = fa.iter().copied().collect();
        assert_eq!(distinct.len(), fa.len(), "{workload:?}: every request of a cycle is distinct");
    }
}

#[test]
fn warm_stream_prompts_extend_each_other() {
    // Every grown history must serialize to an extension of the shorter
    // one, or the cache would miss instead of refitting.
    use multicast_core::ForecastEngine;
    let inputs = Inputs::generate(Workload::WarmStream, 3);
    let prompt = |i: usize| {
        let r = &inputs.requests[i];
        let fitted = r.codec.build(&r.config).fit(&r.train).expect("codec fits");
        ForecastEngine::new(r.config).continuation_spec(fitted.as_ref(), r.horizon).prompt
    };
    // Tenant 0 grows between flushes 1 and 2 (4 requests per flush).
    let (short, long) = (prompt(4), prompt(8));
    assert!(long.len() > short.len() && long.starts_with(&short));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    let samples = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
    assert!(percentile(&samples(19), 50).is_err());
    assert_eq!(percentile(&samples(20), 50), Ok(10.0));
    assert!(percentile(&samples(99), 90).is_err());
    assert_eq!(percentile(&samples(100), 90), Ok(90.0));
    let refused = percentile(&samples(199), 95).unwrap_err();
    assert_eq!((refused.have, refused.need), (199, 200));
    assert_eq!(percentile(&samples(200), 95), Ok(190.0));
    assert!(percentile(&[], 50).is_err());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
}

#[test]
fn names_and_units_are_valid_and_unique() {
    let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name).collect();
    let workloads = Workload::ALL.map(Workload::name);
    for name in names.iter().chain(&workloads) {
        assert!(valid_name(name), "invalid name {name}");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "metric names repeat");
    for spec in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = spec.unit.len() <= 16
            && spec.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(ok, "invalid unit {}", spec.unit);
    }
    assert!(
        !valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name(&"a".repeat(65))
    );
}

#[test]
fn benchmark_json_declares_what_the_benchmark_reports() {
    let bench = benchmark_json();
    let e2e: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
    assert_eq!(listed(&bench, "end_to_end", "name"), e2e);
    assert_eq!(listed(&bench, "per_layer", "name"), layer);
    let units: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|s| s.unit).collect();
    let mut declared = listed(&bench, "end_to_end", "unit");
    declared.extend(listed(&bench, "per_layer", "unit"));
    assert_eq!(declared, units);
    assert_eq!(listed(&bench, "workloads", "name"), Workload::ALL.map(Workload::name));
    assert_eq!(bench.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
}

fn smoke(workload: Workload, trace: &str) -> (Vec<String>, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mc-benchmark"))
        .args(["--workload", workload.name(), "--seed", "1", "--seconds", "1", "--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    let (result, metric_lines) = lines.split_last().expect("a result line");
    let result = json::parse(result).expect("result line parses");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload:?}: {stdout}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics object") };
    let refused = metrics.iter().any(|(_, v)| v.get("value") == Some(&Json::Null));
    let expected_code = if refused { EXIT_REFUSED } else { 0 };
    assert_eq!(out.status.code(), Some(expected_code), "{workload:?} trace {trace}");
    let from_lines = metric_lines
        .iter()
        .map(|l| {
            let v = json::parse(l).expect("metric line parses");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some(workload.name()));
            v.get("metric").and_then(Json::as_str).expect("metric name").to_string()
        })
        .collect();
    (from_lines, metrics.iter().map(|(k, _)| k.clone()).collect())
}

#[test]
fn a_one_second_run_prints_exactly_the_declared_metrics() {
    let bench = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared: BTreeSet<String> = listed(&bench, key, "name").into_iter().collect();
        for workload in Workload::ALL {
            let (lines, result) = smoke(workload, trace);
            for printed in [&lines, &result] {
                let printed: BTreeSet<String> = printed.iter().cloned().collect();
                assert_eq!(printed, declared, "{workload:?} --trace {trace}");
            }
        }
    }
}

#[test]
fn compare_reports_gains_regressions_and_unresolved_metrics() {
    let bench = benchmark_json();
    let log = |workload: &str, metric: &str, values: &[f64]| -> String {
        values
            .iter()
            .map(|v| format!("{{\"workload\":\"{workload}\",\"metric\":\"{metric}\",\"value\":{v},\"unit\":\"x\",\"n\":1}}\n"))
            .collect()
    };
    let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
    let faster: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
    let slower: Vec<f64> = steady.iter().map(|v| v * 0.6).collect();
    let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 60.0 } else { 140.0 }).collect();
    let parent = log("w", "forecasts_per_s", &steady)
        + &log("v", "forecasts_per_s", &steady)
        + &log("u", "forecasts_per_s", &noisy);
    let change = log("w", "forecasts_per_s", &faster)
        + &log("v", "forecasts_per_s", &slower)
        + &log("u", "forecasts_per_s", &noisy);
    let table = compare(&parent, &change, &bench);
    let row = |w: &str| {
        table
            .split("## ")
            .find(|s| s.starts_with(&format!("{w}:")))
            .expect("workload section")
            .to_string()
    };
    assert!(row("w").contains("| gain |"), "{table}");
    assert!(row("v").contains("| regression |"), "{table}");
    assert!(row("u").contains("| unresolved |"), "{table}");
    let short = compare(
        &log("w", "forecasts_per_s", &steady[..5]),
        &log("w", "forecasts_per_s", &steady[..5]),
        &bench,
    );
    assert!(short.contains("too few pairs"), "{short}");
}
