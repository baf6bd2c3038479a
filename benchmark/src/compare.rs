//! `compare`: the noise-aware verdict between two commits' runs.
//!
//! Input is the concatenated stdout of several runs of each commit (the
//! metric lines; everything else is skipped). The i-th value of a
//! (workload, metric) on one side is paired with the i-th on the other,
//! so the runs should alternate between the commits. Rules:
//!
//! - at least [`MIN_PAIRS`] pairs, or the metric is "too few pairs";
//! - **gain** when the change wins at least 90 % of the pairs (ties count
//!   for neither side) and the medians differ by more than the parent's
//!   interquartile range;
//! - **regression** when the change's median is worse than the parent's
//!   by more than the metric's bound from `BENCHMARK.json`;
//! - **unresolved** when the parent's own spread (IQR over median)
//!   exceeds the bound, unless every change run beats every parent run;
//! - otherwise **within bound**. Per-layer metrics have no bound: they
//!   get "gain", "loss" (the mirror of gain) or "no claim", and exact
//!   counts get "identical" or "changed".

use std::fmt::Write as _;

use mc_spec::json::{self, Json};

use crate::stats::{median, quartiles};

/// Pairs needed before any verdict.
pub const MIN_PAIRS: usize = 10;

/// A metric's direction and bound as declared in `BENCHMARK.json`.
struct Declared {
    higher_is_better: bool,
    bound: Option<f64>,
}

fn declared(bench: &Json, name: &str) -> Option<Declared> {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|k| match bench.get(k) {
            Some(Json::Arr(metrics)) => Some(metrics),
            _ => None,
        })
        .flatten()
        .find_map(|m| {
            (m.get("name")?.as_str()? == name).then(|| Declared {
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
}

/// `(workload, metric) -> values` in the order the lines appear.
type Series = Vec<((String, String), Vec<f64>)>;

/// Collects every metric line of a run log.
fn collect(log: &str) -> Series {
    let mut out: Series = Vec::new();
    for line in log.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = json::parse(line) else { continue };
        let (Some(w), Some(m), Some(x)) = (
            v.get("workload").and_then(Json::as_str),
            v.get("metric").and_then(Json::as_str),
            v.get("value").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let key = (w.to_string(), m.to_string());
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, values)) => values.push(x),
            None => out.push((key, vec![x])),
        }
    }
    out
}

/// The verdict for one metric, from paired runs.
fn verdict(parent: &[f64], change: &[f64], decl: &Declared) -> String {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return format!("too few pairs ({pairs} < {MIN_PAIRS})");
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let all_equal = |v: &[f64]| v.iter().all(|&x| x == v[0]);
    if all_equal(parent) && all_equal(change) {
        return if parent[0] == change[0] { "identical".into() } else { "changed".into() };
    }
    let better = |a: f64, b: f64| if decl.higher_is_better { a > b } else { a < b };
    let wins = parent.iter().zip(change).filter(|(&p, &c)| better(c, p)).count();
    let losses = parent.iter().zip(change).filter(|(&p, &c)| better(p, c)).count();
    let [pq1, pmed, pq3] = quartiles(parent);
    let spread = pq3 - pq1;
    let cmed = median(change);
    let gain = if decl.higher_is_better { cmed - pmed } else { pmed - cmed };
    if wins * 10 >= pairs * 9 && gain > spread {
        return "gain".into();
    }
    let Some(bound) = decl.bound else {
        return if losses * 10 >= pairs * 9 && -gain > spread {
            "loss".into()
        } else {
            "no claim".into()
        };
    };
    let every_change_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread / pmed.abs() > bound && !every_change_better {
        return "unresolved".into();
    }
    if -gain / pmed.abs() > bound {
        "regression".into()
    } else {
        "within bound".into()
    }
}

/// Renders the comparison of two run logs as one table per workload.
pub fn compare(parent_log: &str, change_log: &str, bench: &Json) -> String {
    let parent = collect(parent_log);
    let change = collect(change_log);
    let mut out = String::new();
    let mut workloads: Vec<&str> = Vec::new();
    for ((w, _), _) in &parent {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    for workload in workloads {
        let mut rows = String::new();
        let mut tally: Vec<(String, usize)> = Vec::new();
        for ((w, metric), p) in parent.iter().filter(|((w, _), _)| w == workload) {
            let Some((_, c)) = change.iter().find(|((cw, cm), _)| cw == w && cm == metric) else {
                continue;
            };
            let decl = declared(bench, metric)
                .unwrap_or(Declared { higher_is_better: false, bound: None });
            let v = verdict(p, c, &decl);
            let side = |v: &[f64]| {
                if v.len() < 2 {
                    return format!("{}", v.first().copied().unwrap_or(f64::NAN));
                }
                let [q1, q2, q3] = quartiles(v);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let delta = 100.0 * (median(c) - median(p)) / median(p).abs();
            let _ = writeln!(rows, "| {metric} | {} | {} | {delta:+.2}% | {v} |", side(p), side(c));
            match tally.iter_mut().find(|(k, _)| *k == v) {
                Some((_, n)) => *n += 1,
                None => tally.push((v, 1)),
            }
        }
        let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
        let _ = writeln!(out, "## {workload}: {}\n", summary.join(", "));
        let _ = writeln!(
            out,
            "| metric | parent median [q1, q3] | change median [q1, q3] | Δ median | verdict |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|");
        out.push_str(&rows);
        out.push('\n');
    }
    out
}
