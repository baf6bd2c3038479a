//! End-to-end metrics (`--trace 0`): what a user of the serve path sees,
//! measured with tracing off.
//!
//! The client is closed-loop, so the work done per second (and per CPU
//! second) is the measure; a flush's latency is the inverse of the rate
//! and is printed as notes, not gated.
//!
//! The benchmark runs on hosts shared with other tenants, whose load
//! only ever slows a run down and comes and goes over seconds to minutes.
//! Medians mix that load in: on the baseline machine they drifted by up
//! to 40 % between runs minutes apart. The gated rates are therefore the
//! best of ten two-second segments, the part of a run least mixed with
//! other tenants' load. The medians are still printed as notes.

use std::time::{Duration, Instant};

use crate::gate::References;
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::report::Readings;
use crate::session::Session;
use crate::stats::{median, percentile};
use crate::workload::Workload;

/// Timed segments per run.
const SEGMENTS: usize = 10;

/// A run sets up at least `SETUPS` times and for at least
/// `SETUP_SECONDS`, and `setup_s` is the median; workloads whose set-up
/// takes milliseconds get enough repeats that a short stall of the host
/// cannot move the median.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// A finished measurement.
#[derive(Debug)]
pub struct Measured {
    /// Every metric of the run.
    pub readings: Readings,
    /// Requests submitted while measuring.
    pub attempted: u64,
    /// Of those, requests whose outcome did not match its reference.
    pub failed: u64,
    /// Whether every outcome served, warm-up included, matched.
    pub correct: bool,
    /// Human-readable notes for the header (`# key=value`).
    pub notes: Vec<String>,
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Measures `workload` for `seconds`, split into [`SEGMENTS`] segments.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    refs: &References,
) -> Result<Measured, String> {
    // Set-up: inputs, handle and cache, and the warm-up pass. The last
    // session set up is the one timed.
    let mut setup_s = Vec::new();
    let mut last = None;
    let mut warmup_mismatches = 0;
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(last.take());
        let start = Instant::now();
        let mut session = Session::new(workload, seed, &refs.digests, None);
        session.warm_up();
        setup_s.push(start.elapsed().as_secs_f64());
        warmup_mismatches += session.mismatches;
        last = Some(session);
    }
    let mut session = last.expect("at least one set-up");

    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut latency_ms = Vec::new();
    let (mut per_s, mut tokens_per_s, mut per_cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SEGMENTS {
        let cpu_start = cpu_seconds()?;
        let start = Instant::now();
        let (mut forecasts, mut tokens) = (0u64, 0u64);
        while start.elapsed() < segment {
            let flushed = session.flush();
            latency_ms.push(flushed.latency.as_secs_f64() * 1e3);
            forecasts += flushed.forecasts;
            tokens += flushed.tokens;
            attempted += flushed.requests;
            failed += flushed.requests - flushed.forecasts;
        }
        let wall = start.elapsed().as_secs_f64();
        let cpu = cpu_seconds()? - cpu_start;
        per_s.push(forecasts as f64 / wall);
        tokens_per_s.push(tokens as f64 / wall);
        per_cpu_s.push(forecasts as f64 / cpu);
    }

    let mut readings = Readings::default();
    let flushes = latency_ms.len();
    readings.put("forecasts_per_s", Ok(max(&per_s)), SEGMENTS);
    readings.put("tokens_per_s", Ok(max(&tokens_per_s)), SEGMENTS);
    readings.put("forecasts_per_cpu_s", Ok(max(&per_cpu_s)), SEGMENTS);
    readings.put("setup_s", Ok(median(&setup_s)), setup_s.len());
    readings.put("peak_rss_mb", peak_rss_mib(), 1);

    let shown =
        |pct| percentile(&latency_ms, pct).map_or_else(|r| r.to_string(), |v| v.to_string());
    let notes = vec![
        format!("flushes={flushes} error_rate={}", failed as f64 / attempted.max(1) as f64),
        format!(
            "not gated: forecasts_per_s_median={} forecasts_per_cpu_s_median={}",
            median(&per_s),
            median(&per_cpu_s)
        ),
        format!(
            "not gated: latency_p10_ms={} latency_p50_ms={} latency_p90_ms={}",
            shown(10),
            shown(50),
            shown(90)
        ),
    ];
    Ok(Measured {
        readings,
        attempted,
        failed,
        correct: warmup_mismatches == 0 && session.mismatches == 0,
        notes,
    })
}
