//! Metric names, units and the output format.
//!
//! A run prints one JSON line per metric,
//! `{"workload","metric","value","unit","n"}`, where `n` is the number of
//! samples the value rests on, and then, as its last line, one result
//! object `{"correct","attempted","failed","metrics"}`. A value the sample
//! cannot support (a percentile with fewer than ten samples beyond it, a
//! count over an unfinished cycle) is printed as `null` with the reason,
//! and the process exits with [`EXIT_REFUSED`].

use mc_spec::json::Json;

/// Exit status of a run that measured correctly but could not support
/// every value (too short a run).
pub const EXIT_REFUSED: i32 = 2;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, printed by a run with `--trace 0`.
pub const END_TO_END: [Spec; 5] = [
    spec("forecasts_per_s", "1/s"),
    spec("tokens_per_s", "1/s"),
    spec("forecasts_per_cpu_s", "1/s"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a run with `--trace 1`.
pub const PER_LAYER: [Spec; 32] = [
    spec("lm.draw_us_p50", "us"),
    spec("lm.draw_ns_per_token", "ns/token"),
    spec("lm.fit_us_p50", "us"),
    spec("lm.fit_ns_per_prompt_token", "ns/token"),
    spec("lm.drop_us_p50", "us"),
    spec("tokenizer.encode_us_p50", "us"),
    spec("codec.fit_us_p50", "us"),
    spec("codec.decode_us_p50", "us"),
    spec("robust.validate_us_p50", "us"),
    spec("pipeline.median_us_p50", "us"),
    spec("lm.cache.hit_us_p50", "us"),
    spec("lm.cache.refit_us_p50", "us"),
    spec("lm.cache.miss_us_p50", "us"),
    spec("lm.cache.hit_rate", "fraction"),
    spec("lm.cache.refit_rate", "fraction"),
    spec("lm.cache.miss_rate", "fraction"),
    spec("lm.cache.evictions_per_flush", "evictions/flush"),
    spec("serve.prepare_frac", "fraction"),
    spec("serve.worker_busy_frac", "fraction"),
    spec("serve.queue_wait_us_p50", "us"),
    spec("serve.queue_wait_us_p95", "us"),
    spec("serve.request_us_p50", "us"),
    spec("serve.context_fit_us_p50", "us"),
    spec("serve.attempt_us_p50", "us"),
    spec("lm.prompt_tokens_per_forecast", "tokens/forecast"),
    spec("lm.generated_tokens_per_forecast", "tokens/forecast"),
    spec("lm.work_units_per_forecast", "units/forecast"),
    spec("serve.requests_per_context", "requests/context"),
    spec("robust.retries_per_request", "retries/request"),
    spec("robust.valid_sample_frac", "fraction"),
    spec("robust.degraded_frac", "fraction"),
    spec("trace.overhead_frac", "fraction"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The metric's name and unit.
    pub spec: Spec,
    /// The value, or why the sample could not support one.
    pub value: Result<f64, String>,
    /// Samples the value rests on.
    pub n: usize,
}

/// Every reading of one run, in spec order.
#[derive(Debug, Clone, Default)]
pub struct Readings(Vec<Reading>);

impl Readings {
    /// Records `name`'s reading; `name` must be one of the listed specs.
    pub fn put(&mut self, name: &str, value: Result<f64, String>, n: usize) {
        let spec = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|s| s.name == name)
            .copied()
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        let value = value.and_then(|v| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("non-finite value {v}"))
            }
        });
        self.0.push(Reading { spec, value, n });
    }

    /// Whether any value was refused.
    pub fn any_refused(&self) -> bool {
        self.0.iter().any(|r| r.value.is_err())
    }

    /// One JSON line per reading.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.0
            .iter()
            .map(|r| {
                let refused = r
                    .value
                    .as_ref()
                    .err()
                    .map_or(String::new(), |e| format!(",\"refused\":{}", quote(e)));
                format!(
                    "{{\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{},\"n\":{}{refused}}}",
                    quote(workload),
                    quote(r.spec.name),
                    number(&r.value),
                    quote(r.spec.unit),
                    r.n
                )
            })
            .collect()
    }

    /// The final result object.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|r| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(r.spec.name),
                    number(&r.value),
                    quote(r.spec.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// `s` as a JSON string literal (the canonical writer's form, without its
/// trailing newline).
fn quote(s: &str) -> String {
    Json::from(s).to_pretty().trim_end().to_string()
}

fn number(value: &Result<f64, String>) -> String {
    match value {
        // `{}` prints the shortest representation that reads back exactly.
        Ok(v) => format!("{v}"),
        Err(_) => "null".into(),
    }
}
