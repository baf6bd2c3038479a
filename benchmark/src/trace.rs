//! Per-layer metrics (`--trace 1`), in three phases:
//!
//! 1. **Staged.** Two passes over the warm-up requests on one thread,
//!    timing each public call of the forecast path: codec fit, prompt
//!    encode, backend fit, every sample's draw, validation and decode,
//!    the median, and the release of the fitted context.
//! 2. **Cache replay.** A benchmark-owned `LmCache` replays
//!    `warm_stream`'s prompt stream for the same seed (the only traffic
//!    that exercises every cache path), timing each hit, refit and miss.
//! 3. **Served.** The rest of the run serves the workload as `--trace 0`
//!    does, alternating segments recorded by a wall-clock
//!    `mc_obs::Observer` with untraced ones. Span durations give the
//!    serve-layer metrics, the traced/untraced throughput ratio gives the
//!    tracing overhead, and the first request cycle gives exact counts.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_lm::cache::{Found, LmCache};
use mc_lm::tokenizer::{CharTokenizer, Tokenizer};
use mc_obs::{chrome_trace, pair_spans, Observer, Recorder, SpanEvent, TraceEvent};
use multicast_core::engine::spec_family;
use multicast_core::pipeline::median_aggregate;
use multicast_core::robust::{validate_decoded, validate_text};
use multicast_core::{spec_fingerprint, ForecastEngine, PreparedBackend, SampleDefect};

use crate::gate::References;
use crate::report::Readings;
use crate::run::Measured;
use crate::session::Session;
use crate::stats::percentile;
use crate::workload::{warm_cache, Inputs, Workload, WORKERS};

/// Staged passes over the warm-up requests.
const STAGED_PASSES: usize = 2;

/// Passes over `warm_stream`'s stream cycle in the cache replay: enough
/// for its resets to produce at least 20 misses.
const CACHE_PASSES: usize = 6;

/// Served time per traced/untraced segment pair.
const PAIR_SECONDS: f64 = 4.0;

/// Traced flushes exported to the Perfetto trace file.
const EXPORT_FLUSHES: usize = 16;

/// Traced requests the served phase needs. Every request waits in the
/// queue at least once, and the p95 of those waits needs 200 samples; on
/// a slow host `cold_long` (4 requests per flush) can fall short within
/// the time budget, so traced flushes continue until there are enough.
const MIN_TRACED_REQUESTS: u64 = 200;

/// A recorder that forwards to a wall-clock observer only while switched
/// on. The client switches it between flushes, when no serve thread is
/// running, so the flag needs no ordering beyond the thread spawns and
/// joins of each flush.
struct Switch {
    on: AtomicBool,
    obs: Observer,
}

impl Switch {
    fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }
}

impl Recorder for Switch {
    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        if self.enabled() {
            self.obs.now()
        } else {
            0
        }
    }

    fn wall(&self) -> u64 {
        if self.enabled() {
            self.obs.wall()
        } else {
            0
        }
    }

    fn record(&self, event: TraceEvent) {
        if self.enabled() {
            self.obs.record(event);
        }
    }

    fn span(&self, span: SpanEvent) {
        if self.enabled() {
            self.obs.span(span);
        }
    }

    fn span_at(&self, span: SpanEvent, t: u64, wall: u64) {
        if self.enabled() {
            self.obs.span_at(span, t, wall);
        }
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn p50(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 50).map_err(|r| r.to_string())
}

fn ratio(num: f64, den: f64) -> Result<f64, String> {
    if den > 0.0 {
        Ok(num / den)
    } else {
        Err("no samples".into())
    }
}

/// Wall times of each public call, in microseconds, plus the token
/// totals the per-token rates divide by.
#[derive(Default)]
struct Staged {
    codec_fit: Vec<f64>,
    encode: Vec<f64>,
    fit: Vec<f64>,
    prompt_tokens: u64,
    drop: Vec<f64>,
    draw: Vec<f64>,
    generated_tokens: u64,
    decode: Vec<f64>,
    validate: Vec<f64>,
    median: Vec<f64>,
}

fn staged(inputs: &Inputs) -> Result<Staged, String> {
    let mut s = Staged::default();
    let warmup = inputs.flush(0).start..inputs.flush(inputs.warmup_flushes() - 1).end;
    for _ in 0..STAGED_PASSES {
        for request in &inputs.requests[warmup.clone()] {
            let fail = |e: &dyn std::fmt::Display| format!("staged request failed: {e}");
            let engine = ForecastEngine::with_source(request.config, request.source);
            let codec = request.codec.build(&request.config);
            let t = Instant::now();
            let fitted = codec.fit(&request.train).map_err(|e| fail(&e))?;
            s.codec_fit.push(micros(t));
            let spec = engine.continuation_spec(fitted.as_ref(), request.horizon);
            let tokenizer = CharTokenizer::new(spec.vocab.clone());
            let t = Instant::now();
            black_box(tokenizer.encode(&spec.prompt).map_err(|e| fail(&e))?);
            s.encode.push(micros(t));
            let t = Instant::now();
            let backend = PreparedBackend::fit(&spec).map_err(|e| fail(&e))?;
            s.fit.push(micros(t));
            s.prompt_tokens += backend.prompt_cost().prompt_tokens;
            let sampler = backend.sampler(spec.separators, spec.max_tokens);
            let expect = fitted.expectations(request.horizon);
            let mut valid = Vec::new();
            for i in 0..request.config.samples {
                let t = Instant::now();
                let (text, cost) =
                    sampler.draw(request.config.sampler_for(i)).map_err(|e| fail(&e))?;
                s.draw.push(micros(t));
                s.generated_tokens += cost.generated_tokens;
                let t = Instant::now();
                let mut defects = validate_text(&text, &expect);
                let mut validate = micros(t);
                let t = Instant::now();
                let values = fitted.decode(&text, request.horizon).map_err(|e| fail(&e))?;
                s.decode.push(micros(t));
                let t = Instant::now();
                defects.extend(validate_decoded(&values, &expect));
                validate += micros(t);
                s.validate.push(validate);
                if !defects.iter().any(SampleDefect::is_fatal) {
                    valid.push(values);
                }
            }
            if !valid.is_empty() {
                let t = Instant::now();
                black_box(median_aggregate(&valid).map_err(|e| fail(&e))?);
                s.median.push(micros(t));
            }
            let t = Instant::now();
            drop(backend);
            s.drop.push(micros(t));
        }
    }
    Ok(s)
}

/// Lookup times of the cache replay, in microseconds. A miss is timed
/// as the failed lookup plus the insert; the fit between them is the
/// `lm` layer's and is not counted.
#[derive(Default)]
struct CacheTimes {
    hit: Vec<f64>,
    refit: Vec<f64>,
    miss: Vec<f64>,
}

fn cache_replay(seed: u64) -> Result<CacheTimes, String> {
    let inputs = Inputs::generate(Workload::WarmStream, seed);
    let mut keyed = Vec::with_capacity(inputs.requests.len());
    for request in &inputs.requests {
        let engine = ForecastEngine::with_source(request.config, request.source);
        let fitted =
            request.codec.build(&request.config).fit(&request.train).map_err(|e| e.to_string())?;
        let spec = engine.continuation_spec(fitted.as_ref(), request.horizon);
        let tokens = CharTokenizer::new(spec.vocab.clone())
            .encode(&spec.prompt)
            .map_err(|e| e.to_string())?;
        keyed.push((spec_family(&spec), spec_fingerprint(&spec), tokens, spec));
    }
    let cache = LmCache::new(warm_cache());
    let mut times = CacheTimes::default();
    for _ in 0..CACHE_PASSES {
        for flush in &inputs.flushes {
            for (family, fp, tokens, spec) in &keyed[flush.clone()] {
                let t = Instant::now();
                match cache.acquire(*family, *fp, tokens) {
                    Found::Hit { .. } => times.hit.push(micros(t)),
                    Found::Refit { .. } => times.refit.push(micros(t)),
                    Found::Miss => {
                        let lookup = micros(t);
                        let fitted = PreparedBackend::fit(spec).map_err(|e| e.to_string())?;
                        let t = Instant::now();
                        cache.insert(*family, *fp, tokens, fitted.frozen());
                        times.miss.push(lookup + micros(t));
                    }
                }
            }
            // Flush boundary: unpin, as the serve path does.
            for (family, fp, ..) in &keyed[flush.clone()] {
                cache.release(*family, *fp);
            }
        }
    }
    Ok(times)
}

/// Totals of the served phase.
#[derive(Default)]
struct Served {
    flushes: u64,
    attempted: u64,
    failed: u64,
    contexts: u64,
    cache_hits: u64,
    cache_refits: u64,
    cache_evictions: u64,
    /// Forecasts and wall seconds of the traced segments.
    traced: (u64, f64),
    /// Forecasts and wall seconds of the untraced segments.
    untraced: (u64, f64),
    /// Flushes, requests and summed flush latency (ns) of the traced
    /// segments.
    traced_flushes: usize,
    traced_requests: u64,
    traced_ns: f64,
    /// Span-buffer length after the last flush exported to the trace file.
    export_len: Option<usize>,
}

impl Served {
    /// Serves one segment, traced or not, for as long as `more` holds.
    fn segment(
        &mut self,
        session: &mut Session,
        switch: &Switch,
        on: bool,
        mut more: impl FnMut(&Served) -> bool,
    ) {
        switch.set(on);
        let start = Instant::now();
        let mut forecasts = 0;
        while more(self) {
            let flushed = session.flush();
            forecasts += flushed.forecasts;
            self.flushes += 1;
            self.attempted += flushed.requests;
            self.failed += flushed.requests - flushed.forecasts;
            self.contexts += flushed.contexts;
            self.cache_hits += flushed.cache_hits;
            self.cache_refits += flushed.cache_refits;
            self.cache_evictions += flushed.cache_evictions;
            if on {
                self.traced_ns += flushed.latency.as_secs_f64() * 1e9;
                self.traced_flushes += 1;
                self.traced_requests += flushed.requests;
                if self.traced_flushes == EXPORT_FLUSHES {
                    self.export_len = Some(switch.obs.spans().len());
                }
            }
        }
        let side = if on { &mut self.traced } else { &mut self.untraced };
        side.0 += forecasts;
        side.1 += start.elapsed().as_secs_f64();
    }
}

/// Serves for `budget` seconds, in pairs of traced and untraced segments;
/// each pair starts with the other kind, so neither always runs first.
/// Then serves traced flushes until there are [`MIN_TRACED_REQUESTS`].
fn serve(session: &mut Session, switch: &Switch, budget: f64) -> (Served, usize) {
    let pairs = (budget / PAIR_SECONDS).round().max(1.0) as usize;
    let segment = Duration::from_secs_f64(budget / (2 * pairs) as f64);
    let mut s = Served::default();
    for pair in 0..pairs {
        for on in [pair % 2 == 0, pair % 2 == 1] {
            let start = Instant::now();
            s.segment(session, switch, on, |_| start.elapsed() < segment);
        }
    }
    s.segment(session, switch, true, |s| s.traced_requests < MIN_TRACED_REQUESTS);
    switch.set(false);
    (s, pairs)
}

/// Measures `workload`'s per-layer metrics within about `seconds`.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    refs: &References,
) -> Result<Measured, String> {
    let started = Instant::now();
    let switch = Arc::new(Switch { on: AtomicBool::new(false), obs: Observer::wall() });
    let recorder: Arc<dyn Recorder> = switch.clone();
    let mut session = Session::new(workload, seed, &refs.digests, Some(recorder));
    session.warm_up();
    let staged = staged(&session.inputs)?;
    let cache = cache_replay(seed)?;
    let budget = (seconds - started.elapsed().as_secs_f64()).max(0.2);
    let (served, pairs) = serve(&mut session, &switch, budget);

    let spans = switch.obs.spans();
    let paired = pair_spans(&spans).map_err(|e| format!("span buffer does not pair: {e}"))?;
    let export = pair_spans(&spans[..served.export_len.unwrap_or(spans.len())])
        .map_err(|e| format!("exported spans do not pair: {e}"))?;
    let path = Path::new("benchmark/out").join(format!("{}.trace.json", workload.name()));
    fs::create_dir_all(path.parent().expect("out directory"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    fs::write(&path, chrome_trace(&export)).map_err(|e| format!("{}: {e}", path.display()))?;
    let span_us = |name: &str| -> Vec<f64> {
        paired
            .iter()
            .filter(|s| s.kind.name() == name)
            .map(|s| s.wall_nanos() as f64 / 1e3)
            .collect()
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();

    let mut r = Readings::default();
    r.put("lm.draw_us_p50", p50(&staged.draw), staged.draw.len());
    r.put(
        "lm.draw_ns_per_token",
        ratio(sum(&staged.draw) * 1e3, staged.generated_tokens as f64),
        staged.draw.len(),
    );
    r.put("lm.fit_us_p50", p50(&staged.fit), staged.fit.len());
    r.put(
        "lm.fit_ns_per_prompt_token",
        ratio(sum(&staged.fit) * 1e3, staged.prompt_tokens as f64),
        staged.fit.len(),
    );
    r.put("lm.drop_us_p50", p50(&staged.drop), staged.drop.len());
    r.put("tokenizer.encode_us_p50", p50(&staged.encode), staged.encode.len());
    r.put("codec.fit_us_p50", p50(&staged.codec_fit), staged.codec_fit.len());
    r.put("codec.decode_us_p50", p50(&staged.decode), staged.decode.len());
    r.put("robust.validate_us_p50", p50(&staged.validate), staged.validate.len());
    r.put("pipeline.median_us_p50", p50(&staged.median), staged.median.len());
    r.put("lm.cache.hit_us_p50", p50(&cache.hit), cache.hit.len());
    r.put("lm.cache.refit_us_p50", p50(&cache.refit), cache.refit.len());
    r.put("lm.cache.miss_us_p50", p50(&cache.miss), cache.miss.len());
    // Every served context was an exact hit, a refit, or fitted from
    // scratch (a miss); without a cache every context is a miss.
    let contexts = served.contexts as f64;
    let (hits, refits) = (served.cache_hits as f64, served.cache_refits as f64);
    let n = served.contexts as usize;
    r.put("lm.cache.hit_rate", ratio(hits, contexts), n);
    r.put("lm.cache.refit_rate", ratio(refits, contexts), n);
    r.put("lm.cache.miss_rate", ratio(contexts - hits - refits, contexts), n);
    r.put(
        "lm.cache.evictions_per_flush",
        ratio(served.cache_evictions as f64, served.flushes as f64),
        served.flushes as usize,
    );
    let context_fit = span_us("context_fit");
    let attempt = span_us("attempt");
    let traced_flushes = served.traced_flushes;
    r.put("serve.prepare_frac", ratio(sum(&context_fit) * 1e3, served.traced_ns), traced_flushes);
    r.put(
        "serve.worker_busy_frac",
        ratio(sum(&attempt) * 1e3, WORKERS as f64 * served.traced_ns),
        traced_flushes,
    );
    let queue_wait = span_us("queue_wait");
    r.put("serve.queue_wait_us_p50", p50(&queue_wait), queue_wait.len());
    r.put(
        "serve.queue_wait_us_p95",
        percentile(&queue_wait, 95).map_err(|e| e.to_string()),
        queue_wait.len(),
    );
    let request = span_us("request");
    r.put("serve.request_us_p50", p50(&request), request.len());
    r.put("serve.context_fit_us_p50", p50(&context_fit), context_fit.len());
    r.put("serve.attempt_us_p50", p50(&attempt), attempt.len());

    let c = session.cycle;
    let cycle_done = c.flushes == session.inputs.cycle();
    let exact = |num: u64, den: u64| -> Result<f64, String> {
        if !cycle_done {
            return Err("run ended before one request cycle completed".into());
        }
        ratio(num as f64, den as f64)
    };
    let requests = c.requests as usize;
    r.put("lm.prompt_tokens_per_forecast", exact(c.prompt_tokens, c.requests), requests);
    r.put("lm.generated_tokens_per_forecast", exact(c.generated_tokens, c.requests), requests);
    r.put("lm.work_units_per_forecast", exact(c.work_units, c.requests), requests);
    r.put("serve.requests_per_context", exact(c.requests, c.contexts), c.contexts as usize);
    r.put("robust.retries_per_request", exact(c.retries, c.requests), requests);
    r.put(
        "robust.valid_sample_frac",
        exact(c.valid_samples, c.requested_samples),
        c.requested_samples as usize,
    );
    r.put("robust.degraded_frac", exact(c.degraded, c.requests), requests);
    let rate = |(forecasts, wall): (u64, f64)| ratio(forecasts as f64, wall);
    let overhead = rate(served.traced).and_then(|t| rate(served.untraced).map(|u| 1.0 - t / u));
    r.put("trace.overhead_frac", overhead, 2 * pairs);

    let notes = vec![
        format!("staged_requests={}", staged.fit.len()),
        format!("served_flushes={} traced_flushes={traced_flushes}", served.flushes),
        format!("trace_file={}", path.display()),
        format!("draw_share_of_staged={}", staged_draw_share(&staged)),
    ];
    Ok(Measured {
        readings: r,
        attempted: served.attempted,
        failed: served.failed,
        correct: session.mismatches == 0,
        notes,
    })
}

/// Share of the staged phase's timed calls spent drawing samples.
fn staged_draw_share(s: &Staged) -> f64 {
    let sum = |v: &Vec<f64>| v.iter().sum::<f64>();
    let total = sum(&s.codec_fit)
        + sum(&s.encode)
        + sum(&s.fit)
        + sum(&s.drop)
        + sum(&s.draw)
        + sum(&s.decode)
        + sum(&s.validate)
        + sum(&s.median);
    sum(&s.draw) / total
}
