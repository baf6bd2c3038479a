//! The four workloads: what each one sends, built from `--seed` alone.
//!
//! Every workload is a periodic sequence of flushes. One period is the
//! workload's *request cycle*: every request in it is distinct, and the
//! timed loop replays the cycle for as long as a run lasts. Inputs depend
//! on the seed and nothing else, so a seed names one exact set of
//! requests, and the correctness gate can compute each request's
//! reference forecast once, up front.

use std::ops::Range;

use mc_datasets::electricity::electricity_with_seed;
use mc_datasets::generators::{ar, sinusoids};
use mc_datasets::weather::weather_with_seed;
use mc_lm::cache::{CacheConfig, CachePolicy, RefitMode};
use mc_obs::mix;
use mc_sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
use mc_sax::encoder::SaxConfig;
use mc_tslib::MultivariateSeries;
use multicast_core::{
    CodecChoice, ForecastConfig, ForecastRequest, MuxMethod, Priority, SampleSource, ServeConfig,
};

/// Worker threads in every workload's serve pool, sized to the two cores
/// the baseline machine has.
pub const WORKERS: usize = 2;

/// Flushes a `ServeHandle` serves before the client replaces it. A handle
/// keeps every outcome it ever produced, so without a limit its memory
/// would grow with throughput and a faster program would read as a
/// fatter one. 336 flushes are 8 of `warm_stream`'s stream cycles; its
/// new handle starts with a cold cache, which adds 4 misses to every
/// 1344 lookups.
pub const HANDLE_FLUSHES: usize = 336;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Draw-bound: 6 requests per flush that share 2 contexts 3 ways,
    /// S = 20 digit samples each.
    FanoutDigit,
    /// Fit-bound: 4 distinct 15.6k-character prompts per flush, S = 1.
    ColdLong,
    /// Overhead-bound: one small SAX request per flush on a long-lived
    /// handle.
    SaxInteractive,
    /// Cache-bound: 4 tenants stream growing histories through one handle
    /// with a warm context cache.
    WarmStream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::FanoutDigit, Workload::ColdLong, Workload::SaxInteractive, Workload::WarmStream];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FanoutDigit => "fanout_digit",
            Workload::ColdLong => "cold_long",
            Workload::SaxInteractive => "sax_interactive",
            Workload::WarmStream => "warm_stream",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scheduler settings: two workers, and for `warm_stream` the
    /// cross-flush context cache.
    pub fn serve_config(self) -> ServeConfig {
        let base = ServeConfig::with_workers(WORKERS);
        match self {
            Workload::WarmStream => ServeConfig { cache: Some(warm_cache()), ..base },
            _ => base,
        }
    }

    /// Whether the client submits through a long-lived `ServeHandle`
    /// (otherwise each flush is one `serve_all` call).
    pub fn uses_handle(self) -> bool {
        matches!(self, Workload::SaxInteractive | Workload::WarmStream)
    }
}

/// The cache shape `warm_stream` serves through. The benchmark's own
/// cache replay in the trace phase uses the same shape.
pub fn warm_cache() -> CacheConfig {
    CacheConfig { capacity: 16, shards: 2, policy: CachePolicy::Lru, refit: RefitMode::Incremental }
}

/// A workload's request cycle.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload built these inputs.
    pub workload: Workload,
    /// Every request of the cycle, in submission order.
    pub requests: Vec<ForecastRequest>,
    /// The held-out values each request's forecast is scored against
    /// (`dimension -> horizon`).
    pub truths: Vec<Vec<Vec<f64>>>,
    /// The cycle's flushes, as ranges of `requests`.
    pub flushes: Vec<Range<usize>>,
}

impl Inputs {
    /// Builds `workload`'s request cycle for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut inputs =
            Inputs { workload, requests: Vec::new(), truths: Vec::new(), flushes: Vec::new() };
        match workload {
            Workload::FanoutDigit => fanout_digit(&mut inputs, seed),
            Workload::ColdLong => cold_long(&mut inputs, seed),
            Workload::SaxInteractive => sax_interactive(&mut inputs, seed),
            Workload::WarmStream => warm_stream(&mut inputs, seed),
        }
        inputs
    }

    /// Flushes in one request cycle.
    pub fn cycle(&self) -> usize {
        self.flushes.len()
    }

    /// The request range of the `index`-th flush of the endless sequence.
    pub fn flush(&self, index: usize) -> Range<usize> {
        self.flushes[index % self.flushes.len()].clone()
    }

    /// Flushes of the warm-up pass that precedes timing: the whole cycle,
    /// except for `warm_stream`, whose warm-up is its first 8 flushes.
    pub fn warmup_flushes(&self) -> usize {
        match self.workload {
            Workload::WarmStream => 8.min(self.cycle()),
            _ => self.cycle(),
        }
    }

    fn push_flush(&mut self, requests: impl IntoIterator<Item = (ForecastRequest, Vec<Vec<f64>>)>) {
        let start = self.requests.len();
        for (request, truth) in requests {
            self.requests.push(request);
            self.truths.push(truth);
        }
        self.flushes.push(start..self.requests.len());
    }
}

/// A value in `[0, 1)` drawn from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-request sampler base seed: distinct for every `(seed, salt)`.
fn sampler_seed(seed: u64, salt: u64) -> u64 {
    mix(mix(seed, 0x5eed), salt)
}

/// Splits `series` into its first `train` rows and the `horizon` rows that
/// follow them.
fn split(
    series: &MultivariateSeries,
    train: usize,
    horizon: usize,
) -> (MultivariateSeries, Vec<Vec<f64>>) {
    let history = series.slice(0, train).expect("history fits the generated series");
    let truth = series.columns().iter().map(|c| c[train..train + horizon].to_vec()).collect();
    (history, truth)
}

fn request(
    train: MultivariateSeries,
    horizon: usize,
    codec: CodecChoice,
    samples: usize,
    seed: u64,
) -> ForecastRequest {
    ForecastRequest {
        train,
        horizon,
        codec,
        config: ForecastConfig { samples, seed, ..ForecastConfig::default() },
        source: SampleSource::Model,
        priority: Priority::Normal,
        client: 0,
    }
}

/// Six Electricity-like 3-dim histories of 218 rows, horizon 24, S = 20.
/// Flush `f` serves histories `2(f mod 3)` and `2(f mod 3) + 1`, each with
/// three sampler seeds, all six under mux method `f / 3`: 9 flushes cover
/// every (history, method) pair once.
fn fanout_digit(inputs: &mut Inputs, seed: u64) {
    const TRAIN: usize = 218;
    const HORIZON: usize = 24;
    let histories: Vec<_> =
        (0..6).map(|i| split(&electricity_with_seed(mix(seed, i)), TRAIN, HORIZON)).collect();
    for f in 0..9 {
        let method = MuxMethod::ALL[f / 3];
        let pair = [2 * (f % 3), 2 * (f % 3) + 1];
        inputs.push_flush(pair.into_iter().flat_map(|h| {
            let (train, truth) = &histories[h];
            (0..3u64).map(move |k| {
                let salt = ((f * 6 + h) as u64) << 8 | k;
                let codec = CodecChoice::Digit(method);
                (
                    request(train.clone(), HORIZON, codec, 20, sampler_seed(seed, salt)),
                    truth.clone(),
                )
            })
        }));
    }
}

/// Sixteen 4-dim series of 1200 rows (sinusoids plus AR(1) noise), VI
/// codec, a 15.6k-character prompt, S = 1, horizon 6. Flush `f` serves
/// series `4f..4f + 4`.
fn cold_long(inputs: &mut Inputs, seed: u64) {
    const TRAIN: usize = 1200;
    const HORIZON: usize = 6;
    const DIMS: u64 = 4;
    let series: Vec<_> = (0..16u64)
        .map(|i| {
            let columns = (0..DIMS)
                .map(|d| {
                    let h = mix(mix(seed, 0xc01d), i * DIMS + d);
                    let period = 12.0 + 60.0 * unit(mix(h, 1));
                    let phase = 6.0 * unit(mix(h, 2));
                    let amp = 1.0 + 4.0 * unit(mix(h, 3));
                    let wave = sinusoids(
                        TRAIN + HORIZON,
                        &[(amp, period, phase), (0.5 * amp, period / 3.1, phase)],
                    );
                    let noise = ar(&[0.5], TRAIN + HORIZON, 0.3 * amp, h);
                    wave.iter().zip(&noise).map(|(w, n)| 10.0 * d as f64 + w + n).collect()
                })
                .collect();
            let names = (0..DIMS).map(|d| format!("x{d}")).collect();
            let full =
                MultivariateSeries::from_columns(names, columns).expect("equal-length columns");
            split(&full, TRAIN, HORIZON)
        })
        .collect();
    for f in 0..4 {
        inputs.push_flush((4 * f..4 * f + 4).map(|i| {
            let (train, truth) = &series[i];
            let codec = CodecChoice::Digit(MuxMethod::ValueInterleave);
            (request(train.clone(), HORIZON, codec, 1, sampler_seed(seed, i as u64)), truth.clone())
        }));
    }
}

/// Eight Weather-like 4-dim histories of 190 rows, SAX with segment 6 and
/// alphabet 5, S = 5, horizon 24. Flush `f` serves history `f / 2` alone,
/// alternating the alphabetic and digital alphabets.
fn sax_interactive(inputs: &mut Inputs, seed: u64) {
    const TRAIN: usize = 190;
    const HORIZON: usize = 24;
    let histories: Vec<_> =
        (0..8).map(|i| split(&weather_with_seed(mix(seed, i)), TRAIN, HORIZON)).collect();
    for f in 0..16 {
        let kind = if f % 2 == 0 { SaxAlphabetKind::Alphabetic } else { SaxAlphabetKind::Digital };
        let alphabet = SaxAlphabet::new(kind, 5).expect("size 5 fits both alphabets");
        let codec = CodecChoice::Sax(SaxConfig { segment_len: 6, alphabet });
        let (train, truth) = &histories[f / 2];
        let req = request(train.clone(), HORIZON, codec, 5, sampler_seed(seed, f as u64));
        inputs.push_flush([(req, truth.clone())]);
    }
}

/// History rows each `warm_stream` tenant starts its stream at.
const STREAM_START: usize = 820;
/// History rows a stream reaches before it resets to `STREAM_START`.
const STREAM_END: usize = 900;
/// Rows a stream grows by every second flush.
const STREAM_STEP: usize = 4;

/// Four tenants, each streaming one 3-dim series through the handle, VI
/// codec, S = 5, horizon 12. A tenant's history grows 4 rows every second
/// flush from 820 to 900 rows and then resets, so the cache sees an exact
/// hit, then an incremental refit, and a miss at each reset. Tenants are
/// staggered by 10 flushes so their resets do not coincide.
fn warm_stream(inputs: &mut Inputs, seed: u64) {
    const HORIZON: usize = 12;
    const TENANTS: usize = 4;
    let lengths = (STREAM_END - STREAM_START) / STREAM_STEP + 1;
    let cycle = 2 * lengths;
    let series: Vec<MultivariateSeries> = (0..TENANTS as u64)
        .map(|t| tenant_series(mix(mix(seed, 0x57e4), t), STREAM_END + HORIZON))
        .collect();
    for f in 0..cycle {
        inputs.push_flush((0..TENANTS).map(|t| {
            let pos = (f + 10 * t) % cycle;
            let rows = STREAM_START + STREAM_STEP * (pos / 2);
            let (train, truth) = split(&series[t], rows, HORIZON);
            let codec = CodecChoice::Digit(MuxMethod::ValueInterleave);
            let salt = ((t as u64) << 16) | pos as u64;
            (request(train, HORIZON, codec, 5, sampler_seed(seed, salt)), truth)
        }));
    }
}

/// One tenant's 3-dim series. The first two rows hold each dimension's
/// minimum and maximum, and every later value is clamped between them, so
/// the fixed-digit rescaler fitted on any prefix is the same and each
/// grown history's prompt extends the previous one.
fn tenant_series(h: u64, rows: usize) -> MultivariateSeries {
    let columns = (0..3u64)
        .map(|d| {
            let hd = mix(h, d);
            let period = 16.0 + 40.0 * unit(mix(hd, 1));
            let wave = sinusoids(rows, &[(3.0, period, 6.0 * unit(mix(hd, 2)))]);
            let noise = ar(&[0.6], rows, 0.4, hd);
            let (lo, hi) = (-4.0, 4.0);
            let mut col: Vec<f64> = wave
                .iter()
                .zip(&noise)
                .map(|(w, n)| (w + n).clamp(lo, hi) + 20.0 * d as f64)
                .collect();
            col[0] = lo + 20.0 * d as f64;
            col[1] = hi + 20.0 * d as f64;
            col
        })
        .collect();
    MultivariateSeries::from_columns(vec!["a".into(), "b".into(), "c".into()], columns)
        .expect("equal-length columns")
}
