//! Sample-quality and fault-tolerance layer for the zero-shot pipeline.
//!
//! The paper's recipe (§IV-D, inherited from LLMTime) relies on the
//! pointwise median to absorb degenerate continuations — but the median
//! only helps *after* every sample has decoded to the right shape. This
//! module adds the defenses that belong in front of it:
//!
//! 1. **Validation** — every decoded continuation is checked against a
//!    [`SampleDefect`] taxonomy (truncation, wrong group width, garbage
//!    characters, non-finite values, panicking sample threads);
//! 2. **Retry with reseed** — samples with fatal defects are re-drawn
//!    under fresh deterministic seeds, up to a bounded budget;
//! 3. **Quorum** — if fewer than `min_valid_samples` survive, the caller
//!    degrades to a classical fallback (seasonal-naive, `mc-baselines`)
//!    instead of aggregating garbage or panicking;
//! 4. **Accounting** — every forecast produces a [`ForecastReport`] that
//!    records per-sample defects, retries, repairs and whether the
//!    fallback fired, so the serving layer can alert on decode health.
//!
//! Sample threads are isolated with [`std::panic::catch_unwind`]: a panic
//! in a backend becomes a [`SampleDefect::Panicked`] entry, not a process
//! abort. [`SampleSource::FaultInjected`] deterministically corrupts
//! continuations for chaos drills and the fault-injection benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mc_tslib::error::{invalid_param, Result, TsError};
use mc_tslib::forecast::{MultivariateForecaster, PerDimension};
use mc_tslib::series::MultivariateSeries;

use mc_baselines::fallback::FallbackForecaster;
use mc_lm::cost::InferenceCost;
use mc_lm::sampler::SamplerConfig;
use mc_obs::{Counter, MetricsRegistry};

use crate::pipeline::{run_continuation, ContinuationSpec};

/// One way a sampled continuation can be bad.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleDefect {
    /// Generation stopped (token budget) before emitting every separator.
    Truncated {
        /// Separators a complete continuation contains.
        expected: usize,
        /// Separators actually emitted.
        got: usize,
    },
    /// A group's character count differs from the serialization width
    /// (repaired by the lenient demultiplexer: truncate / left-pad).
    WrongGroupWidth {
        /// 0-based group index in the continuation.
        group: usize,
        /// Expected characters per group.
        expected: usize,
        /// Characters found.
        got: usize,
    },
    /// A group of a digit-serialized stream contains non-digit characters.
    NonNumericGroup {
        /// 0-based group index.
        group: usize,
    },
    /// A symbol outside the permitted output alphabet (SAX streams).
    OutOfBandCode {
        /// 0-based group index.
        group: usize,
        /// The offending character.
        symbol: char,
    },
    /// A decoded value is NaN or infinite after descaling.
    NonFinite {
        /// Dimension of the offending value.
        dim: usize,
        /// Timestamp index of the offending value.
        index: usize,
    },
    /// The decoded sample does not have the `dims x horizon` shape.
    ShapeMismatch {
        /// Expected dimension count.
        expected_dims: usize,
        /// Expected horizon.
        expected_len: usize,
        /// Dimensions found.
        dims: usize,
        /// Shortest column length found.
        len: usize,
    },
    /// The sample thread panicked (message is best-effort).
    Panicked {
        /// Panic payload rendered to text.
        message: String,
    },
    /// The sample's deadline budget ran out before a draw could start
    /// (never retried — the budget cannot grow back).
    DeadlineExpired {
        /// Token budget remaining when the attempt was scheduled (0, or
        /// small enough that latency inflation consumed it).
        budget: u64,
    },
}

/// Defect kind without payload, for counting and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectClass {
    /// See [`SampleDefect::Truncated`].
    Truncated,
    /// See [`SampleDefect::WrongGroupWidth`].
    WrongGroupWidth,
    /// See [`SampleDefect::NonNumericGroup`].
    NonNumericGroup,
    /// See [`SampleDefect::OutOfBandCode`].
    OutOfBandCode,
    /// See [`SampleDefect::NonFinite`].
    NonFinite,
    /// See [`SampleDefect::ShapeMismatch`].
    ShapeMismatch,
    /// See [`SampleDefect::Panicked`].
    Panicked,
    /// See [`SampleDefect::DeadlineExpired`].
    DeadlineExpired,
}

impl DefectClass {
    /// All classes, in taxonomy order.
    pub const ALL: [DefectClass; 8] = [
        DefectClass::Truncated,
        DefectClass::WrongGroupWidth,
        DefectClass::NonNumericGroup,
        DefectClass::OutOfBandCode,
        DefectClass::NonFinite,
        DefectClass::ShapeMismatch,
        DefectClass::Panicked,
        DefectClass::DeadlineExpired,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DefectClass::Truncated => "truncated",
            DefectClass::WrongGroupWidth => "wrong-width",
            DefectClass::NonNumericGroup => "non-numeric",
            DefectClass::OutOfBandCode => "out-of-band",
            DefectClass::NonFinite => "non-finite",
            DefectClass::ShapeMismatch => "shape",
            DefectClass::Panicked => "panic",
            DefectClass::DeadlineExpired => "deadline",
        }
    }

    /// Position in [`DefectClass::ALL`] — the class's slot in
    /// `mc-obs`'s defect counters and `Defect` trace events.
    pub fn index(self) -> usize {
        match self {
            DefectClass::Truncated => 0,
            DefectClass::WrongGroupWidth => 1,
            DefectClass::NonNumericGroup => 2,
            DefectClass::OutOfBandCode => 3,
            DefectClass::NonFinite => 4,
            DefectClass::ShapeMismatch => 5,
            DefectClass::Panicked => 6,
            DefectClass::DeadlineExpired => 7,
        }
    }
}

impl SampleDefect {
    /// The payload-free kind of this defect.
    pub fn class(&self) -> DefectClass {
        match self {
            SampleDefect::Truncated { .. } => DefectClass::Truncated,
            SampleDefect::WrongGroupWidth { .. } => DefectClass::WrongGroupWidth,
            SampleDefect::NonNumericGroup { .. } => DefectClass::NonNumericGroup,
            SampleDefect::OutOfBandCode { .. } => DefectClass::OutOfBandCode,
            SampleDefect::NonFinite { .. } => DefectClass::NonFinite,
            SampleDefect::ShapeMismatch { .. } => DefectClass::ShapeMismatch,
            SampleDefect::Panicked { .. } => DefectClass::Panicked,
            SampleDefect::DeadlineExpired { .. } => DefectClass::DeadlineExpired,
        }
    }

    /// Whether the defect invalidates the sample (fatal → retry) or the
    /// lenient decoder repaired it in place (→ counted as a repair).
    pub fn is_fatal(&self) -> bool {
        match self {
            // Losing more than half the continuation leaves the pad-fill
            // dominating the sample; shorter losses are repaired.
            SampleDefect::Truncated { expected, got } => got * 2 < *expected,
            SampleDefect::WrongGroupWidth { .. } => false,
            SampleDefect::NonNumericGroup { .. }
            | SampleDefect::OutOfBandCode { .. }
            | SampleDefect::NonFinite { .. }
            | SampleDefect::ShapeMismatch { .. }
            | SampleDefect::Panicked { .. }
            | SampleDefect::DeadlineExpired { .. } => true,
        }
    }
}

/// What a well-formed continuation of a given spec looks like, for
/// validation.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleExpectations {
    /// Separators a complete continuation contains.
    pub separators: usize,
    /// Characters per comma-separated group.
    pub group_width: usize,
    /// Non-separator characters the decode path understands.
    pub alphabet: String,
    /// Whether groups must be pure ASCII digits.
    pub numeric: bool,
    /// Dimensions the decoded sample must have.
    pub dims: usize,
    /// Timestamps per dimension the decoded sample must have.
    pub horizon: usize,
}

/// Validates the raw continuation text against the expectations.
pub fn validate_text(text: &str, expect: &SampleExpectations) -> Vec<SampleDefect> {
    let mut defects = Vec::new();
    let seps = text.matches(',').count();
    if seps < expect.separators {
        defects.push(SampleDefect::Truncated { expected: expect.separators, got: seps });
    }
    for (i, group) in text.split(',').map(str::trim).filter(|g| !g.is_empty()).enumerate() {
        if expect.numeric {
            if group.chars().any(|c| !c.is_ascii_digit()) {
                defects.push(SampleDefect::NonNumericGroup { group: i });
                continue;
            }
        } else if let Some(bad) = group.chars().find(|c| !expect.alphabet.contains(*c)) {
            defects.push(SampleDefect::OutOfBandCode { group: i, symbol: bad });
            continue;
        }
        let width = group.chars().count();
        if width != expect.group_width {
            defects.push(SampleDefect::WrongGroupWidth {
                group: i,
                expected: expect.group_width,
                got: width,
            });
        }
    }
    defects
}

/// Validates the decoded (demuxed + descaled) sample values.
pub fn validate_decoded(values: &[Vec<f64>], expect: &SampleExpectations) -> Vec<SampleDefect> {
    if values.len() != expect.dims || values.iter().any(|col| col.len() != expect.horizon) {
        return vec![SampleDefect::ShapeMismatch {
            expected_dims: expect.dims,
            expected_len: expect.horizon,
            dims: values.len(),
            len: values.iter().map(Vec::len).min().unwrap_or(0),
        }];
    }
    let mut defects = Vec::new();
    for (d, col) in values.iter().enumerate() {
        for (t, v) in col.iter().enumerate() {
            if !v.is_finite() {
                defects.push(SampleDefect::NonFinite { dim: d, index: t });
            }
        }
    }
    defects
}

/// Retry / quorum / fallback policy of the sampling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustPolicy {
    /// Retry budget per sample (0 disables retries).
    pub max_retries: usize,
    /// Minimum valid samples required to aggregate; clamped to the
    /// requested sample count.
    pub min_valid_samples: usize,
    /// What to do when the quorum fails.
    pub fallback: FallbackPolicy,
    /// Per-request generated-token deadline, split evenly across sample
    /// slots (`None` disables deadlines). A sample whose slice runs out
    /// settles with a fatal [`SampleDefect::DeadlineExpired`] instead of
    /// blocking a worker; quorum then degrades to the fallback as usual.
    pub deadline_tokens: Option<u64>,
    /// Base of the bounded exponential retry backoff, in logical dispatch
    /// slots (0 disables backoff and retries re-queue immediately).
    /// Backoff only reorders when a retry is dispatched relative to other
    /// queued work — it never changes what any attempt computes.
    pub backoff_base: u32,
}

impl Default for RobustPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            min_valid_samples: 1,
            fallback: FallbackPolicy::SeasonalNaive,
            deadline_tokens: None,
            backoff_base: 0,
        }
    }
}

impl RobustPolicy {
    /// The quorum actually enforced for a run of `samples` draws.
    pub fn required_valid(&self, samples: usize) -> usize {
        self.min_valid_samples.clamp(1, samples.max(1))
    }

    /// The per-sample token slice of the deadline, if one is set: the
    /// total budget divided evenly across sample slots, so exhaustion
    /// depends only on a sample's own draws (attempt chains are
    /// per-sample sequential) and stays schedule-independent.
    pub fn sample_budget(&self, samples: usize) -> Option<u64> {
        self.deadline_tokens.map(|total| total / samples.max(1) as u64)
    }

    /// Bounded exponential backoff before retry `attempt`:
    /// `base << (attempt - 1)` dispatch slots, capped at 1024. Zero when
    /// backoff is disabled or for first attempts.
    pub fn backoff_delay(&self, attempt: usize) -> u64 {
        if self.backoff_base == 0 || attempt == 0 {
            return 0;
        }
        let shift = (attempt - 1).min(10) as u32;
        (u64::from(self.backoff_base) << shift).min(1024)
    }
}

/// What to do when fewer than the quorum of samples survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Surface a typed [`TsError::SampleQuorum`] error.
    Error,
    /// Degrade to the seasonal-naive fallback fitted on the history.
    SeasonalNaive,
}

/// Where continuations come from: the real backend, or the backend with
/// deterministic fault injection layered on top (chaos drills, the
/// fault-injection benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SampleSource {
    /// The real backend, untouched.
    #[default]
    Model,
    /// Backend output corrupted at a fixed rate.
    FaultInjected(FaultSpec),
}

/// Deterministic corruption of sampled continuations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fraction of continuations corrupted, in `[0, 1]`.
    pub rate: f64,
    /// Seed decorrelating corruption decisions from sampling seeds.
    pub seed: u64,
    /// Sample index whose first attempt panics (panic-isolation drill).
    pub panic_sample: Option<usize>,
    /// Latency inflation: phantom tokens every draw burns from its
    /// deadline budget before producing output (a rigged slow backend).
    /// Ignored when no deadline is set; never touches cost accounting.
    pub latency_tokens: u64,
}

impl FaultSpec {
    /// Corruption at `rate`, no injected panic, no latency inflation.
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        Self { rate, seed, panic_sample: None, latency_tokens: 0 }
    }

    fn hash(&self, sample: usize, attempt: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((sample as u64) << 32)
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Whether the (sample, attempt) draw is corrupted.
    pub fn corrupts(&self, sample: usize, attempt: usize) -> bool {
        (self.hash(sample, attempt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.rate
    }

    /// Applies the deterministic corruption for this (sample, attempt).
    pub fn corrupt(&self, sample: usize, attempt: usize, text: &str) -> String {
        if !self.corrupts(sample, attempt) {
            return text.to_string();
        }
        match self.hash(sample, attempt) % 3 {
            // Hard truncation: keep less than half of the separators.
            0 => {
                let keep = text.matches(',').count() / 3;
                let mut out = String::new();
                for (i, part) in text.split_inclusive(',').enumerate() {
                    if i >= keep {
                        break;
                    }
                    out.push_str(part);
                }
                out
            }
            // Garbage: non-alphabet characters replace interior groups.
            1 => {
                let groups: Vec<&str> = text.split(',').filter(|g| !g.is_empty()).collect();
                let replaced: Vec<String> = groups
                    .iter()
                    .enumerate()
                    .map(|(i, g)| if i % 2 == 1 { "x?".to_string() } else { (*g).to_string() })
                    .collect();
                let mut out = replaced.join(",");
                out.push(',');
                out
            }
            // Total loss: empty continuation.
            _ => String::new(),
        }
    }
}

/// The declarative fault profile shared by every chaos entry point —
/// `backtest_eval --faults`, the `serve_chaos` bin, and tests all parse
/// this one format instead of growing private flag grammars.
///
/// Textual form is a comma-separated key=value list; every key optional:
/// `rate=0.4,seed=7,panic=0,latency=16,quota=4096`. `panic` is a sample
/// index (omitted = no injected panic); `quota` is a per-client
/// generated-token allowance for serve-path drills (omitted = unlimited).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Fraction of continuations corrupted, in `[0, 1]`.
    pub rate: f64,
    /// Seed decorrelating corruption decisions from sampling seeds.
    pub seed: u64,
    /// Sample index whose first attempt panics.
    pub panic_sample: Option<usize>,
    /// Phantom tokens each draw burns from its deadline budget.
    pub latency_tokens: u64,
    /// Per-client generated-token quota for serve-path chaos drills.
    pub quota_tokens: Option<u64>,
}

impl FaultProfile {
    /// Parses the `key=value,...` form. Unknown keys, repeated keys and
    /// malformed values are errors — a chaos drill with a silently-dropped
    /// knob tests the wrong thing.
    ///
    /// # Errors
    /// On unknown or repeated keys, malformed numbers, or a rate outside
    /// `[0, 1]`.
    pub fn parse(text: &str) -> Result<Self> {
        let mut profile = FaultProfile::default();
        let mut seen = Vec::new();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| invalid_param("faults", format!("`{part}` is not key=value")))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(invalid_param("faults", format!("duplicate fault key `{key}`")));
            }
            seen.push(key);
            let bad = |what: &str| invalid_param("faults", format!("`{value}` is not a {what}"));
            match key {
                "rate" => {
                    let rate: f64 = value.parse().map_err(|_| bad("number"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(invalid_param("faults", "rate must be in [0, 1]"));
                    }
                    profile.rate = rate;
                }
                "seed" => profile.seed = value.parse().map_err(|_| bad("seed"))?,
                "panic" => profile.panic_sample = Some(value.parse().map_err(|_| bad("index"))?),
                "latency" => profile.latency_tokens = value.parse().map_err(|_| bad("count"))?,
                "quota" => profile.quota_tokens = Some(value.parse().map_err(|_| bad("count"))?),
                other => {
                    return Err(invalid_param("faults", format!("unknown fault key `{other}`")))
                }
            }
        }
        Ok(profile)
    }

    /// The same profile at a different corruption rate (rate sweeps).
    pub fn with_rate(self, rate: f64) -> Self {
        Self { rate, ..self }
    }

    /// The corruption spec this profile injects.
    pub fn fault_spec(&self) -> FaultSpec {
        FaultSpec {
            rate: self.rate,
            seed: self.seed,
            panic_sample: self.panic_sample,
            latency_tokens: self.latency_tokens,
        }
    }

    /// The sample source this profile drives: fault-injected when any
    /// knob that perturbs draws is set, the untouched model otherwise.
    pub fn source(&self) -> SampleSource {
        if self.rate > 0.0 || self.panic_sample.is_some() || self.latency_tokens > 0 {
            SampleSource::FaultInjected(self.fault_spec())
        } else {
            SampleSource::Model
        }
    }
}

impl std::fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rate={},seed={}", self.rate, self.seed)?;
        if let Some(p) = self.panic_sample {
            write!(f, ",panic={p}")?;
        }
        if self.latency_tokens > 0 {
            write!(f, ",latency={}", self.latency_tokens)?;
        }
        if let Some(q) = self.quota_tokens {
            write!(f, ",quota={q}")?;
        }
        Ok(())
    }
}

/// Per-sample accounting across all of its attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Sample slot index.
    pub index: usize,
    /// Attempts consumed (1 = no retries needed).
    pub attempts: usize,
    /// Every defect observed across this sample's attempts.
    pub defects: Vec<SampleDefect>,
    /// Whether the final attempt produced a valid sample.
    pub valid: bool,
}

/// How the forecast was ultimately produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForecastOutcome {
    /// Enough valid samples survived; the forecast is their aggregate.
    Sampled,
    /// The quorum failed; the fallback forecaster produced the result
    /// (or, under [`FallbackPolicy::Error`], the call returned an error).
    Degraded {
        /// Valid samples that survived.
        valid: usize,
        /// Samples the quorum policy required.
        required: usize,
    },
}

/// Full accounting of one forecast's sampling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastReport {
    /// Samples requested by the configuration.
    pub requested_samples: usize,
    /// Samples that survived validation (possibly after retries).
    pub valid_samples: usize,
    /// Retries consumed across all samples.
    pub retries_used: usize,
    /// Non-fatal defects repaired in place by the lenient decoder.
    pub repairs_applied: usize,
    /// Per-sample records, in slot order.
    pub samples: Vec<SampleRecord>,
    /// How the forecast was produced.
    pub outcome: ForecastOutcome,
}

impl ForecastReport {
    /// Whether the fallback path produced the forecast.
    pub fn degraded(&self) -> bool {
        matches!(self.outcome, ForecastOutcome::Degraded { .. })
    }

    /// Number of defects of one class across all samples and attempts.
    pub fn defect_count(&self, class: DefectClass) -> usize {
        self.samples.iter().flat_map(|s| &s.defects).filter(|d| d.class() == class).count()
    }

    /// Total defects across all samples and attempts.
    pub fn total_defects(&self) -> usize {
        self.samples.iter().map(|s| s.defects.len()).sum()
    }

    /// Folds another report into this one (per-dimension pipelines such as
    /// LLMTime run one report per column).
    pub fn merge(&mut self, other: ForecastReport) {
        self.requested_samples += other.requested_samples;
        self.valid_samples += other.valid_samples;
        self.retries_used += other.retries_used;
        self.repairs_applied += other.repairs_applied;
        if other.degraded() && !self.degraded() {
            self.outcome = other.outcome.clone();
        }
        self.samples.extend(other.samples);
    }

    /// Folds this report's accounting into a metrics registry: per-class
    /// defect counts, retries, and the fallback counter when degraded.
    /// This is the sequential pipeline's bridge into `mc-obs` — the serve
    /// scheduler feeds the registry live through trace events instead.
    pub fn record_into(&self, metrics: &MetricsRegistry) {
        for record in &self.samples {
            for defect in &record.defects {
                metrics.incr(Counter::Defects);
                metrics.add_defect(defect.class().index());
            }
        }
        metrics.add(Counter::Retries, self.retries_used as u64);
        metrics.incr(Counter::QuorumResolves);
        if self.degraded() {
            metrics.incr(Counter::QuorumFailures);
            metrics.incr(Counter::Fallbacks);
        }
    }

    /// One-line summary for benchmark tables and logs.
    pub fn summary(&self) -> String {
        let defects: Vec<String> = DefectClass::ALL
            .iter()
            .filter_map(|&c| {
                let n = self.defect_count(c);
                (n > 0).then(|| format!("{}x{}", n, c.name()))
            })
            .collect();
        format!(
            "{}/{} valid, {} retries, {} repairs, defects [{}]{}",
            self.valid_samples,
            self.requested_samples,
            self.retries_used,
            self.repairs_applied,
            defects.join(" "),
            if self.degraded() { ", DEGRADED to fallback" } else { "" },
        )
    }
}

/// Everything a robust sampling run produced.
#[derive(Debug, Clone)]
pub struct RobustRun {
    /// Valid decoded samples (`sample -> dimension -> horizon`), slot order.
    pub samples: Vec<Vec<Vec<f64>>>,
    /// Cost summed over every attempt (failed attempts included — they
    /// were paid for).
    pub cost: InferenceCost,
    /// Accounting for `last_report`.
    pub report: ForecastReport,
    /// Whether enough valid samples survived to aggregate.
    pub quorum_met: bool,
}

/// Outcome of a single (sample, attempt) draw.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The draw and decode completed (possibly with defects — fatal ones
    /// invalidate the sample, non-fatal ones were repaired in place).
    Done {
        /// Decoded values (`dimension -> horizon`).
        decoded: Vec<Vec<f64>>,
        /// Generated-token cost of this attempt (failed attempts included —
        /// they were paid for).
        cost: InferenceCost,
        /// Defects observed on this attempt's text and decoded values.
        defects: Vec<SampleDefect>,
    },
    /// An infrastructure failure (unencodable prompt, decode bug) — never
    /// a sample defect; fails the whole run.
    Infra(TsError),
    /// The draw or decode panicked (isolated via `catch_unwind`).
    Panicked(String),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The virtual sampler index of `(sample, attempt)` in a run of `samples`
/// draws: attempt 0 uses index `sample` (identical seeds to the plain
/// pipeline), retry `r` uses `samples + (r - 1) * samples + sample`, which
/// reseeds deterministically without colliding with any first-attempt seed.
pub fn virtual_index(samples: usize, sample: usize, attempt: usize) -> usize {
    if attempt == 0 {
        sample
    } else {
        samples + (attempt - 1) * samples + sample
    }
}

/// The decode budget an attempt actually receives: the caller's remaining
/// deadline slice, shrunk by the fault profile's latency inflation (a
/// rigged slow backend burns budget before emitting a single token).
/// `None` means no deadline is in force.
pub fn effective_budget(source: SampleSource, budget: Option<u64>) -> Option<u64> {
    let remaining = budget?;
    let latency = match source {
        SampleSource::Model => 0,
        SampleSource::FaultInjected(f) => f.latency_tokens,
    };
    Some(remaining.saturating_sub(latency))
}

/// Runs one `(sample, attempt)` draw with panic isolation: injected-panic
/// check, deadline check, `draw`, deterministic corruption, text + decoded
/// validation. Pure with respect to scheduling — the outcome depends only
/// on the arguments, never on which thread runs it or what other samples
/// are in flight, which is what makes round-based retries
/// ([`run_attempts`]) and work-stealing schedulers ([`crate::serve`])
/// bit-identical.
///
/// `budget` is the sample's remaining deadline slice in generated tokens
/// (`None` = no deadline). A zero effective budget settles immediately
/// with a fatal [`SampleDefect::DeadlineExpired`] and zero cost — the
/// draw never starts. Otherwise the effective budget is handed to `draw`,
/// which should cancel cooperatively mid-continuation when it runs dry;
/// the truncated text then flows through ordinary defect validation.
pub fn execute_attempt(
    source: SampleSource,
    sample: usize,
    attempt: usize,
    expect: &SampleExpectations,
    budget: Option<u64>,
    draw: impl FnOnce(Option<u64>) -> Result<(String, InferenceCost)>,
    decode: impl FnOnce(&str) -> Result<Vec<Vec<f64>>>,
) -> AttemptOutcome {
    let result = catch_unwind(AssertUnwindSafe(move || -> Result<AttemptOutcome> {
        if let SampleSource::FaultInjected(f) = source {
            if f.panic_sample == Some(sample) && attempt == 0 {
                panic!("injected panic (sample {sample})");
            }
        }
        let effective = effective_budget(source, budget);
        if effective == Some(0) {
            return Ok(AttemptOutcome::Done {
                decoded: Vec::new(),
                cost: InferenceCost::default(),
                defects: vec![SampleDefect::DeadlineExpired { budget: budget.unwrap_or(0) }],
            });
        }
        let (text, cost) = draw(effective)?;
        let text = match source {
            SampleSource::Model => text,
            SampleSource::FaultInjected(f) => f.corrupt(sample, attempt, &text),
        };
        let mut defects = validate_text(&text, expect);
        let values = decode(&text)?;
        defects.extend(validate_decoded(&values, expect));
        Ok(AttemptOutcome::Done { decoded: values, cost, defects })
    }));
    match result {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => AttemptOutcome::Infra(e),
        Err(payload) => AttemptOutcome::Panicked(panic_message(payload)),
    }
}

/// What the caller should do with a sample after applying an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptDisposition {
    /// The sample is settled (valid, out of retries, or the run failed).
    Settled,
    /// Re-draw the sample at the given attempt number.
    Retry {
        /// The next attempt number for this sample.
        attempt: usize,
    },
}

/// Incremental bookkeeping of a robust run: one [`AttemptOutcome`] at a
/// time, in any order, from any scheduler. [`run_attempts`] drives it
/// round-by-round with scoped threads; [`crate::serve`] drives it from a
/// shared worker pool interleaved with other requests. Because
/// [`execute_attempt`] is scheduling-independent and this struct folds
/// outcomes per-sample, both schedules produce identical final
/// [`RobustRun`]s.
#[derive(Debug)]
pub struct RobustProgress {
    samples: usize,
    policy: RobustPolicy,
    records: Vec<SampleRecord>,
    decoded: Vec<Option<Vec<Vec<f64>>>>,
    cost: InferenceCost,
    spent: Vec<u64>,
    outstanding: usize,
    failed: Option<TsError>,
}

impl RobustProgress {
    /// Fresh progress for a run of `samples` draws.
    ///
    /// # Errors
    /// When `samples` is zero.
    pub fn new(samples: usize, policy: RobustPolicy) -> Result<Self> {
        if samples == 0 {
            return Err(invalid_param("samples", "at least one sample required"));
        }
        Ok(Self {
            samples,
            policy,
            records: (0..samples)
                .map(|index| SampleRecord { index, attempts: 0, defects: Vec::new(), valid: false })
                .collect(),
            decoded: vec![None; samples],
            cost: InferenceCost::default(),
            spent: vec![0; samples],
            outstanding: samples,
            failed: None,
        })
    }

    /// Samples this run draws.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Whether every sample has settled (valid, exhausted, or failed).
    pub fn settled(&self) -> bool {
        self.outstanding == 0
    }

    /// Whether an infrastructure error has failed the run.
    pub fn failed(&self) -> bool {
        self.failed.is_some()
    }

    /// Generated-token cost absorbed so far across every applied attempt.
    pub fn cost(&self) -> InferenceCost {
        self.cost
    }

    /// The deadline budget left for `sample`'s next attempt: its policy
    /// slice minus the generated tokens its prior attempts consumed.
    /// `None` when no deadline is in force. A sample's attempt chain is
    /// strictly sequential under every scheduler, so this depends only on
    /// the sample's own history — never on interleaving.
    pub fn remaining_budget(&self, sample: usize) -> Option<u64> {
        self.policy
            .sample_budget(self.samples)
            .map(|slice| slice.saturating_sub(self.spent.get(sample).copied().unwrap_or(slice)))
    }

    /// Folds one attempt's outcome into the run and says whether the
    /// sample retries. Cost is absorbed on every completed draw, valid or
    /// not — failed attempts were paid for.
    pub fn apply(
        &mut self,
        sample: usize,
        attempt: usize,
        outcome: AttemptOutcome,
    ) -> AttemptDisposition {
        self.records[sample].attempts += 1;
        match outcome {
            AttemptOutcome::Done { decoded, cost, defects } => {
                self.cost.absorb(cost);
                self.spent[sample] += cost.generated_tokens;
                let fatal = defects.iter().any(SampleDefect::is_fatal);
                let expired = defects.iter().any(|d| d.class() == DefectClass::DeadlineExpired);
                self.records[sample].defects.extend(defects);
                if !fatal {
                    self.decoded[sample] = Some(decoded);
                    self.records[sample].valid = true;
                    self.outstanding -= 1;
                    return AttemptDisposition::Settled;
                }
                if expired {
                    // The budget cannot grow back — retrying would only
                    // burn queue slots to reach the same expiry.
                    self.outstanding -= 1;
                    return AttemptDisposition::Settled;
                }
            }
            AttemptOutcome::Infra(e) => {
                if self.failed.is_none() {
                    self.failed = Some(e);
                }
                self.outstanding -= 1;
                return AttemptDisposition::Settled;
            }
            AttemptOutcome::Panicked(message) => {
                self.records[sample].defects.push(SampleDefect::Panicked { message });
            }
        }
        if self.failed.is_none() && attempt < self.policy.max_retries {
            AttemptDisposition::Retry { attempt: attempt + 1 }
        } else {
            // Out of retries — or the run already failed on another sample,
            // in which case further draws would be wasted work.
            self.outstanding -= 1;
            AttemptDisposition::Settled
        }
    }

    /// Finalizes the run: quorum check, retry/repair accounting, report.
    ///
    /// # Errors
    /// The first infrastructure error applied, if any.
    pub fn finish(self) -> Result<RobustRun> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let valid: Vec<Vec<Vec<f64>>> = self.decoded.into_iter().flatten().collect();
        let required = self.policy.required_valid(self.samples);
        let quorum_met = valid.len() >= required;
        let retries_used = self.records.iter().map(|r| r.attempts.saturating_sub(1)).sum();
        let repairs_applied =
            self.records.iter().flat_map(|r| &r.defects).filter(|d| !d.is_fatal()).count();
        let report = ForecastReport {
            requested_samples: self.samples,
            valid_samples: valid.len(),
            retries_used,
            repairs_applied,
            samples: self.records,
            outcome: if quorum_met {
                ForecastOutcome::Sampled
            } else {
                ForecastOutcome::Degraded { valid: valid.len(), required }
            },
        };
        Ok(RobustRun { samples: valid, cost: self.cost, report, quorum_met })
    }
}

/// Runs `samples` continuations with validation, bounded retry-with-reseed
/// and panic isolation; returns the valid decodings, summed cost and the
/// full [`ForecastReport`].
///
/// Sample `i`'s first attempt uses sampler index `i` (identical seeds to
/// the plain pipeline, so defect-free runs reproduce it exactly); retry
/// `r` uses index `samples + (r - 1) * samples + i`, which reseeds
/// deterministically without colliding with any first-attempt seed.
///
/// # Errors
/// On infrastructure failures (unencodable prompt, decode bugs) — never
/// because of a defective sample; those are retried and reported.
pub fn run_samples_robust<D>(
    spec: &ContinuationSpec,
    samples: usize,
    policy: RobustPolicy,
    source: SampleSource,
    expect: &SampleExpectations,
    sampler_for: impl Fn(usize) -> SamplerConfig + Sync,
    decode: D,
) -> Result<RobustRun>
where
    D: Fn(&str) -> Result<Vec<Vec<f64>>> + Sync,
{
    // The refit-per-attempt path has no session-level decode budget; the
    // pre-draw deadline check in `execute_attempt` still applies.
    run_attempts(
        samples,
        policy,
        source,
        expect,
        |vi, _budget| run_continuation(spec, sampler_for(vi)),
        decode,
    )
}

/// The backend-agnostic core of [`run_samples_robust`]: `draw` maps a
/// virtual sampler index to one generated continuation (text + cost), and
/// this function supplies the validation / retry / quorum / panic-isolation
/// machinery around it. The [`crate::engine::ForecastEngine`] passes a
/// `draw` that forks sessions off one prompt-conditioned
/// [`mc_lm::FrozenLm`]; [`run_samples_robust`] passes one that refits per
/// attempt. Virtual-index semantics are documented on
/// [`run_samples_robust`].
///
/// # Errors
/// On infrastructure failures surfaced by `draw` or `decode` — never
/// because of a defective sample; those are retried and reported.
pub fn run_attempts<Draw, D>(
    samples: usize,
    policy: RobustPolicy,
    source: SampleSource,
    expect: &SampleExpectations,
    draw: Draw,
    decode: D,
) -> Result<RobustRun>
where
    Draw: Fn(usize, Option<u64>) -> Result<(String, InferenceCost)> + Sync,
    D: Fn(&str) -> Result<Vec<Vec<f64>>> + Sync,
{
    let mut progress = RobustProgress::new(samples, policy)?;
    let mut pending: Vec<(usize, usize)> = (0..samples).map(|i| (i, 0)).collect();

    while !pending.is_empty() && !progress.failed() {
        let budgets: Vec<Option<u64>> =
            pending.iter().map(|&(i, _)| progress.remaining_budget(i)).collect();
        let mut outcomes: Vec<Option<AttemptOutcome>> = Vec::new();
        outcomes.resize_with(pending.len(), || None);
        std::thread::scope(|s| {
            for ((slot, &(i, attempt)), &budget) in outcomes.iter_mut().zip(&pending).zip(&budgets)
            {
                let draw = &draw;
                let decode = &decode;
                let expect = &*expect;
                s.spawn(move || {
                    let vi = virtual_index(samples, i, attempt);
                    *slot = Some(execute_attempt(
                        source,
                        i,
                        attempt,
                        expect,
                        budget,
                        |b| draw(vi, b),
                        |text| decode(text),
                    ));
                });
            }
        });
        let mut next = Vec::new();
        for (outcome, (i, attempt)) in outcomes.into_iter().zip(pending) {
            if progress.failed() {
                break;
            }
            let outcome = outcome.expect("scoped thread filled its slot");
            if let AttemptDisposition::Retry { attempt } = progress.apply(i, attempt, outcome) {
                next.push((i, attempt));
            }
        }
        pending = next;
    }
    progress.finish()
}

/// The graceful-degradation forecast: seasonal-naive (ACF-estimated
/// period, last-value fallback) on every dimension of the history.
pub fn fallback_forecast(train: &MultivariateSeries, horizon: usize) -> Result<MultivariateSeries> {
    PerDimension(FallbackForecaster::default()).forecast(train, horizon)
}

/// Resolves a failed quorum per the policy: a typed error, or the
/// fallback forecast.
pub fn resolve_quorum_failure(
    policy: RobustPolicy,
    report: &ForecastReport,
    train: &MultivariateSeries,
    horizon: usize,
) -> Result<MultivariateSeries> {
    match policy.fallback {
        FallbackPolicy::Error => {
            let (valid, required) = match report.outcome {
                ForecastOutcome::Degraded { valid, required } => (valid, required),
                ForecastOutcome::Sampled => (report.valid_samples, policy.min_valid_samples),
            };
            Err(TsError::SampleQuorum { valid, required })
        }
        FallbackPolicy::SeasonalNaive => fallback_forecast(train, horizon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_lm::presets::ModelPreset;
    use mc_lm::vocab::Vocab;
    use proptest::prelude::*;

    fn numeric_expect(
        separators: usize,
        group_width: usize,
        dims: usize,
        horizon: usize,
    ) -> SampleExpectations {
        SampleExpectations {
            separators,
            group_width,
            alphabet: "0123456789".into(),
            numeric: true,
            dims,
            horizon,
        }
    }

    fn spec(prompt: &str, separators: usize) -> ContinuationSpec {
        ContinuationSpec {
            prompt: prompt.into(),
            vocab: Vocab::numeric(),
            allowed_chars: "0123456789,".into(),
            preset: ModelPreset::Large,
            separators,
            max_tokens: 200,
            refit_epoch: 0,
        }
    }

    #[test]
    fn validate_text_catches_each_class() {
        let expect = numeric_expect(3, 2, 1, 3);
        assert!(validate_text("12,34,56,", &expect).is_empty());
        let d = validate_text("12,34,", &expect);
        assert_eq!(d, vec![SampleDefect::Truncated { expected: 3, got: 2 }]);
        let d = validate_text("12,345,67,", &expect);
        assert_eq!(d, vec![SampleDefect::WrongGroupWidth { group: 1, expected: 2, got: 3 }]);
        let d = validate_text("12,x?,56,", &expect);
        assert_eq!(d, vec![SampleDefect::NonNumericGroup { group: 1 }]);
        let sax = SampleExpectations { numeric: false, alphabet: "abcde".into(), ..expect };
        let d = validate_text("ab,zz,cd,", &sax);
        assert_eq!(d, vec![SampleDefect::OutOfBandCode { group: 1, symbol: 'z' }]);
    }

    #[test]
    fn validate_decoded_catches_shape_and_nan() {
        let expect = numeric_expect(2, 2, 2, 2);
        assert!(validate_decoded(&[vec![1.0, 2.0], vec![3.0, 4.0]], &expect).is_empty());
        let d = validate_decoded(&[vec![1.0, 2.0]], &expect);
        assert!(matches!(d[0], SampleDefect::ShapeMismatch { .. }));
        let d = validate_decoded(&[vec![1.0, f64::NAN], vec![3.0, 4.0]], &expect);
        assert_eq!(d, vec![SampleDefect::NonFinite { dim: 0, index: 1 }]);
    }

    #[test]
    fn fatality_split_matches_repair_semantics() {
        assert!(!SampleDefect::WrongGroupWidth { group: 0, expected: 2, got: 3 }.is_fatal());
        // Lost 1 of 4 separators: repairable; lost 3 of 4: fatal.
        assert!(!SampleDefect::Truncated { expected: 4, got: 3 }.is_fatal());
        assert!(SampleDefect::Truncated { expected: 4, got: 1 }.is_fatal());
        assert!(SampleDefect::NonNumericGroup { group: 0 }.is_fatal());
        assert!(SampleDefect::Panicked { message: "x".into() }.is_fatal());
    }

    #[test]
    fn fault_spec_is_deterministic_and_rate_bounded() {
        let f = FaultSpec::with_rate(0.5, 42);
        let a: Vec<bool> = (0..64).map(|i| f.corrupts(i, 0)).collect();
        let b: Vec<bool> = (0..64).map(|i| f.corrupts(i, 0)).collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&x| x).count();
        assert!(hits > 16 && hits < 48, "rate 0.5 should corrupt roughly half: {hits}");
        assert!(!FaultSpec::with_rate(0.0, 1).corrupts(3, 0));
        assert!(FaultSpec::with_rate(1.0, 1).corrupts(3, 0));
    }

    #[test]
    fn corruption_produces_detectable_defects() {
        let f = FaultSpec::with_rate(1.0, 9);
        let clean = "123,456,789,012,345,678,";
        let expect = numeric_expect(6, 3, 1, 6);
        // Whatever kind fires, validation must flag the corrupted text.
        for sample in 0..6 {
            let bad = f.corrupt(sample, 0, clean);
            assert_ne!(bad, clean, "sample {sample} should be corrupted");
            let defects = validate_text(&bad, &expect);
            assert!(!defects.is_empty(), "corruption of sample {sample} went undetected: {bad:?}");
        }
    }

    #[test]
    fn robust_run_clean_backend_uses_first_attempt_seeds() {
        let s = spec(&"017,023,".repeat(20), 2);
        let expect = numeric_expect(2, 3, 1, 2);
        let decode = |text: &str| -> Result<Vec<Vec<f64>>> {
            Ok(vec![text.split(',').filter(|g| !g.is_empty()).map(|g| g.len() as f64).collect()])
        };
        let sampler_for =
            |i: usize| SamplerConfig { seed: 10 + i as u64, ..SamplerConfig::default() };
        let run = run_samples_robust(
            &s,
            4,
            RobustPolicy::default(),
            SampleSource::Model,
            &expect,
            sampler_for,
            decode,
        )
        .unwrap();
        assert_eq!(run.samples.len(), 4);
        assert!(run.quorum_met);
        assert_eq!(run.report.retries_used, 0);
        assert_eq!(run.report.outcome, ForecastOutcome::Sampled);
        // Identical to the plain pipeline on the same seeds.
        let (plain, plain_cost) = crate::pipeline::run_samples(&s, 4, sampler_for, |t| {
            Ok(vec![t.split(',').filter(|g| !g.is_empty()).map(|g| g.len() as f64).collect()])
        })
        .unwrap();
        assert_eq!(run.samples, plain);
        assert_eq!(run.cost, plain_cost);
    }

    #[test]
    fn injected_panic_becomes_defect_and_sample_recovers() {
        let s = spec(&"042,".repeat(30), 3);
        let expect = numeric_expect(3, 3, 1, 3);
        let decode = |text: &str| -> Result<Vec<Vec<f64>>> {
            Ok(vec![text
                .split(',')
                .filter(|g| !g.is_empty())
                .map(|g| g.parse::<f64>().unwrap_or(0.0))
                .take(3)
                .collect::<Vec<f64>>()])
        };
        // Decode above can yield fewer than 3 values on truncation; shape
        // validation flags that, which is exactly what we want to exercise.
        let source = SampleSource::FaultInjected(FaultSpec {
            rate: 0.0,
            seed: 0,
            panic_sample: Some(1),
            latency_tokens: 0,
        });
        let run = run_samples_robust(
            &s,
            3,
            RobustPolicy::default(),
            source,
            &expect,
            |i| SamplerConfig { seed: i as u64, ..SamplerConfig::default() },
            decode,
        )
        .unwrap();
        assert_eq!(run.report.defect_count(DefectClass::Panicked), 1);
        assert_eq!(run.report.samples[1].attempts, 2, "panicked sample retried once");
        assert!(run.report.samples[1].valid, "retry must recover the sample");
        assert_eq!(run.report.retries_used, 1);
        assert_eq!(run.samples.len(), 3);
    }

    #[test]
    fn total_corruption_fails_quorum_without_panicking() {
        let s = spec(&"042,".repeat(30), 3);
        let expect = numeric_expect(3, 3, 1, 3);
        let decode = |_: &str| -> Result<Vec<Vec<f64>>> { Ok(vec![vec![0.0; 3]]) };
        let source = SampleSource::FaultInjected(FaultSpec::with_rate(1.0, 5));
        let policy = RobustPolicy { max_retries: 1, min_valid_samples: 2, ..Default::default() };
        let run = run_samples_robust(
            &s,
            3,
            policy,
            source,
            &expect,
            |i| SamplerConfig { seed: i as u64, ..SamplerConfig::default() },
            decode,
        )
        .unwrap();
        assert!(!run.quorum_met);
        assert!(run.report.degraded());
        assert_eq!(run.report.retries_used, 3, "every sample used its retry");
        assert!(run.report.total_defects() >= 6, "every attempt was defective");
    }

    #[test]
    fn fallback_forecast_has_correct_shape() {
        let a: Vec<f64> = (0..48).map(|t| ((t % 8) as f64) + 1.0).collect();
        let b: Vec<f64> = (0..48).map(|t| t as f64).collect();
        let train =
            MultivariateSeries::from_columns(vec!["s".into(), "r".into()], vec![a, b]).unwrap();
        let fc = fallback_forecast(&train, 10).unwrap();
        assert_eq!(fc.dims(), 2);
        assert_eq!(fc.len(), 10);
        assert!(fc.columns().iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn quorum_error_policy_yields_typed_error() {
        let report = ForecastReport {
            requested_samples: 3,
            valid_samples: 1,
            retries_used: 6,
            repairs_applied: 0,
            samples: Vec::new(),
            outcome: ForecastOutcome::Degraded { valid: 1, required: 3 },
        };
        let train = MultivariateSeries::from_columns(
            vec!["x".into()],
            vec![(0..16).map(|t| t as f64).collect()],
        )
        .unwrap();
        let policy = RobustPolicy { fallback: FallbackPolicy::Error, ..Default::default() };
        let err = resolve_quorum_failure(policy, &report, &train, 4).unwrap_err();
        assert_eq!(err, TsError::SampleQuorum { valid: 1, required: 3 });
        let policy = RobustPolicy { fallback: FallbackPolicy::SeasonalNaive, ..Default::default() };
        let fc = resolve_quorum_failure(policy, &report, &train, 4).unwrap();
        assert_eq!(fc.len(), 4);
    }

    #[test]
    fn virtual_index_first_attempts_match_plain_pipeline() {
        // Attempt 0 uses the sample's own index; retries never collide
        // with any first-attempt index or each other.
        let samples = 5;
        let mut seen = std::collections::HashSet::new();
        for attempt in 0..4 {
            for i in 0..samples {
                let vi = virtual_index(samples, i, attempt);
                if attempt == 0 {
                    assert_eq!(vi, i);
                }
                assert!(seen.insert(vi), "virtual index {vi} collided");
            }
        }
    }

    #[test]
    fn progress_applies_outcomes_incrementally() {
        let policy = RobustPolicy { max_retries: 1, ..RobustPolicy::default() };
        let mut progress = RobustProgress::new(2, policy).unwrap();
        assert!(RobustProgress::new(0, policy).is_err());
        assert!(!progress.settled());
        // Sample 0 panics, retries, then succeeds; sample 1 succeeds flat.
        let d = progress.apply(0, 0, AttemptOutcome::Panicked("boom".into()));
        assert_eq!(d, AttemptDisposition::Retry { attempt: 1 });
        let done = |gen: u64| AttemptOutcome::Done {
            decoded: vec![vec![1.0, 2.0]],
            cost: InferenceCost { generated_tokens: gen, ..Default::default() },
            defects: Vec::new(),
        };
        assert_eq!(progress.apply(1, 0, done(10)), AttemptDisposition::Settled);
        assert!(!progress.settled());
        assert_eq!(progress.apply(0, 1, done(7)), AttemptDisposition::Settled);
        assert!(progress.settled());
        assert_eq!(progress.cost().generated_tokens, 17);
        let run = progress.finish().unwrap();
        assert_eq!(run.samples.len(), 2);
        assert!(run.quorum_met);
        assert_eq!(run.report.retries_used, 1);
        assert_eq!(run.report.defect_count(DefectClass::Panicked), 1);
    }

    #[test]
    fn progress_stops_retrying_after_infra_failure() {
        let policy = RobustPolicy { max_retries: 2, ..RobustPolicy::default() };
        let mut progress = RobustProgress::new(2, policy).unwrap();
        let err = invalid_param("x", "boom");
        assert_eq!(progress.apply(0, 0, AttemptOutcome::Infra(err)), AttemptDisposition::Settled);
        assert!(progress.failed());
        // A fatally-defective sample would normally retry; after failure it
        // settles immediately.
        let bad = AttemptOutcome::Done {
            decoded: vec![vec![f64::NAN, 1.0]],
            cost: InferenceCost::default(),
            defects: vec![SampleDefect::NonFinite { dim: 0, index: 0 }],
        };
        assert_eq!(progress.apply(1, 0, bad), AttemptDisposition::Settled);
        assert!(progress.settled());
        assert!(progress.finish().is_err());
    }

    #[test]
    fn execute_attempt_isolates_draw_panics() {
        let expect = numeric_expect(2, 2, 1, 2);
        let outcome = execute_attempt(
            SampleSource::Model,
            0,
            0,
            &expect,
            None,
            |_| panic!("draw exploded"),
            |_| Ok(vec![vec![1.0, 2.0]]),
        );
        match outcome {
            AttemptOutcome::Panicked(msg) => assert!(msg.contains("draw exploded"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Injected panic fires before the draw runs (no cost incurred).
        let source = SampleSource::FaultInjected(FaultSpec {
            rate: 0.0,
            seed: 0,
            panic_sample: Some(3),
            latency_tokens: 0,
        });
        let outcome = execute_attempt(
            source,
            3,
            0,
            &expect,
            None,
            |_| {
                panic!("draw must not run when the injected panic fires first");
            },
            |_| Ok(vec![vec![1.0, 2.0]]),
        );
        match outcome {
            AttemptOutcome::Panicked(msg) => assert!(msg.contains("injected panic"), "{msg}"),
            other => panic!("expected injected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn report_summary_and_merge() {
        let mut a = ForecastReport {
            requested_samples: 5,
            valid_samples: 4,
            retries_used: 2,
            repairs_applied: 1,
            samples: vec![SampleRecord {
                index: 0,
                attempts: 2,
                defects: vec![SampleDefect::NonNumericGroup { group: 0 }],
                valid: true,
            }],
            outcome: ForecastOutcome::Sampled,
        };
        let b = ForecastReport {
            requested_samples: 5,
            valid_samples: 0,
            retries_used: 10,
            repairs_applied: 0,
            samples: Vec::new(),
            outcome: ForecastOutcome::Degraded { valid: 0, required: 1 },
        };
        a.merge(b);
        assert_eq!(a.requested_samples, 10);
        assert_eq!(a.retries_used, 12);
        assert!(a.degraded());
        let s = a.summary();
        assert!(s.contains("4/10 valid"), "{s}");
        assert!(s.contains("1xnon-numeric"), "{s}");
        assert!(s.contains("DEGRADED"), "{s}");
    }

    #[test]
    fn zero_budget_settles_with_deadline_defect_and_zero_cost() {
        let expect = numeric_expect(2, 2, 1, 2);
        let outcome = execute_attempt(
            SampleSource::Model,
            0,
            0,
            &expect,
            Some(0),
            |_| panic!("draw must not run on an exhausted budget"),
            |_| Ok(vec![vec![1.0, 2.0]]),
        );
        match outcome {
            AttemptOutcome::Done { decoded, cost, defects } => {
                assert!(decoded.is_empty());
                assert_eq!(cost, InferenceCost::default(), "an expired attempt costs nothing");
                assert_eq!(defects, vec![SampleDefect::DeadlineExpired { budget: 0 }]);
                assert!(defects[0].is_fatal());
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
    }

    #[test]
    fn latency_inflation_consumes_budget_before_the_draw() {
        let expect = numeric_expect(2, 2, 1, 2);
        let spec = FaultSpec { rate: 0.0, seed: 0, panic_sample: None, latency_tokens: 8 };
        let source = SampleSource::FaultInjected(spec);
        assert_eq!(effective_budget(source, Some(20)), Some(12));
        assert_eq!(effective_budget(source, Some(5)), Some(0), "latency saturates, not wraps");
        assert_eq!(effective_budget(source, None), None, "no deadline, no inflation");
        assert_eq!(effective_budget(SampleSource::Model, Some(5)), Some(5));
        // A budget the latency fully consumes expires without drawing.
        let outcome = execute_attempt(
            source,
            0,
            0,
            &expect,
            Some(8),
            |_| panic!("latency ate the whole slice; the draw must not run"),
            |_| Ok(vec![vec![1.0, 2.0]]),
        );
        match outcome {
            AttemptOutcome::Done { defects, .. } => {
                assert_eq!(defects, vec![SampleDefect::DeadlineExpired { budget: 8 }]);
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        // With room left, the draw receives the *inflated* remainder.
        let outcome = execute_attempt(
            source,
            0,
            0,
            &expect,
            Some(20),
            |b| {
                assert_eq!(b, Some(12));
                Ok(("12,34,".to_string(), InferenceCost::default()))
            },
            |_| Ok(vec![vec![1.0, 2.0]]),
        );
        assert!(matches!(outcome, AttemptOutcome::Done { ref defects, .. } if defects.is_empty()));
    }

    #[test]
    fn deadline_expiry_never_retries() {
        let policy =
            RobustPolicy { max_retries: 3, deadline_tokens: Some(10), ..RobustPolicy::default() };
        let mut progress = RobustProgress::new(2, policy).unwrap();
        assert_eq!(progress.remaining_budget(0), Some(5), "10 tokens split over 2 samples");
        // Sample 0 burns its slice on a fatally-defective attempt...
        let bad = AttemptOutcome::Done {
            decoded: Vec::new(),
            cost: InferenceCost { generated_tokens: 5, ..Default::default() },
            defects: vec![SampleDefect::NonNumericGroup { group: 0 }],
        };
        assert_eq!(progress.apply(0, 0, bad), AttemptDisposition::Retry { attempt: 1 });
        assert_eq!(progress.remaining_budget(0), Some(0));
        // ...and the expiry outcome settles despite the retry budget.
        let expired = AttemptOutcome::Done {
            decoded: Vec::new(),
            cost: InferenceCost::default(),
            defects: vec![SampleDefect::DeadlineExpired { budget: 0 }],
        };
        assert_eq!(progress.apply(0, 1, expired), AttemptDisposition::Settled);
        // Sample 1's slice is untouched by sample 0's spending.
        assert_eq!(progress.remaining_budget(1), Some(5));
        let ok = AttemptOutcome::Done {
            decoded: vec![vec![1.0, 2.0]],
            cost: InferenceCost { generated_tokens: 3, ..Default::default() },
            defects: Vec::new(),
        };
        assert_eq!(progress.apply(1, 0, ok), AttemptDisposition::Settled);
        let run = progress.finish().unwrap();
        assert_eq!(run.report.valid_samples, 1);
        assert_eq!(run.report.defect_count(DefectClass::DeadlineExpired), 1);
    }

    #[test]
    fn deadline_degrades_run_to_quorum_fallback() {
        let s = spec(&"042,".repeat(30), 3);
        let expect = numeric_expect(3, 3, 1, 3);
        let decode = |text: &str| -> Result<Vec<Vec<f64>>> {
            Ok(vec![text
                .split(',')
                .filter(|g| !g.is_empty())
                .map(|g| g.parse::<f64>().unwrap_or(0.0))
                .collect::<Vec<f64>>()])
        };
        // 0 total tokens: every sample's slice is 0, every attempt expires
        // pre-draw, and the run degrades without a single retry.
        let policy = RobustPolicy { deadline_tokens: Some(0), ..RobustPolicy::default() };
        let run = run_samples_robust(
            &s,
            3,
            policy,
            SampleSource::Model,
            &expect,
            |i| SamplerConfig { seed: i as u64, ..SamplerConfig::default() },
            decode,
        )
        .unwrap();
        assert!(!run.quorum_met);
        assert_eq!(run.report.defect_count(DefectClass::DeadlineExpired), 3);
        assert_eq!(run.report.retries_used, 0, "expired samples never retry");
        assert_eq!(run.cost, InferenceCost::default(), "expired attempts cost nothing");
    }

    #[test]
    fn sample_budget_and_backoff_delay_shapes() {
        let policy =
            RobustPolicy { deadline_tokens: Some(100), backoff_base: 4, ..RobustPolicy::default() };
        assert_eq!(policy.sample_budget(4), Some(25));
        assert_eq!(policy.sample_budget(0), Some(100), "clamped divisor");
        assert_eq!(RobustPolicy::default().sample_budget(4), None);
        assert_eq!(policy.backoff_delay(0), 0, "first attempts never wait");
        assert_eq!(policy.backoff_delay(1), 4);
        assert_eq!(policy.backoff_delay(2), 8);
        assert_eq!(policy.backoff_delay(3), 16);
        assert_eq!(policy.backoff_delay(60), 1024, "bounded, not unbounded-exponential");
        assert_eq!(RobustPolicy::default().backoff_delay(3), 0, "base 0 disables backoff");
    }

    #[test]
    fn fault_profile_parses_and_roundtrips() {
        let p = FaultProfile::parse("rate=0.4,seed=7,panic=0,latency=16,quota=4096").unwrap();
        assert_eq!(
            p,
            FaultProfile {
                rate: 0.4,
                seed: 7,
                panic_sample: Some(0),
                latency_tokens: 16,
                quota_tokens: Some(4096),
            }
        );
        assert_eq!(FaultProfile::parse(&p.to_string()).unwrap(), p, "Display round-trips");
        assert_eq!(FaultProfile::parse("").unwrap(), FaultProfile::default());
        assert_eq!(FaultProfile::parse(" rate=0.1 , seed=3 ").unwrap().seed, 3);
        assert!(FaultProfile::parse("rate=2.0").is_err(), "rate outside [0,1]");
        assert!(FaultProfile::parse("bogus=1").is_err(), "unknown keys rejected");
        assert!(FaultProfile::parse("rate").is_err(), "bare keys rejected");
        assert!(FaultProfile::parse("seed=x").is_err(), "malformed numbers rejected");
        assert!(FaultProfile::parse("rate=0.1,rate=0.9").is_err(), "repeated keys rejected");
    }

    /// Keys and values, valid and not, that generated `key=value` lists
    /// draw from, so a good share of them parse and exercise the round
    /// trip.
    const PROFILE_KEYS: [&str; 6] = ["rate", "seed", "panic", "latency", "quota", "bogus"];
    const PROFILE_VALUES: [&str; 9] =
        ["0", "1", "0.25", "7", "-1", "1e3", "18446744073709551616", "", " x"];

    fn assert_display_round_trips(text: &str) -> std::result::Result<(), TestCaseError> {
        if let Ok(p) = FaultProfile::parse(text) {
            prop_assert_eq!(FaultProfile::parse(&p.to_string()).ok(), Some(p), "from {text:?}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Untrusted profile text parses or errors, never panics, and a
        /// profile that parses reprints to text that parses back to it.
        #[test]
        fn fault_profile_parse_is_total_and_display_stable(
            printable in "[ -~]{0,48}",
            entries in prop::collection::vec(
                (0usize..PROFILE_KEYS.len(), 0usize..PROFILE_VALUES.len()),
                0..6,
            ),
        ) {
            assert_display_round_trips(&printable)?;
            let list: Vec<String> = entries
                .iter()
                .map(|&(k, v)| format!("{}={}", PROFILE_KEYS[k], PROFILE_VALUES[v]))
                .collect();
            assert_display_round_trips(&list.join(","))?;
        }

        /// Every valid profile round-trips through its `Display` form.
        #[test]
        fn every_valid_fault_profile_round_trips(
            rate in 0.0f64..1.0,
            full_rate in any::<bool>(),
            seed in any::<u64>(),
            panic_sample in (any::<bool>(), 0usize..64),
            latency_tokens in any::<u64>(),
            quota_tokens in (any::<bool>(), any::<u64>()),
        ) {
            let p = FaultProfile {
                rate: if full_rate { 1.0 } else { rate },
                seed,
                panic_sample: panic_sample.0.then_some(panic_sample.1),
                latency_tokens,
                quota_tokens: quota_tokens.0.then_some(quota_tokens.1),
            };
            prop_assert_eq!(FaultProfile::parse(&p.to_string()).ok(), Some(p));
        }

        /// Repeating any key is an error — never a silent last-one-wins —
        /// wherever the repeat sits and whatever value it carries.
        #[test]
        fn repeating_any_fault_key_is_an_error(
            mask in 0u32..32,
            repeated in 0usize..5,
            at in 0usize..6,
            values in (0u64..1001, any::<u64>(), 0usize..64, any::<u64>(), any::<u64>()),
        ) {
            let pairs = [
                format!("rate={}", values.0 as f64 / 1000.0),
                format!("seed={}", values.1),
                format!("panic={}", values.2),
                format!("latency={}", values.3),
                format!("quota={}", values.4),
            ];
            let mut parts: Vec<&str> = (0..5)
                .filter(|&k| k == repeated || mask & (1 << k) != 0)
                .map(|k| pairs[k].as_str())
                .collect();
            prop_assert!(FaultProfile::parse(&parts.join(",")).is_ok());
            parts.insert(at.min(parts.len()), pairs[repeated].as_str());
            prop_assert!(FaultProfile::parse(&parts.join(",")).is_err(), "{:?}", parts);
        }
    }

    #[test]
    fn fault_profile_source_reflects_active_knobs() {
        assert_eq!(FaultProfile::default().source(), SampleSource::Model);
        let p = FaultProfile::parse("rate=0.5,seed=9").unwrap();
        assert_eq!(p.source(), SampleSource::FaultInjected(FaultSpec::with_rate(0.5, 9)));
        assert!(matches!(
            FaultProfile::parse("latency=4").unwrap().source(),
            SampleSource::FaultInjected(f) if f.latency_tokens == 4
        ));
        assert!(matches!(
            FaultProfile::parse("panic=2").unwrap().source(),
            SampleSource::FaultInjected(f) if f.panic_sample == Some(2)
        ));
        // Quota alone is a serve-path knob; draws stay untouched.
        assert_eq!(FaultProfile::parse("quota=100").unwrap().source(), SampleSource::Model);
        let swept = p.with_rate(0.9);
        assert_eq!(swept.rate, 0.9);
        assert_eq!(swept.seed, 9, "sweeps keep every other knob");
    }
}
