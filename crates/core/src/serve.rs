//! Concurrent forecast serving over shared frozen backends.
//!
//! The fit-once / sample-many split ([`crate::engine`], `mc-lm`'s
//! [`mc_lm::FrozenLm`]) makes a prompt-conditioned backend `Send + Sync`:
//! one frozen context can serve many forecast requests through forked
//! decode sessions without refitting. This module is the request scheduler
//! on top of that split:
//!
//! - **Requests** ([`ForecastRequest`]) each carry their own history,
//!   horizon, codec choice, sample count, seeds, sampler settings and
//!   fault source — nothing is shared between requests except the frozen
//!   context they resolve to.
//! - **Context dedup** — requests whose codec fit produces the same
//!   (prompt, vocabulary, output restriction, preset) share one
//!   [`PreparedBackend`], fitted exactly once. Different horizons against
//!   the same history share a context: the stop rule lives in the sampler,
//!   not the frozen state.
//! - **Cross-batch context cache** ([`ServeConfig::cache`], DESIGN.md
//!   §12) — with a cache attached, a [`ServeHandle`] keeps fitted
//!   contexts warm *across* flushes in a bounded [`mc_lm::LmCache`]: an
//!   exact spec-fingerprint hit skips the fit entirely, and a prompt that
//!   strictly extends a cached one is delta-updated in place by
//!   incremental refit (bit-identical to a from-scratch fit, so warmth
//!   can never change a forecast). Served contexts stay pinned until the
//!   flush boundary, so eviction can never free a context a live decode
//!   session is forked from. All fits route through the single
//!   `fit_context` seam — the `no-direct-fit` rule keeps it that
//!   way.
//! - **A bounded worker pool** fans `(request, sample, attempt)` tasks
//!   across `workers` threads. Each task forks a throwaway session off the
//!   request's context and runs the same [`execute_attempt`] the
//!   sequential engine runs — outcomes depend only on the frozen state
//!   and the sampler seed, never on scheduling, so forecasts are
//!   bit-identical to [`crate::engine::ForecastEngine::run`] regardless
//!   of worker count or submission order.
//! - **Per-request fault isolation** — every request folds outcomes into
//!   its own [`RobustProgress`] and resolves through the engine's
//!   median/quorum/fallback ladder. A panicking or defective sample in one
//!   request never poisons another.
//! - **Cost attribution** — the prompt is charged once per frozen context
//!   (to the first request that needed it); generated tokens are charged
//!   to the request whose sample drew them. Each context also carries a
//!   [`CostLedger`] fed from inside the model boundary, so attribution can
//!   be audited: summed per-request costs must equal the metered totals.
//! - **Overload resilience** ([`crate::overload`], DESIGN.md §10) — a
//!   hard submission cap and priority-aware admission shedding bound the
//!   queue; per-client quotas and per-preset circuit breakers reject load
//!   before it burns workers; per-request deadlines cancel decode loops
//!   cooperatively; retries back off on the logical dispatch clock.
//!   Rejection is always a typed outcome ([`TsError::Overloaded`]) with
//!   zero attributed cost — never a hang, never a lost settlement.
//!
//! Two entry points: [`serve_all`] for a batch, and [`ServeHandle`] for
//! incremental submit/collect.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mc_sync::{Arc, Mutex};

use mc_tslib::error::{pipeline_error, Result, TsError};
use mc_tslib::series::MultivariateSeries;

use mc_lm::cache::{CacheConfig, CacheStats, Found, LmCache};
use mc_lm::cost::InferenceCost;
use mc_lm::metered::CostLedger;
use mc_lm::presets::ModelPreset;
use mc_lm::tokenizer::{CharTokenizer, Tokenizer};
use mc_lm::vocab::Vocab;

use mc_obs::{
    mix, point_span, AttemptClass, EventKind, Fingerprint, NoopRecorder, Recorder, SpanEvent,
    SpanGuard, SpanKind, TraceEvent,
};
use mc_sax::encoder::SaxConfig;

use crate::codec::{Codec, DigitCodec, FittedCodec, SaxCodec};
use crate::config::ForecastConfig;
use crate::engine::{spec_family, spec_fingerprint, EngineRun, ForecastEngine, PreparedBackend};
use crate::mux::MuxMethod;
use crate::overload::{
    BreakerPolicy, BreakerTransition, CircuitBreaker, OverloadState, Priority, ServeDefect,
};
use crate::pipeline::ContinuationSpec;
use crate::robust::{
    execute_attempt, virtual_index, AttemptDisposition, AttemptOutcome, DefectClass,
    FallbackPolicy, ForecastReport, RobustProgress, SampleDefect, SampleExpectations, SampleSource,
};
use crate::sched::TaskQueue;

/// Which codec a request serializes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecChoice {
    /// The digit codec with one of the paper's multiplexing schemes;
    /// digits/headroom come from the request's [`ForecastConfig`].
    Digit(MuxMethod),
    /// The SAX codec with explicit SAX knobs.
    Sax(SaxConfig),
}

impl CodecChoice {
    /// Builds the unfitted codec this choice implies for `config`.
    pub fn build(&self, config: &ForecastConfig) -> Box<dyn Codec> {
        match *self {
            CodecChoice::Digit(method) => Box::new(DigitCodec::from_config(method, config)),
            CodecChoice::Sax(sax) => Box::new(SaxCodec { sax }),
        }
    }
}

/// One self-contained forecast request.
#[derive(Debug, Clone)]
pub struct ForecastRequest {
    /// Training history the codec fits on.
    pub train: MultivariateSeries,
    /// Steps to forecast.
    pub horizon: usize,
    /// Serialization codec.
    pub codec: CodecChoice,
    /// Samples, seeds, sampler, preset and robustness policy.
    pub config: ForecastConfig,
    /// Real backend or fault-injected (per-request chaos drills).
    pub source: SampleSource,
    /// Admission class: under shedding, lower priorities drop first.
    pub priority: Priority,
    /// Client the request's cost is attributed to for quota enforcement.
    pub client: u32,
}

impl ForecastRequest {
    /// A model-sourced request with the digit codec, normal priority,
    /// client 0.
    pub fn digit(
        train: MultivariateSeries,
        horizon: usize,
        method: MuxMethod,
        config: ForecastConfig,
    ) -> Self {
        Self {
            train,
            horizon,
            codec: CodecChoice::Digit(method),
            config,
            source: SampleSource::Model,
            priority: Priority::Normal,
            client: 0,
        }
    }

    /// Stable content fingerprint — the request's trace key (`req` on
    /// every event it emits). Derived purely from the request's content
    /// (history names and value bits, horizon, codec, configuration,
    /// sample source), never from submission indices or thread ids, so
    /// canonical traces stay byte-identical across worker counts and
    /// submission orders.
    pub fn content_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for (name, column) in self.train.names().iter().zip(self.train.columns()) {
            fp.write_str(name);
            fp.write_u64(column.len() as u64);
            for &v in column {
                fp.write_u64(v.to_bits());
            }
        }
        fp.write_u64(self.horizon as u64);
        fp.write_str(&format!("{:?}|{:?}|{:?}", self.codec, self.config, self.source));
        fp.write_u64(u64::from(self.priority.rank()));
        fp.write_u64(u64::from(self.client));
        fp.finish()
    }
}

/// Trace keys for a batch: each request's [content
/// fingerprint](ForecastRequest::content_fingerprint), with the k-th
/// duplicate of identical content mixed with `k` so twins stay
/// distinguishable in the trace. Which physical twin gets which key
/// depends on submission order, but twins are interchangeable by
/// construction (same content, same seeds, same outcomes), so the
/// canonical trace is still invariant under reordering.
pub fn request_fingerprints(requests: &[ForecastRequest]) -> Vec<u64> {
    fingerprints_for(requests.iter())
}

fn fingerprints_for<'a>(requests: impl Iterator<Item = &'a ForecastRequest>) -> Vec<u64> {
    let mut fps = Vec::new();
    let mut seen: Vec<(u64, u64)> = Vec::new();
    for request in requests {
        let content = request.content_fingerprint();
        let occurrence = match seen.iter_mut().find(|(fp, _)| *fp == content) {
            Some((_, count)) => {
                *count += 1;
                *count
            }
            None => {
                seen.push((content, 0));
                0
            }
        };
        fps.push(if occurrence == 0 { content } else { mix(content, occurrence) });
    }
    fps
}

/// Identifier [`ServeHandle::submit`] hands back; submission order defines
/// the id order, and [`ServeRun::outcomes`] is sorted by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub usize);

/// Scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the sample-task queue (clamped to ≥ 1).
    pub workers: usize,
    /// Requests one flush admits; the excess is shed by
    /// (priority, content fingerprint) — an order-invariant cut, so shed
    /// and served sets are identical across submission orders. `None`
    /// disables shedding.
    pub queue_cap: Option<usize>,
    /// Hard cap on pending submissions per flush; [`ServeHandle::submit`]
    /// beyond it materializes a [`ServeDefect::QueueFull`] outcome
    /// immediately. `None` disables the cap.
    pub submit_cap: Option<usize>,
    /// Per-client generated+prompt token allowance enforced at admission
    /// from attributed costs of earlier flushes. `None` disables quotas.
    pub quota_tokens: Option<u64>,
    /// Per-preset circuit-breaker policy. `None` disables breaking.
    pub breaker: Option<BreakerPolicy>,
    /// Cross-batch frozen-context cache shape. `Some` makes a
    /// [`ServeHandle`] keep fitted contexts warm across flushes (and
    /// delta-update prefix-extended prompts by incremental refit);
    /// `None` fits every batch cold. One-shot [`serve_all`] batches get
    /// a fresh cache per call either way, so only handles observe
    /// warmth. Forecasts, canonical traces and cost audits are
    /// byte-identical warm or cold.
    pub cache: Option<CacheConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: None,
            submit_cap: None,
            quota_tokens: None,
            breaker: None,
            cache: None,
        }
    }
}

impl ServeConfig {
    /// A config with the given worker-pool width and no overload limits.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers: workers.max(1), ..Self::default() }
    }
}

/// Everything one request produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The id [`ServeHandle::submit`] returned (submission index).
    pub id: RequestId,
    /// The resolved forecast, or the request's own infrastructure error.
    pub forecast: Result<MultivariateSeries>,
    /// Sampling accounting (absent when the request failed before or
    /// during sampling).
    pub report: Option<ForecastReport>,
    /// Cost attributed to this request: the context's prompt pass if this
    /// request was first to need the context (zero otherwise), plus every
    /// generated token its samples drew — failed attempts included.
    pub cost: InferenceCost,
    /// Index into [`ServeRun::contexts`] of the frozen context served from.
    pub context: Option<usize>,
}

/// Per-context accounting for one batch.
#[derive(Debug, Clone)]
pub struct ContextStats {
    /// Content fingerprint of the context (the `ctx` key its trace
    /// events carry).
    pub fingerprint: u64,
    /// Requests served from this context.
    pub requests: usize,
    /// The one-time prompt-conditioning cost (charged to the owner).
    pub prompt_cost: InferenceCost,
    /// Ground truth metered inside the model boundary: the prompt pass
    /// plus every session forked off this context.
    pub metered: InferenceCost,
    /// Sessions forked (one per completed draw).
    pub sessions: u64,
}

/// A completed batch: per-request outcomes (in submission order) plus
/// per-context metering.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// One outcome per request, sorted by [`RequestId`].
    pub outcomes: Vec<ServeOutcome>,
    /// One entry per deduplicated frozen context.
    pub contexts: Vec<ContextStats>,
}

impl ServeRun {
    /// Sum of every request's attributed cost.
    pub fn attributed_cost(&self) -> InferenceCost {
        let mut total = InferenceCost::default();
        for o in &self.outcomes {
            total.absorb(o.cost);
        }
        total
    }

    /// Sum of every context's metered ground truth.
    pub fn metered_cost(&self) -> InferenceCost {
        let mut total = InferenceCost::default();
        for c in &self.contexts {
            total.absorb(c.metered);
        }
        total
    }
}

/// Key deciding whether two requests may share a frozen context. The stop
/// rule (separators, token budget) is per-sampler, so it is *not* part of
/// the key — different horizons share a context.
#[derive(PartialEq)]
struct ContextKey {
    prompt: String,
    preset: ModelPreset,
    allowed_chars: String,
    vocab: Vocab,
}

struct Context {
    backend: PreparedBackend,
    ledger: Arc<CostLedger>,
    /// Content fingerprint (the `ctx` trace key).
    fp: u64,
    /// Request index charged the prompt pass (first to need the context).
    owner: usize,
    requests: usize,
    /// The `(family, fingerprint)` pin held in the cross-batch cache,
    /// released at the flush boundary (`None` when serving cold).
    pin: Option<(u64, u64)>,
}

/// A request prepared for scheduling: fitted codec, expectations, and the
/// per-request robust state the workers fold outcomes into.
struct RequestState {
    request: ForecastRequest,
    fitted: Box<dyn FittedCodec>,
    expect: SampleExpectations,
    separators: usize,
    max_tokens: usize,
    context: usize,
    samples: usize,
    progress: Mutex<RobustProgress>,
    /// Request trace key (occurrence-mixed content fingerprint).
    fp: u64,
    /// Trace key of the context this request joined.
    ctx_fp: u64,
    /// The preset's circuit breaker, when breaking is enabled — workers
    /// record every attempt outcome into its flush window.
    breaker: Option<Arc<CircuitBreaker>>,
}

enum Prepared {
    Ready(Box<RequestState>),
    /// Preparation failed (codec or fit); carries the request's trace
    /// fingerprint so [`finalize`] can close its `request` span.
    Failed(TsError, u64),
    /// Rejected before preparation by the overload layer (admission
    /// shed, quota, breaker) or at submit time (queue full).
    Rejected(ServeDefect),
}

/// One slot of a flush after admission: a request to run (with its trace
/// key) or a typed rejection.
enum Admission {
    Run(Box<ForecastRequest>, u64),
    Reject(ServeDefect),
}

/// A submitted slot entering a flush: the request, or a rejection already
/// decided at submit time (queue full).
type Submission = std::result::Result<ForecastRequest, ServeDefect>;

/// Applies the overload ladder to a flush, in the fixed order quota →
/// breaker → shed (DESIGN.md §10). Single-threaded, before any worker
/// starts, and order-invariant:
///
/// - **Quota** admits or rejects *every* request of a client together —
///   the ledger only advances at flush boundaries, so the decision can't
///   depend on intra-flush order.
/// - **Breaker** state only transitions at flush boundaries, so every
///   request of a preset sees the same state.
/// - **Shed** keeps the top `queue_cap` survivors by
///   (priority desc, occurrence-mixed fingerprint asc) — a value-based
///   cut; twins are interchangeable by construction.
///
/// Quota and shed rejections emit *deterministic* trace events (they
/// belong to the canonical trace); breaker rejections are
/// scheduler-scoped, since breaker state depends on flush history. A
/// shed also emits a zero-length `shed` span: the shed *set* is a
/// value-based cut, so that span multiset is schedule-invariant too.
fn admit(
    submissions: Vec<Submission>,
    config: &ServeConfig,
    overload: &OverloadState,
    obs: &dyn Recorder,
) -> Vec<Admission> {
    let fps = fingerprints_for(submissions.iter().filter_map(|s| s.as_ref().ok()));
    let mut fps = fps.into_iter();
    let mut slots: Vec<Admission> = submissions
        .into_iter()
        .map(|submission| {
            let request = match submission {
                Ok(request) => request,
                Err(defect) => return Admission::Reject(defect),
            };
            let fp = fps.next().expect("one fingerprint per submitted request");
            if let Some(quota) = config.quota_tokens {
                let spent = overload.quota().spent(request.client);
                if spent >= quota {
                    if obs.enabled() {
                        obs.record(TraceEvent {
                            req: fp,
                            ctx: 0,
                            kind: EventKind::QuotaExhausted { client: request.client },
                        });
                    }
                    return Admission::Reject(ServeDefect::QuotaExhausted {
                        client: request.client,
                        spent,
                        quota,
                    });
                }
            }
            if config.breaker.is_some() {
                let breaker = overload.breaker(request.config.preset);
                if breaker.is_open() {
                    if obs.enabled() {
                        obs.record(TraceEvent { req: fp, ctx: 0, kind: EventKind::BreakerReject });
                    }
                    return Admission::Reject(ServeDefect::BreakerOpen {
                        preset: request.config.preset,
                        trips: breaker.trips(),
                    });
                }
            }
            Admission::Run(Box::new(request), fp)
        })
        .collect();
    if let Some(cap) = config.queue_cap {
        let mut survivors: Vec<(usize, u8, u64)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Admission::Run(request, fp) => Some((i, request.priority.rank(), *fp)),
                Admission::Reject(_) => None,
            })
            .collect();
        if survivors.len() > cap {
            // Value-based order: priority desc, then fingerprint asc —
            // independent of submission index, so the shed *set* is too.
            survivors.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
            for &(i, _, fp) in &survivors[cap..] {
                let Admission::Run(request, _) = &slots[i] else { unreachable!() };
                let priority = request.priority;
                if obs.enabled() {
                    obs.record(TraceEvent {
                        req: fp,
                        ctx: 0,
                        kind: EventKind::Shed { priority: priority.rank() },
                    });
                    point_span(obs, fp, SpanKind::Shed);
                }
                slots[i] = Admission::Reject(ServeDefect::Shed { priority });
            }
        }
    }
    slots
}

#[derive(Debug, Clone, Copy)]
struct Task {
    request: usize,
    sample: usize,
    attempt: usize,
}

/// What [`fit_context`] resolves a spec to: the metered backend, the
/// context's trace fingerprint (epoch-qualified when the context was
/// produced by incremental refit) and the `(family, fingerprint)` cache
/// pin to release at the flush boundary, if a cache was consulted.
type FittedContext = (PreparedBackend, u64, Option<(u64, u64)>);

/// The one sanctioned context-fit seam in serve-land: resolves a spec to
/// a metered backend, consulting the cross-batch cache first when one is
/// attached. The `no-direct-fit` lint rule bans the fit entry points
/// everywhere else in this module, so every serve-path fit is forced
/// through here — where cache reuse, pinning and metering are handled
/// uniformly. The cache lookup runs inside a `cache_lookup` span keyed by
/// the context fingerprint; cache warmth depends on flush history, so
/// that span is scheduler-scoped (tick-minted id, sidecar export only).
fn fit_context(
    spec: &ContinuationSpec,
    cache: Option<&LmCache>,
    ledger: Arc<CostLedger>,
    obs: &Arc<dyn Recorder>,
) -> Result<FittedContext> {
    let ctx_fp = spec_fingerprint(spec);
    let Some(cache) = cache else {
        let backend = PreparedBackend::fit(spec)?.meter(ledger, obs.clone(), ctx_fp);
        return Ok((backend, ctx_fp, None));
    };
    let family = spec_family(spec);
    let tokens = CharTokenizer::new(spec.vocab.clone())
        .encode(&spec.prompt)
        .map_err(|e| pipeline_error("encode-prompt", e.to_string()))?;
    let found = {
        let id = mix(obs.now(), SpanKind::CacheLookup.index() as u64);
        let _lookup = SpanGuard::open_with_id(obs.as_ref(), id, ctx_fp, SpanKind::CacheLookup);
        cache.acquire(family, ctx_fp, &tokens)
    };
    let (frozen, epoch, event) = match found {
        Found::Hit { frozen, epoch } => (frozen, epoch, EventKind::CacheHit),
        Found::Refit { frozen, epoch, appended } => {
            (frozen, epoch, EventKind::CacheRefit { appended: appended as u64, epoch })
        }
        Found::Miss => {
            if obs.enabled() {
                obs.record(TraceEvent { req: 0, ctx: ctx_fp, kind: EventKind::CacheMiss });
            }
            let evictions_before = cache.stats().evictions;
            let fitted = PreparedBackend::fit(spec)?;
            // Share whichever Arc the cache settled on (a concurrent
            // duplicate insert keeps the resident entry), so the served
            // context and the cached one are always the same object.
            let shared = cache.insert(family, ctx_fp, &tokens, fitted.frozen());
            let evicted = cache.stats().evictions - evictions_before;
            if evicted > 0 && obs.enabled() {
                obs.record(TraceEvent {
                    req: 0,
                    ctx: ctx_fp,
                    kind: EventKind::CacheEvict { evictions: evicted },
                });
            }
            let backend =
                PreparedBackend::from_frozen(shared, spec)?.meter(ledger, obs.clone(), ctx_fp);
            return Ok((backend, ctx_fp, Some((family, ctx_fp))));
        }
    };
    // A refit context is a *different* trace identity from the cold fit
    // of the same prompt: stamp the entry's monotone epoch into the
    // fingerprint (epoch 0 — a never-refit exact hit — is the cold
    // fingerprint, keeping warm reruns byte-identical to cold ones).
    let eff_fp = if epoch == 0 {
        ctx_fp
    } else {
        let mut stamped = spec.clone();
        stamped.refit_epoch = epoch;
        spec_fingerprint(&stamped)
    };
    if obs.enabled() {
        obs.record(TraceEvent { req: 0, ctx: eff_fp, kind: event });
    }
    let backend = PreparedBackend::from_frozen(frozen, spec)?.meter(ledger, obs.clone(), eff_fp);
    Ok((backend, eff_fp, Some((family, ctx_fp))))
}

/// Fits codecs and contexts for a batch; requests that fail to prepare
/// (codec or backend fit) become [`Prepared::Failed`] without touching the
/// others, and admission rejections pass through as
/// [`Prepared::Rejected`]. Emits `context_fit` (first fit),
/// `fit_dedup_hit` (reuse) and `context_join` (every resolved request)
/// trace events.
fn prepare(
    slots: Vec<Admission>,
    config: &ServeConfig,
    overload: &OverloadState,
    cache: Option<&LmCache>,
    obs: &Arc<dyn Recorder>,
) -> (Vec<Prepared>, Vec<(ContextKey, Context)>) {
    let mut contexts: Vec<(ContextKey, Context)> = Vec::new();
    let mut states = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let (request, fp) = match slot {
            Admission::Run(request, fp) => (request, fp),
            Admission::Reject(defect) => {
                states.push(Prepared::Rejected(defect));
                continue;
            }
        };
        let request = &*request;
        // The `request` span covers prepare → finalize for every admitted
        // request. Its id is a pure function of the occurrence-mixed
        // content fingerprint, so the canonical span multiset is invariant
        // across submission orders and worker counts; rejected slots never
        // open one (they get a zero-length `shed` span at admission).
        if obs.enabled() {
            obs.span(SpanEvent::open(fp, SpanKind::Request));
        }
        let prepared = (|| -> Result<Box<RequestState>> {
            let engine = ForecastEngine::with_source(request.config, request.source);
            let codec = request.codec.build(&request.config);
            let fitted = codec.fit(&request.train)?;
            let spec = engine.continuation_spec(fitted.as_ref(), request.horizon);
            let key = ContextKey {
                prompt: spec.prompt.clone(),
                preset: spec.preset,
                allowed_chars: spec.allowed_chars.clone(),
                vocab: spec.vocab.clone(),
            };
            let context = match contexts.iter().position(|(k, _)| *k == key) {
                Some(pos) => {
                    if obs.enabled() {
                        obs.record(TraceEvent {
                            req: fp,
                            ctx: contexts[pos].1.fp,
                            kind: EventKind::FitDedupHit,
                        });
                    }
                    pos
                }
                None => {
                    let ledger = Arc::new(CostLedger::new());
                    // The context fingerprint is only known once the fit
                    // resolves, so the `context_fit` span opens
                    // *retroactively*: stamp (t, wall) before the fit and
                    // backdate the open to them afterwards. A failed fit
                    // emits nothing — no orphaned open half.
                    let fit_start = obs.now();
                    let fit_wall = obs.wall();
                    let (backend, ctx_fp, pin) = fit_context(&spec, cache, ledger.clone(), obs)?;
                    if obs.enabled() {
                        let open = SpanEvent::open(ctx_fp, SpanKind::ContextFit);
                        obs.span_at(open, fit_start, fit_wall);
                        obs.span(SpanEvent::close(ctx_fp, SpanKind::ContextFit));
                        let prompt = backend.prompt_cost();
                        obs.record(TraceEvent {
                            req: 0,
                            ctx: ctx_fp,
                            kind: EventKind::ContextFit {
                                prompt_tokens: prompt.prompt_tokens,
                                work_units: prompt.work_units,
                            },
                        });
                    }
                    contexts.push((
                        key,
                        Context { backend, ledger, fp: ctx_fp, owner: i, requests: 0, pin },
                    ));
                    contexts.len() - 1
                }
            };
            contexts[context].1.requests += 1;
            let ctx_fp = contexts[context].1.fp;
            if obs.enabled() {
                obs.record(TraceEvent { req: fp, ctx: ctx_fp, kind: EventKind::ContextJoin });
            }
            let samples = request.config.samples.max(1);
            let progress = RobustProgress::new(samples, request.config.robust)?;
            let breaker = config.breaker.map(|_| overload.breaker(request.config.preset));
            Ok(Box::new(RequestState {
                request: request.clone(),
                expect: fitted.expectations(request.horizon),
                fitted,
                separators: spec.separators,
                max_tokens: spec.max_tokens,
                context,
                samples,
                progress: Mutex::new(progress),
                fp,
                ctx_fp,
                breaker,
            }))
        })();
        states.push(match prepared {
            Ok(state) => Prepared::Ready(state),
            Err(e) => Prepared::Failed(e, fp),
        });
    }
    (states, contexts)
}

/// Executes one `(request, sample, attempt)` task and folds its outcome
/// into the request's progress; pushes the retry task if the sample gets
/// another attempt, otherwise settles it. Emits the attempt's trace
/// events (defects, panic isolation, the attempt, any retry).
///
/// An `attempt(sample, n)` span covers the whole unit and a nested `draw`
/// span covers the backend decode inside it. Span ids are pure functions
/// of the request fingerprint and coordinates, so the span multiset is
/// schedule-invariant like the attempt events themselves. Both guards
/// close via `Drop`, which runs during the `catch_unwind` unwind inside
/// [`execute_attempt`], so a panicking draw still closes its spans. The
/// `draw` span opens inside the draw closure, after the injected-panic
/// and zero-budget checks: an attempt that never draws has no `draw`.
fn run_task(
    task: Task,
    states: &[Prepared],
    contexts: &[(ContextKey, Context)],
    queue: &TaskQueue<Task>,
    obs: &dyn Recorder,
) {
    let Prepared::Ready(st) = &states[task.request] else {
        queue.settle_one();
        return;
    };
    let backend = &contexts[st.context].1.backend;
    let sampler = backend.sampler(st.separators, st.max_tokens);
    let vi = virtual_index(st.samples, task.sample, task.attempt);
    let sampler_config = st.request.config.sampler_for(vi);
    let budget = st.progress.lock().expect("request lock").remaining_budget(task.sample);
    let (sample, attempt) = (task.sample as u32, task.attempt as u32);
    let outcome = {
        let _attempt_span = SpanGuard::open(obs, st.fp, SpanKind::Attempt { sample, attempt });
        execute_attempt(
            st.request.source,
            task.sample,
            task.attempt,
            &st.expect,
            budget,
            |b| {
                let _draw_span = SpanGuard::open(obs, st.fp, SpanKind::Draw { sample, attempt });
                sampler.draw_budgeted(sampler_config, b)
            },
            |text| st.fitted.decode(text, st.request.horizon),
        )
    };
    if let Some(breaker) = &st.breaker {
        let success = matches!(&outcome, AttemptOutcome::Done { defects, .. }
            if !defects.iter().any(SampleDefect::is_fatal));
        breaker.record(success);
    }
    record_attempt(obs, st, task, &outcome);
    let disposition =
        st.progress.lock().expect("request lock").apply(task.sample, task.attempt, outcome);
    match disposition {
        AttemptDisposition::Retry { attempt } => {
            if obs.enabled() {
                obs.record(TraceEvent {
                    req: st.fp,
                    ctx: st.ctx_fp,
                    kind: EventKind::Retry { sample: task.sample as u32, attempt: attempt as u32 },
                });
                point_span(
                    obs,
                    st.fp,
                    SpanKind::Retry { sample: task.sample as u32, attempt: attempt as u32 },
                );
            }
            let delay = st.request.config.robust.backoff_delay(attempt);
            if delay > 0 {
                if obs.enabled() {
                    obs.record(TraceEvent {
                        req: st.fp,
                        ctx: st.ctx_fp,
                        kind: EventKind::Backoff {
                            sample: task.sample as u32,
                            attempt: attempt as u32,
                            delay: delay as u32,
                        },
                    });
                    point_span(
                        obs,
                        st.fp,
                        SpanKind::Backoff { sample: task.sample as u32, attempt: attempt as u32 },
                    );
                }
                queue.push_deferred(Task { attempt, ..task }, delay);
            } else {
                queue.push(Task { attempt, ..task });
            }
        }
        AttemptDisposition::Settled => queue.settle_one(),
    }
}

/// Emits the trace events one attempt outcome implies: a `defect` event
/// per observed defect, `panic_isolated` for caught panics, and the
/// `attempt` event itself (carrying the attempt's cost; zero for panicked
/// and infra attempts, which never completed a draw). No-op when `obs` is
/// disabled.
fn record_attempt(obs: &dyn Recorder, st: &RequestState, task: Task, outcome: &AttemptOutcome) {
    if !obs.enabled() {
        return;
    }
    let (req, ctx) = (st.fp, st.ctx_fp);
    let (sample, attempt) = (task.sample as u32, task.attempt as u32);
    match outcome {
        AttemptOutcome::Done { cost, defects, .. } => {
            for defect in defects {
                obs.record(TraceEvent {
                    req,
                    ctx,
                    kind: EventKind::Defect {
                        sample,
                        attempt,
                        class: defect.class().index() as u8,
                        fatal: defect.is_fatal(),
                    },
                });
            }
            let fatal = defects.iter().any(SampleDefect::is_fatal);
            obs.record(TraceEvent {
                req,
                ctx,
                kind: EventKind::Attempt {
                    sample,
                    attempt,
                    outcome: if fatal { AttemptClass::Defective } else { AttemptClass::Valid },
                    defects: defects.len() as u32,
                    generated_tokens: cost.generated_tokens,
                    work_units: cost.work_units,
                },
            });
        }
        AttemptOutcome::Infra(_) => {
            obs.record(TraceEvent {
                req,
                ctx,
                kind: EventKind::Attempt {
                    sample,
                    attempt,
                    outcome: AttemptClass::Infra,
                    defects: 0,
                    generated_tokens: 0,
                    work_units: 0,
                },
            });
        }
        AttemptOutcome::Panicked(_) => {
            obs.record(TraceEvent {
                req,
                ctx,
                kind: EventKind::Defect {
                    sample,
                    attempt,
                    class: DefectClass::Panicked.index() as u8,
                    fatal: true,
                },
            });
            obs.record(TraceEvent { req, ctx, kind: EventKind::PanicIsolated { sample, attempt } });
            obs.record(TraceEvent {
                req,
                ctx,
                kind: EventKind::Attempt {
                    sample,
                    attempt,
                    outcome: AttemptClass::Panicked,
                    defects: 1,
                    generated_tokens: 0,
                    work_units: 0,
                },
            });
        }
    }
}

fn run_batch(
    submissions: Vec<Submission>,
    config: &ServeConfig,
    overload: &OverloadState,
    cache: Option<&LmCache>,
    base_id: usize,
    obs: &Arc<dyn Recorder>,
) -> (Vec<ServeOutcome>, Vec<ContextStats>) {
    let slots = admit(submissions, config, overload, obs.as_ref());
    let (states, contexts) = prepare(slots, config, overload, cache, obs);

    let mut initial = Vec::new();
    let mut outstanding = 0;
    for (i, prep) in states.iter().enumerate() {
        if let Prepared::Ready(st) = prep {
            for sample in 0..st.samples {
                initial.push(Task { request: i, sample, attempt: 0 });
            }
            outstanding += st.samples;
        }
    }

    if outstanding > 0 {
        let queue = TaskQueue::new(initial, outstanding);
        let workers = config.workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = &queue;
                let states = &states[..];
                let contexts = &contexts[..];
                let obs = obs.as_ref();
                scope.spawn(move || loop {
                    // A `queue_wait` event and span per dequeue, carrying
                    // the clock delta spent blocked. The span id is
                    // minted from the pre-wait tick and its open is
                    // back-dated to the pre-wait stamps, so the fruitless
                    // final wait emits nothing and leaves no orphan.
                    // Queue waits are scheduler-scoped: metrics and
                    // wall-clock exports only, never the canonical trace.
                    let (start, wall_start) = (obs.now(), obs.wall());
                    let Some(task) = queue.next() else { break };
                    if obs.enabled() {
                        let ticks = obs.now().saturating_sub(start);
                        obs.record(TraceEvent {
                            req: 0,
                            ctx: 0,
                            kind: EventKind::QueueWait { ticks },
                        });
                        let id = mix(start, SpanKind::QueueWait.index() as u64);
                        let open = SpanEvent::open_with_id(id, 0, SpanKind::QueueWait);
                        obs.span_at(open, start, wall_start);
                        obs.span(SpanEvent::close_with_id(id, 0, SpanKind::QueueWait));
                    }
                    run_task(task, states, contexts, queue, obs);
                });
            }
        });
    }

    // Quota attribution happens at the flush boundary: admitted requests
    // are charged their full attributed cost (prompt + generated), so the
    // *next* flush sees the advance. Intra-flush admission never observes
    // a moving ledger — that is what keeps it order-invariant.
    let clients: Vec<Option<u32>> = states
        .iter()
        .map(|prep| match prep {
            Prepared::Ready(st) => Some(st.request.client),
            Prepared::Failed(..) | Prepared::Rejected(_) => None,
        })
        .collect();
    let outcomes: Vec<ServeOutcome> = states
        .into_iter()
        .enumerate()
        .map(|(i, prep)| finalize(i, base_id, prep, &contexts, obs.as_ref()))
        .collect();
    if config.quota_tokens.is_some() {
        for (outcome, client) in outcomes.iter().zip(&clients) {
            if let Some(client) = *client {
                let cost = outcome.cost;
                overload.quota().charge(client, cost.prompt_tokens + cost.generated_tokens);
            }
        }
    }

    // Breaker state transitions only here — single-threaded, from the
    // flush window's order-invariant success/failure counts.
    if let Some(policy) = config.breaker {
        for (_, breaker) in overload.breakers() {
            let Some(transition) = breaker.settle_flush(policy) else { continue };
            if obs.enabled() {
                let kind = match transition {
                    BreakerTransition::Tripped { trips } => {
                        EventKind::BreakerTrip { trips: trips as u32 }
                    }
                    BreakerTransition::Closed { trips } => {
                        EventKind::BreakerClose { trips: trips as u32 }
                    }
                };
                obs.record(TraceEvent { req: 0, ctx: 0, kind });
            }
        }
    }

    // Flush-boundary pin settlement: every session has completed (the
    // worker scope joined above), so no fork borrows a cached context
    // any more — unpin them all, making the entries evictable again.
    for (_, c) in &contexts {
        if let (Some(cache), Some((family, fp))) = (cache, c.pin) {
            cache.release(family, fp);
        }
    }

    let stats = contexts
        .into_iter()
        .map(|(_, c)| ContextStats {
            fingerprint: c.fp,
            requests: c.requests,
            prompt_cost: c.backend.prompt_cost(),
            metered: c.ledger.snapshot(),
            sessions: c.ledger.sessions(),
        })
        .collect();
    (outcomes, stats)
}

/// Resolves one request's settled progress into its outcome: the engine's
/// median/quorum/fallback ladder, with the resolve itself panic-isolated so
/// a pathological request cannot take down the batch. Emits the request's
/// `quorum_resolve` event, plus `fallback` when the classical path
/// produced the forecast.
fn finalize(
    index: usize,
    base_id: usize,
    prep: Prepared,
    contexts: &[(ContextKey, Context)],
    obs: &dyn Recorder,
) -> ServeOutcome {
    let id = RequestId(base_id + index);
    let st = match prep {
        Prepared::Failed(e, fp) => {
            // The request span opened at prepare time; a failed
            // preparation still closes it.
            if obs.enabled() {
                obs.span(SpanEvent::close(fp, SpanKind::Request));
            }
            return ServeOutcome {
                id,
                forecast: Err(e),
                report: None,
                cost: InferenceCost::default(),
                context: None,
            };
        }
        // Rejected before any work: typed error, zero attributed cost —
        // the conservation audit counts rejected requests at exactly zero.
        Prepared::Rejected(defect) => {
            return ServeOutcome {
                id,
                forecast: Err(defect.to_error()),
                report: None,
                cost: InferenceCost::default(),
                context: None,
            };
        }
        Prepared::Ready(st) => st,
    };
    let ctx = &contexts[st.context].1;
    let mut cost =
        if ctx.owner == index { ctx.backend.prompt_cost() } else { InferenceCost::default() };
    let progress = st.progress.into_inner().expect("request lock");
    let generated = progress.cost();
    let outcome = match progress.finish() {
        Ok(run) => {
            if obs.enabled() {
                let required = st.request.config.robust.required_valid(st.samples);
                obs.record(TraceEvent {
                    req: st.fp,
                    ctx: st.ctx_fp,
                    kind: EventKind::QuorumResolve {
                        valid: run.report.valid_samples as u32,
                        required: required as u32,
                        met: run.quorum_met,
                    },
                });
                point_span(obs, st.fp, SpanKind::Quorum);
                if !run.quorum_met
                    && st.request.config.robust.fallback == FallbackPolicy::SeasonalNaive
                {
                    obs.record(TraceEvent {
                        req: st.fp,
                        ctx: st.ctx_fp,
                        kind: EventKind::Fallback,
                    });
                    point_span(obs, st.fp, SpanKind::Fallback);
                }
            }
            let engine_run = EngineRun::new(run, st.request.config, cost);
            let forecast = catch_unwind(AssertUnwindSafe(|| {
                engine_run.resolve(&st.request.train, st.request.horizon)
            }))
            .unwrap_or_else(|_| {
                Err(pipeline_error("serve-resolve", format!("request {} panicked", id.0)))
            });
            let cost = engine_run.cost();
            ServeOutcome {
                id,
                forecast,
                report: Some(engine_run.into_report()),
                cost,
                context: Some(st.context),
            }
        }
        Err(e) => {
            // The run failed on infrastructure, but its completed draws
            // were still paid for — keep attribution conserved.
            cost.absorb(generated);
            ServeOutcome { id, forecast: Err(e), report: None, cost, context: Some(st.context) }
        }
    };
    if obs.enabled() {
        obs.span(SpanEvent::close(st.fp, SpanKind::Request));
    }
    outcome
}

/// Serves a batch of requests over `config.workers` threads and shared,
/// deduplicated frozen contexts. Per-request failures land in the
/// request's own [`ServeOutcome::forecast`]; the batch itself always
/// completes. Outcomes are returned in submission order.
pub fn serve_all(requests: &[ForecastRequest], config: &ServeConfig) -> ServeRun {
    serve_all_observed(requests, config, Arc::new(NoopRecorder))
}

/// [`serve_all`] with telemetry: every scheduler and sampling step emits
/// trace events into `obs` (which also folds them into its metrics
/// registry, when it is an `mc_obs::Observer`). Forecasts and costs are
/// identical to [`serve_all`] — the recorder only watches. With identical
/// request content + seeds and a logical-clock observer, the canonical
/// JSONL export is byte-identical across worker counts and submission
/// orders (for runs without infrastructure failures, which truncate other
/// samples' retries schedule-dependently).
pub fn serve_all_observed(
    requests: &[ForecastRequest],
    config: &ServeConfig,
    obs: Arc<dyn Recorder>,
) -> ServeRun {
    // One-shot batches get a fresh overload state and a fresh cache:
    // quotas, breakers and context warmth accumulate across flushes of a
    // [`ServeHandle`], not across independent `serve_all` calls.
    let overload = OverloadState::new();
    let cache = config.cache.map(LmCache::new);
    let submissions = requests.iter().cloned().map(Ok).collect();
    let (outcomes, contexts) = run_batch(submissions, config, &overload, cache.as_ref(), 0, &obs);
    ServeRun { outcomes, contexts }
}

/// Incremental front-end over [`serve_all`]: submit requests one at a
/// time, collect results by id. Submitted requests are batched until the
/// first [`ServeHandle::collect`] (or explicit [`ServeHandle::flush`])
/// forces execution; context sharing happens within a flush.
pub struct ServeHandle {
    config: ServeConfig,
    /// Pending slots: admitted requests, or rejections already decided at
    /// submit time (queue full). Rejections keep their slot so ids stay
    /// submission indices.
    pending: Vec<Submission>,
    outcomes: Vec<ServeOutcome>,
    contexts: Vec<ContextStats>,
    overload: OverloadState,
    /// Cross-batch frozen-context cache ([`ServeConfig::cache`]); lives
    /// as long as the handle so later flushes reuse earlier fits.
    cache: Option<LmCache>,
    obs: Arc<dyn Recorder>,
}

impl ServeHandle {
    /// A handle with the given scheduler knobs and no pending requests.
    pub fn new(config: ServeConfig) -> Self {
        Self::with_recorder(config, Arc::new(NoopRecorder))
    }

    /// A handle whose flushes emit trace events into `obs` (see
    /// [`serve_all_observed`]).
    pub fn with_recorder(config: ServeConfig, obs: Arc<dyn Recorder>) -> Self {
        Self {
            cache: config.cache.map(LmCache::new),
            config,
            pending: Vec::new(),
            outcomes: Vec::new(),
            contexts: Vec::new(),
            overload: OverloadState::new(),
            obs,
        }
    }

    /// Enqueues a request; the returned id is its submission index.
    ///
    /// With [`ServeConfig::submit_cap`] set, submissions beyond the cap
    /// are rejected on the spot: the id is still handed out, but
    /// collecting it yields [`TsError::Overloaded`] (kind `queue-full`) —
    /// backpressure is a typed outcome, not unbounded buffering.
    pub fn submit(&mut self, request: ForecastRequest) -> RequestId {
        let admitted = self.pending.iter().filter(|slot| slot.is_ok()).count();
        let slot = match self.config.submit_cap {
            Some(cap) if admitted >= cap => {
                if self.obs.enabled() {
                    self.obs.record(TraceEvent { req: 0, ctx: 0, kind: EventKind::QueueFull });
                }
                Err(ServeDefect::QueueFull { cap })
            }
            _ => Ok(request),
        };
        self.pending.push(slot);
        RequestId(self.outcomes.len() + self.pending.len() - 1)
    }

    /// Executes every pending request as one batch.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let submissions = std::mem::take(&mut self.pending);
        let (outcomes, contexts) = run_batch(
            submissions,
            &self.config,
            &self.overload,
            self.cache.as_ref(),
            self.outcomes.len(),
            &self.obs,
        );
        self.outcomes.extend(outcomes);
        self.contexts.extend(contexts);
    }

    /// The outcome of a submitted request, flushing pending work if the
    /// request has not run yet.
    ///
    /// # Errors
    /// [`TsError::UnknownRequest`] when `id` was never returned by
    /// [`ServeHandle::submit`]. The probe still flushes pending work
    /// first, so a handle is never left half-executed by a bad lookup.
    pub fn collect(&mut self, id: RequestId) -> Result<ServeOutcome> {
        if id.0 >= self.outcomes.len() {
            self.flush();
        }
        self.outcomes.get(id.0).cloned().ok_or(TsError::UnknownRequest { id: id.0 })
    }

    /// Every outcome executed so far (submission order).
    pub fn outcomes(&self) -> &[ServeOutcome] {
        &self.outcomes
    }

    /// Context accounting across every flush so far.
    pub fn contexts(&self) -> &[ContextStats] {
        &self.contexts
    }

    /// The handle's overload state (quota ledger, circuit breakers) —
    /// read-only introspection for reports and tests.
    pub fn overload(&self) -> &OverloadState {
        &self.overload
    }

    /// Counter snapshot of the cross-batch context cache (`None` when
    /// [`ServeConfig::cache`] is off). Hit rate here is the bench gate's
    /// `hit_rate` key.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(LmCache::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_datasets::generators::sinusoids;

    fn series(n: usize) -> MultivariateSeries {
        let a = sinusoids(n, &[(1.0, 12.0, 0.0)]);
        let b: Vec<f64> = a.iter().map(|&v| 4.0 + 0.5 * v).collect();
        MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
    }

    fn request(horizon: usize, method: MuxMethod, seed: u64) -> ForecastRequest {
        let config = ForecastConfig { samples: 2, seed, ..ForecastConfig::default() };
        ForecastRequest::digit(series(48), horizon, method, config)
    }

    #[test]
    fn same_history_and_codec_share_one_context() {
        // Different horizons and seeds — but one prompt, so one context.
        let requests = vec![
            request(4, MuxMethod::ValueInterleave, 1),
            request(7, MuxMethod::ValueInterleave, 99),
        ];
        let run = serve_all(&requests, &ServeConfig::with_workers(2));
        assert_eq!(run.contexts.len(), 1);
        assert_eq!(run.contexts[0].requests, 2);
        assert!(run.outcomes.iter().all(|o| o.context == Some(0)));
        // Prompt charged exactly once, to exactly one request.
        let prompt = run.contexts[0].prompt_cost.prompt_tokens;
        assert!(prompt > 0);
        let charged: Vec<u64> = run.outcomes.iter().map(|o| o.cost.prompt_tokens).collect();
        assert_eq!(charged.iter().sum::<u64>(), prompt);
        assert_eq!(charged.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn different_codecs_get_distinct_contexts() {
        let requests =
            vec![request(4, MuxMethod::ValueInterleave, 1), request(4, MuxMethod::ValueConcat, 1)];
        let run = serve_all(&requests, &ServeConfig::default());
        assert_eq!(run.contexts.len(), 2);
        assert_eq!(run.outcomes[0].context, Some(0));
        assert_eq!(run.outcomes[1].context, Some(1));
    }

    #[test]
    fn forecasts_have_requested_shapes() {
        let requests =
            vec![request(3, MuxMethod::ValueInterleave, 7), request(9, MuxMethod::ValueConcat, 8)];
        let run = serve_all(&requests, &ServeConfig::with_workers(3));
        for (req, outcome) in requests.iter().zip(&run.outcomes) {
            let fc = outcome.forecast.as_ref().unwrap();
            assert_eq!(fc.len(), req.horizon);
            assert_eq!(fc.dims(), 2);
            assert!(outcome.report.is_some());
        }
    }

    #[test]
    fn handle_collect_flushes_and_rejects_unknown_ids() {
        let mut handle = ServeHandle::new(ServeConfig::with_workers(2));
        let a = handle.submit(request(4, MuxMethod::ValueInterleave, 1));
        let b = handle.submit(request(5, MuxMethod::ValueInterleave, 2));
        assert_eq!(a, RequestId(0));
        assert_eq!(b, RequestId(1));
        assert!(handle.collect(RequestId(2)).is_err(), "unsubmitted id must be rejected");
        let out_b = handle.collect(b).unwrap();
        assert_eq!(out_b.forecast.unwrap().len(), 5);
        // Both ran in the flush triggered by the first collect.
        assert_eq!(handle.outcomes().len(), 2);
        let out_a = handle.collect(a).unwrap();
        assert_eq!(out_a.forecast.unwrap().len(), 4);
        // A later submit starts a new batch with its own context.
        let c = handle.submit(request(6, MuxMethod::ValueInterleave, 3));
        assert_eq!(c, RequestId(2));
        assert_eq!(handle.collect(c).unwrap().forecast.unwrap().len(), 6);
        assert_eq!(handle.contexts().len(), 2);
    }

    #[test]
    fn empty_batch_serves_nothing() {
        let run = serve_all(&[], &ServeConfig::default());
        assert!(run.outcomes.is_empty());
        assert!(run.contexts.is_empty());
        assert_eq!(run.attributed_cost(), InferenceCost::default());
    }

    #[test]
    fn zero_worker_config_is_clamped() {
        let run = serve_all(
            &[request(4, MuxMethod::ValueInterleave, 1)],
            &ServeConfig { workers: 0, ..ServeConfig::default() },
        );
        assert!(run.outcomes[0].forecast.is_ok());
    }

    #[test]
    fn queue_cap_sheds_lowest_priority_first() {
        let mut interactive = request(4, MuxMethod::ValueInterleave, 1);
        interactive.priority = Priority::Interactive;
        let mut batch = request(5, MuxMethod::ValueInterleave, 2);
        batch.priority = Priority::Batch;
        let normal = request(6, MuxMethod::ValueInterleave, 3);
        let config = ServeConfig { queue_cap: Some(2), ..ServeConfig::with_workers(2) };
        let run = serve_all(&[batch.clone(), normal.clone(), interactive.clone()], &config);
        assert!(run.outcomes[1].forecast.is_ok(), "normal priority survives");
        assert!(run.outcomes[2].forecast.is_ok(), "interactive survives");
        match &run.outcomes[0].forecast {
            Err(TsError::Overloaded { kind, .. }) => assert_eq!(*kind, "shed"),
            other => panic!("batch priority must be shed, got {other:?}"),
        }
        assert_eq!(run.outcomes[0].cost, InferenceCost::default(), "shed requests cost nothing");
        // The shed *set* is order-invariant: reversed submission, same loser.
        let run2 = serve_all(&[interactive, normal, batch], &config);
        match &run2.outcomes[2].forecast {
            Err(TsError::Overloaded { kind, .. }) => assert_eq!(*kind, "shed"),
            other => panic!("batch priority must be shed regardless of order, got {other:?}"),
        }
    }

    #[test]
    fn submit_cap_rejects_with_queue_full() {
        let config = ServeConfig { submit_cap: Some(1), ..ServeConfig::with_workers(2) };
        let mut handle = ServeHandle::new(config);
        let a = handle.submit(request(4, MuxMethod::ValueInterleave, 1));
        let b = handle.submit(request(5, MuxMethod::ValueInterleave, 2));
        assert!(handle.collect(a).unwrap().forecast.is_ok());
        match handle.collect(b).unwrap().forecast {
            Err(TsError::Overloaded { kind, .. }) => assert_eq!(kind, "queue-full"),
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        // The cap is per flush: after the flush the handle admits again.
        let c = handle.submit(request(6, MuxMethod::ValueInterleave, 3));
        assert!(handle.collect(c).unwrap().forecast.is_ok());
    }

    #[test]
    fn quota_exhaustion_rejects_across_flushes() {
        let config = ServeConfig { quota_tokens: Some(1), ..ServeConfig::with_workers(2) };
        let mut handle = ServeHandle::new(config);
        let a = handle.submit(request(4, MuxMethod::ValueInterleave, 1));
        assert!(handle.collect(a).unwrap().forecast.is_ok(), "ledger starts empty: admitted");
        assert!(handle.overload().quota().spent(0) > 0, "flush charged the client");
        let b = handle.submit(request(5, MuxMethod::ValueInterleave, 2));
        match handle.collect(b).unwrap().forecast {
            Err(TsError::Overloaded { kind, .. }) => assert_eq!(kind, "quota"),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // A different client is unaffected.
        let mut other = request(4, MuxMethod::ValueInterleave, 3);
        other.client = 1;
        let c = handle.submit(other);
        assert!(handle.collect(c).unwrap().forecast.is_ok());
    }

    #[test]
    fn breaker_trips_on_rigged_failures_and_recovers() {
        use crate::overload::BreakerState;
        use crate::robust::FaultSpec;
        let config = ServeConfig {
            breaker: Some(BreakerPolicy { trip_failures: 1, cooldown_flushes: 1 }),
            ..ServeConfig::with_workers(2)
        };
        let mut handle = ServeHandle::new(config);
        let mut rigged = request(4, MuxMethod::ValueInterleave, 1);
        rigged.source = SampleSource::FaultInjected(FaultSpec {
            rate: 1.0,
            seed: 7,
            panic_sample: None,
            latency_tokens: 0,
        });
        let a = handle.submit(rigged);
        // The rigged flush fails every attempt; the boundary trips the breaker.
        assert!(handle.collect(a).is_ok());
        let preset = ForecastConfig::default().preset;
        let breaker = handle.overload().breaker(preset);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 1);
        // While open, admission rejects before any work.
        let b = handle.submit(request(5, MuxMethod::ValueInterleave, 2));
        match handle.collect(b).unwrap().forecast {
            Err(TsError::Overloaded { kind, .. }) => assert_eq!(kind, "breaker-open"),
            other => panic!("expected breaker-open rejection, got {other:?}"),
        }
        // That (empty-of-attempts) flush spends the cooldown: half-open.
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // A healthy probe flush closes it again.
        let c = handle.submit(request(4, MuxMethod::ValueInterleave, 3));
        assert!(handle.collect(c).unwrap().forecast.is_ok());
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.trips(), 1, "trips are monotone and only count real trips");
    }

    #[test]
    fn deadline_budget_degrades_to_fallback_not_error() {
        let mut req = request(4, MuxMethod::ValueInterleave, 1);
        req.config.robust.deadline_tokens = Some(1);
        let run = serve_all(&[req], &ServeConfig::with_workers(2));
        let outcome = &run.outcomes[0];
        let fc = outcome.forecast.as_ref().expect("deadline degrades, never errors");
        assert_eq!(fc.len(), 4);
        let report = outcome.report.as_ref().unwrap();
        assert_eq!(report.valid_samples, 0, "every sample expired");
        assert!(report.degraded(), "seasonal-naive fallback produced the forecast");
    }

    fn cached_config(workers: usize) -> ServeConfig {
        ServeConfig { cache: Some(CacheConfig::default()), ..ServeConfig::with_workers(workers) }
    }

    #[test]
    fn warm_flush_reuses_the_cached_context() {
        let mut handle = ServeHandle::new(cached_config(2));
        let a = handle.submit(request(4, MuxMethod::ValueInterleave, 1));
        handle.flush();
        // Same history and codec again: the second flush must hit.
        let b = handle.submit(request(7, MuxMethod::ValueInterleave, 99));
        handle.flush();
        let stats = handle.cache_stats().unwrap();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Warm and cold contexts share one trace fingerprint and both
        // report the full prompt cost (re-metered per flush).
        assert_eq!(handle.contexts().len(), 2);
        assert_eq!(handle.contexts()[0].fingerprint, handle.contexts()[1].fingerprint);
        assert_eq!(handle.contexts()[0].prompt_cost, handle.contexts()[1].prompt_cost);
        assert!(handle.collect(a).unwrap().forecast.is_ok());
        assert!(handle.collect(b).unwrap().forecast.is_ok());
    }

    #[test]
    fn warm_forecasts_are_bit_identical_to_cold() {
        let reqs =
            vec![request(4, MuxMethod::ValueInterleave, 1), request(6, MuxMethod::ValueConcat, 2)];
        let cold = serve_all(&reqs, &ServeConfig::with_workers(2));
        let mut handle = ServeHandle::new(cached_config(3));
        // Two flushes of the same batch: the second is fully warm.
        for _ in 0..2 {
            for r in &reqs {
                handle.submit(r.clone());
            }
            handle.flush();
        }
        let stats = handle.cache_stats().unwrap();
        assert_eq!((stats.misses, stats.hits), (2, 2));
        for (flush, chunk) in handle.outcomes().chunks(reqs.len()).enumerate() {
            for (cold_o, warm_o) in cold.outcomes.iter().zip(chunk) {
                let c = cold_o.forecast.as_ref().unwrap();
                let w = warm_o.forecast.as_ref().unwrap();
                for (cc, wc) in c.columns().iter().zip(w.columns()) {
                    let cb: Vec<u64> = cc.iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u64> = wc.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(cb, wb, "flush {flush} diverged from cold serve");
                }
                assert_eq!(cold_o.cost, warm_o.cost, "warm attribution must match cold");
            }
        }
    }

    #[test]
    fn flush_boundary_unpins_every_cached_context() {
        let mut handle = ServeHandle::new(cached_config(2));
        handle.submit(request(4, MuxMethod::ValueInterleave, 1));
        handle.submit(request(4, MuxMethod::ValueConcat, 2));
        handle.flush();
        assert_eq!(handle.contexts().len(), 2);
        // Both contexts were pinned during the flush and settled after:
        // a capacity-1 cache can now evict them for a new insertion.
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.insertions, 2);
        let one = ServeConfig {
            cache: Some(CacheConfig { capacity: 1, shards: 1, ..CacheConfig::default() }),
            ..ServeConfig::with_workers(2)
        };
        let mut tiny = ServeHandle::new(one);
        tiny.submit(request(4, MuxMethod::ValueInterleave, 1));
        tiny.submit(request(4, MuxMethod::ValueConcat, 2));
        tiny.flush();
        // Within the flush both stayed resident (pinned ≻ capacity);
        // eviction only happened when the over-capacity insert ran.
        let s = tiny.cache_stats().unwrap();
        assert_eq!(s.insertions, 2);
        assert_eq!(s.evictions, 0, "both contexts were pinned during the flush");
        // An unrelated history is a genuine miss: its insert now finds
        // both earlier entries unpinned and evicts down to capacity.
        let fresh = ForecastConfig { samples: 2, seed: 3, ..ForecastConfig::default() };
        let alt = sinusoids(40, &[(2.0, 7.0, 0.4)]);
        let alt2: Vec<f64> = alt.iter().map(|&v| 1.0 - v).collect();
        let train = MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![alt, alt2])
            .unwrap();
        tiny.submit(ForecastRequest::digit(train, 4, MuxMethod::ValueInterleave, fresh));
        tiny.flush();
        assert!(tiny.cache_stats().unwrap().evictions > 0, "unpinned entries evict after settle");
    }

    #[test]
    fn streamed_history_refits_incrementally() {
        // The same stream, observed longer: the grown prompt strictly
        // extends the cached one, so the second flush delta-updates the
        // resident context instead of fitting from scratch.
        let grown = ForecastConfig { samples: 2, seed: 9, ..ForecastConfig::default() };
        let long = ForecastRequest::digit(series(52), 4, MuxMethod::ValueInterleave, grown);
        let mut handle = ServeHandle::new(cached_config(2));
        handle.submit(request(4, MuxMethod::ValueInterleave, 1));
        handle.flush();
        handle.submit(long.clone());
        handle.flush();
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.refits, 1, "grown history must delta-update the cached ancestor");
        assert_eq!(stats.insertions, 1, "no second from-scratch fit");
        // Bit-identical to a cold fit of the grown history.
        let cold = serve_all(&[long], &ServeConfig::with_workers(2));
        let c = cold.outcomes[0].forecast.as_ref().unwrap();
        let w = handle.outcomes()[1].forecast.as_ref().unwrap();
        for (cc, wc) in c.columns().iter().zip(w.columns()) {
            let cb: Vec<u64> = cc.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u64> = wc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(cb, wb, "refit context diverged from a from-scratch fit");
        }
        // The refit context is a distinct trace identity: its epoch is
        // stamped into the fingerprint, so it matches neither the
        // ancestor nor the cold fit of the same grown prompt.
        let fps: Vec<u64> = handle.contexts().iter().map(|c| c.fingerprint).collect();
        assert_ne!(fps[0], fps[1]);
        assert_ne!(cold.contexts[0].fingerprint, fps[1]);
    }

    #[test]
    fn one_shot_serve_all_stays_cold_across_calls() {
        let reqs = vec![request(4, MuxMethod::ValueInterleave, 1)];
        let config = cached_config(2);
        let first = serve_all(&reqs, &config);
        let second = serve_all(&reqs, &config);
        // A fresh cache per call: identical context accounting, no warmth.
        assert_eq!(first.contexts[0].fingerprint, second.contexts[0].fingerprint);
        assert_eq!(first.contexts[0].prompt_cost, second.contexts[0].prompt_cost);
    }
}
