//! # mc-obs — deterministic tracing + metrics for the serve path
//!
//! `deny.toml` bans external crates, so this is the workspace's own
//! structured observability layer: no `tracing`, no `serde`, no
//! `prometheus` — just the pieces the serve scheduler actually needs,
//! built on the same [`mc_sync`] shim as the rest of the concurrency
//! layer so the loom model checker can explore it.
//!
//! Four pieces:
//!
//! - **[`Clock`]** — timestamps come from a pluggable clock.
//!   [`LogicalClock`] (the default in tests) hands out deterministic
//!   ticks; [`WallClock`] reads real elapsed nanoseconds and is the
//!   *only* sanctioned `Instant::now` outside the bench harness (a
//!   justified `mc-lint.allow` entry keeps the `no-wallclock` invariant
//!   alive).
//! - **[`TraceEvent`]** — a `Copy`, allocation-free record of one
//!   serve-path happening (`queue_wait`, `context_fit`, `attempt`,
//!   `retry`, `quorum_resolve`, `fallback`, `panic_isolated`, ...).
//!   Events carry numeric payloads only, so building one for a disabled
//!   recorder costs nothing.
//! - **[`MetricsRegistry`]** — atomic counters and fixed-bucket
//!   histograms, routed through [`mc_sync`]'s atomics so the registry is
//!   loom-checkable exactly like `mc-lm`'s `CostLedger`.
//! - **[`Recorder`] / [`Observer`]** — the sink. [`NoopRecorder`] is the
//!   default and keeps the hot path free of buffering; [`Observer`]
//!   stamps every event with its clock, folds it into a registry, and
//!   exports JSONL traces ([`export`]) plus a metrics snapshot.
//!
//! ## Determinism contract
//!
//! With identical seeds and a [`LogicalClock`], the
//! canonical JSONL export is **byte-identical across worker counts and
//! submission orders**, matching the serve layer's bit-identical-forecast
//! guarantee. Two mechanisms make that hold:
//!
//! 1. Events are keyed by *content fingerprints* (what was requested),
//!    never by submission indices or thread ids.
//! 2. Export distinguishes request-scoped events (attempts, retries,
//!    defects, quorum resolution — schedule-invariant multisets) from
//!    scheduler-scoped ones (`queue_wait`, `fit_dedup_hit`,
//!    `session_cost` — whose owners or orderings depend on scheduling).
//!    The canonical export sorts the former and re-stamps logical times;
//!    the latter feed the metrics registry and appear only in wall-clock
//!    (emission-order) exports.

//! ## Spans
//!
//! On top of the flat event stream, [`span`] adds causal *intervals*:
//! parent-linked [`SpanEvent`] open/close pairs
//! (request → context_fit / attempt → draw / retry / backoff / quorum /
//! fallback, plus scheduler-scoped queue_wait / cache_lookup / session
//! lanes) with the same two determinism classes as events and
//! dual-clock stamps. [`span::pair_spans`] / [`span::build_trees`] /
//! [`span::blame`] / [`span::critical_path`] reconstruct per-request
//! trees and attribute end-to-end latency to stages;
//! [`span::chrome_trace`] renders Perfetto-loadable JSON.

pub mod clock;
pub mod event;
pub mod export;
pub mod fingerprint;
pub mod metrics;
pub mod record;
pub mod span;

pub use clock::{Clock, LogicalClock, WallClock};
pub use event::{AttemptClass, EventKind, TraceEvent, DEFECT_CLASSES, DEFECT_CLASS_NAMES};
pub use fingerprint::{mix, Fingerprint};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use record::{ClockMode, NoopRecorder, Observer, Recorder, Stamped};
pub use span::{
    blame, build_trees, chrome_trace, critical_path, pair_spans, parent_of, point_span, span_id,
    PairedSpan, SpanError, SpanEvent, SpanGuard, SpanKind, SpanNode, SpanPhase, SpanTree,
    StampedSpan, SPAN_KINDS,
};
