//! Causal spans: parent-linked intervals over the serve pipeline.
//!
//! Where a [`TraceEvent`](crate::event::TraceEvent) records that
//! something *happened*, a [`SpanEvent`] records that something *took
//! time*: every span opens once and closes once, carries a stable
//! identifier ([`span_id`]) plus its parent's, and the pair of
//! (open, close) stamps bounds the interval. The vocabulary mirrors the
//! pipeline's causal structure:
//!
//! ```text
//! request ─┬─ context_fit            (one per frozen context, ctx-keyed)
//!          ├─ attempt(sample, n) ─┬─ draw
//!          │                      ├─ retry     (point span)
//!          │                      └─ backoff   (point span)
//!          ├─ quorum
//!          └─ fallback              (point span)
//! shed                              (point span, admission rejection)
//! queue_wait / cache_lookup / session   (scheduler-scoped sidecar lanes)
//! ```
//!
//! ## Determinism contract (dual clocks)
//!
//! Spans split into the same two determinism classes as events:
//!
//! - **Deterministic** kinds ([`SpanKind::deterministic`]) have ids that
//!   are *pure functions* of content fingerprints and `(sample, attempt)`
//!   coordinates ([`span_id`]), and parents drawn from a fixed structural
//!   table ([`parent_of`]) — no emitter state, no clock reads. Their
//!   multiset is invariant to worker count and submission order, so the
//!   canonical export ([`crate::export::spans_to_jsonl`] in logical mode)
//!   is byte-identical across schedules.
//! - **Scheduler-scoped** kinds (`queue_wait`, `cache_lookup`, `session`)
//!   key their ids off a logical tick at open time; they appear only in
//!   the wall-clock sidecar export and the metrics registry.
//!
//! Every recorded span carries *both* stamps ([`StampedSpan`]): the
//! observer's own clock (`t`, logical ticks in deterministic runs) and a
//! wall-clock sidecar reading (`wall`, elapsed nanoseconds) — canonical
//! exports drop the wall stamp, human-facing exports (the Chrome
//! trace-event JSON from [`chrome_trace`]) use it for real durations.
//!
//! ## Analysis
//!
//! [`pair_spans`] re-pairs opens with closes (orphans and double-closes
//! are typed errors — the loom suite proves the emitters produce
//! neither), [`build_trees`] nests the pairs into per-request trees,
//! [`blame`] partitions each request's interval into per-stage latency
//! blame that sums *exactly* to the end-to-end duration, and
//! [`critical_path`] walks the chain of spans that bounded completion.

use std::fmt::Write as _;

use crate::fingerprint::mix;

/// Whether a [`SpanEvent`] opens or closes its interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// The interval starts.
    Open,
    /// The interval ends.
    Close,
}

impl SpanPhase {
    /// Stable name for exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Open => "open",
            SpanPhase::Close => "close",
        }
    }
}

/// What a span's interval covers. `Copy` and payload-light for the same
/// reason [`crate::event::EventKind`] is: building one for a disabled
/// recorder must cost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A request's whole life inside a flush: opened when preparation
    /// starts, closed when finalization resolves the outcome.
    Request,
    /// A frozen context's one-time prompt-conditioning fit. Keyed by the
    /// *context* fingerprint (which request triggered the fit depends on
    /// submission order; the context set does not).
    ContextFit,
    /// One `(sample, attempt)` draw-validate-decode unit.
    Attempt {
        /// Sample slot index.
        sample: u32,
        /// Attempt number (0 = first try).
        attempt: u32,
    },
    /// The backend decode inside an attempt (the tokens-out loop).
    Draw {
        /// Sample slot index.
        sample: u32,
        /// Attempt number.
        attempt: u32,
    },
    /// A fatally-defective sample was re-queued (point span).
    Retry {
        /// Sample slot index.
        sample: u32,
        /// The attempt number the retry will run as.
        attempt: u32,
    },
    /// A retry was deferred by exponential backoff (point span).
    Backoff {
        /// Sample slot index.
        sample: u32,
        /// The attempt number the retry will run as.
        attempt: u32,
    },
    /// Quorum check plus median/fallback resolution at finalization.
    Quorum,
    /// The classical fallback produced the forecast (point span).
    Fallback,
    /// The request was shed at admission (point span; no `request` span
    /// is ever opened for it).
    Shed,
    /// A worker's blocking dequeue (scheduler-scoped: wait lengths depend
    /// on the schedule). Opened retroactively via
    /// [`Recorder::span_at`](crate::record::Recorder::span_at) with the
    /// pre-wait stamps.
    QueueWait,
    /// A cross-batch cache probe (scheduler-scoped: warmth depends on
    /// flush history). Keyed by the context fingerprint.
    CacheLookup,
    /// A forked decode session's life from fork to drop
    /// (scheduler-scoped: drop order is racy). Keyed by the context
    /// fingerprint.
    Session,
}

/// Number of span kinds (slots in the per-kind metrics table).
pub const SPAN_KINDS: usize = 12;

impl SpanKind {
    /// Stable snake_case name for exports and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::ContextFit => "context_fit",
            SpanKind::Attempt { .. } => "attempt",
            SpanKind::Draw { .. } => "draw",
            SpanKind::Retry { .. } => "retry",
            SpanKind::Backoff { .. } => "backoff",
            SpanKind::Quorum => "quorum",
            SpanKind::Fallback => "fallback",
            SpanKind::Shed => "shed",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Session => "session",
        }
    }

    /// Whether the span's id and multiset are invariant to worker count
    /// and submission order (given identical seeds and request content).
    /// Deterministic spans form the canonical span export; the rest feed
    /// metrics and the wall-clock sidecar only.
    pub fn deterministic(&self) -> bool {
        !matches!(self, SpanKind::QueueWait | SpanKind::CacheLookup | SpanKind::Session)
    }

    /// Ordering rank used by the canonical export so a request's spans
    /// read in pipeline order.
    pub fn rank(&self) -> u8 {
        match self {
            SpanKind::Request => 0,
            SpanKind::Shed => 1,
            SpanKind::ContextFit => 2,
            SpanKind::Attempt { .. } => 3,
            SpanKind::Draw { .. } => 4,
            SpanKind::Retry { .. } => 5,
            SpanKind::Backoff { .. } => 6,
            SpanKind::Quorum => 7,
            SpanKind::Fallback => 8,
            SpanKind::QueueWait | SpanKind::CacheLookup | SpanKind::Session => u8::MAX,
        }
    }

    /// `(sample, attempt)` coordinates, when the span has them.
    pub fn coords(&self) -> (u32, u32) {
        match *self {
            SpanKind::Attempt { sample, attempt }
            | SpanKind::Draw { sample, attempt }
            | SpanKind::Retry { sample, attempt }
            | SpanKind::Backoff { sample, attempt } => (sample, attempt),
            _ => (0, 0),
        }
    }

    /// Fixed slot in the per-kind metrics table
    /// ([`crate::metrics::MetricsRegistry::span_open_count`]).
    pub fn index(&self) -> usize {
        match self {
            SpanKind::Request => 0,
            SpanKind::ContextFit => 1,
            SpanKind::Attempt { .. } => 2,
            SpanKind::Draw { .. } => 3,
            SpanKind::Retry { .. } => 4,
            SpanKind::Backoff { .. } => 5,
            SpanKind::Quorum => 6,
            SpanKind::Fallback => 7,
            SpanKind::Shed => 8,
            SpanKind::QueueWait => 9,
            SpanKind::CacheLookup => 10,
            SpanKind::Session => 11,
        }
    }

    /// Stable names of every kind, in [`SpanKind::index`] order.
    pub const NAMES: [&'static str; SPAN_KINDS] = [
        "request",
        "context_fit",
        "attempt",
        "draw",
        "retry",
        "backoff",
        "quorum",
        "fallback",
        "shed",
        "queue_wait",
        "cache_lookup",
        "session",
    ];

    /// Per-kind id salt, so the same key fingerprint yields distinct span
    /// ids for distinct kinds.
    fn salt(&self) -> u64 {
        // Arbitrary distinct constants; stability matters, values do not.
        0x5350_414e_0000_0000 | self.index() as u64
    }
}

/// Deterministic span id: a pure function of the scoping fingerprint,
/// the kind and its `(sample, attempt)` coordinates — never of emitter
/// state or clocks, which is what keeps canonical span multisets
/// schedule-invariant.
pub fn span_id(key: u64, kind: &SpanKind) -> u64 {
    let (sample, attempt) = kind.coords();
    mix(mix(key, kind.salt()), (u64::from(sample) << 32) | u64::from(attempt))
}

/// The structural parent table: who owns each span kind.
///
/// `request`, `context_fit` and `shed` are roots (shed requests never
/// open a `request` span; fit is keyed by the context, not a request).
/// Per-sample spans nest under their attempt; everything else
/// request-scoped nests under the request. Scheduler-scoped kinds are
/// sidecar lanes with no parent.
pub fn parent_of(key: u64, kind: &SpanKind) -> u64 {
    match *kind {
        SpanKind::Request
        | SpanKind::ContextFit
        | SpanKind::Shed
        | SpanKind::QueueWait
        | SpanKind::CacheLookup
        | SpanKind::Session => 0,
        SpanKind::Attempt { .. } | SpanKind::Quorum | SpanKind::Fallback => {
            span_id(key, &SpanKind::Request)
        }
        SpanKind::Draw { sample, attempt }
        | SpanKind::Retry { sample, attempt }
        | SpanKind::Backoff { sample, attempt } => {
            span_id(key, &SpanKind::Attempt { sample, attempt })
        }
    }
}

/// One half of a span: its identity, lineage, scope and phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span id ([`span_id`] for deterministic kinds; tick-seeded for
    /// scheduler-scoped ones).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Content fingerprint scoping the span: the request fingerprint for
    /// request-scoped kinds, the context fingerprint for
    /// `context_fit`/`cache_lookup`/`session`, 0 for `queue_wait`.
    pub req: u64,
    /// What the interval covers.
    pub kind: SpanKind,
    /// Open or close.
    pub phase: SpanPhase,
}

impl SpanEvent {
    /// The opening half of a deterministic span scoped to `key`.
    pub fn open(key: u64, kind: SpanKind) -> Self {
        Self {
            id: span_id(key, &kind),
            parent: parent_of(key, &kind),
            req: key,
            kind,
            phase: SpanPhase::Open,
        }
    }

    /// The closing half of a deterministic span scoped to `key`.
    pub fn close(key: u64, kind: SpanKind) -> Self {
        Self { phase: SpanPhase::Close, ..Self::open(key, kind) }
    }

    /// The opening half of a scheduler-scoped span with a caller-minted
    /// id (typically [`mix`]`(tick, salt)` — unique per occurrence, not
    /// schedule-invariant).
    pub fn open_with_id(id: u64, key: u64, kind: SpanKind) -> Self {
        Self { id, parent: parent_of(key, &kind), req: key, kind, phase: SpanPhase::Open }
    }

    /// The closing half matching [`SpanEvent::open_with_id`].
    pub fn close_with_id(id: u64, key: u64, kind: SpanKind) -> Self {
        Self { phase: SpanPhase::Close, ..Self::open_with_id(id, key, kind) }
    }
}

/// One buffered span half with both clock stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedSpan {
    /// The observer's own clock at record time (logical tick or elapsed
    /// nanos, per [`crate::record::ClockMode`]).
    pub t: u64,
    /// The wall-clock sidecar reading (elapsed nanoseconds since the
    /// observer was built) — real durations for humans, dropped from
    /// canonical exports.
    pub wall: u64,
    /// The span half.
    pub span: SpanEvent,
}

/// RAII emitter: records the `Open` half on construction and the `Close`
/// half on drop — including drops during unwinding, so a panicking
/// attempt isolated by `catch_unwind` still closes every span it opened.
/// Free when the recorder is disabled.
pub struct SpanGuard<'a> {
    obs: &'a dyn crate::record::Recorder,
    close: Option<SpanEvent>,
}

impl<'a> SpanGuard<'a> {
    /// Opens a deterministic span scoped to `key`, closing it when the
    /// guard drops.
    pub fn open(obs: &'a dyn crate::record::Recorder, key: u64, kind: SpanKind) -> Self {
        let close = if obs.enabled() {
            obs.span(SpanEvent::open(key, kind));
            Some(SpanEvent::close(key, kind))
        } else {
            None
        };
        Self { obs, close }
    }

    /// Opens a scheduler-scoped span with a caller-minted id.
    pub fn open_with_id(
        obs: &'a dyn crate::record::Recorder,
        id: u64,
        key: u64,
        kind: SpanKind,
    ) -> Self {
        let close = if obs.enabled() {
            obs.span(SpanEvent::open_with_id(id, key, kind));
            Some(SpanEvent::close_with_id(id, key, kind))
        } else {
            None
        };
        Self { obs, close }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(close) = self.close.take() {
            self.obs.span(close);
        }
    }
}

/// Emits a zero-width (open immediately followed by close) span — for
/// instants that belong in the causal tree (`retry`, `backoff`,
/// `fallback`, `shed`).
pub fn point_span(obs: &dyn crate::record::Recorder, key: u64, kind: SpanKind) {
    if obs.enabled() {
        obs.span(SpanEvent::open(key, kind));
        obs.span(SpanEvent::close(key, kind));
    }
}

/// Why a span buffer failed to pair up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanError {
    /// An `Open` with no matching `Close` (or vice versa).
    Orphaned {
        /// The unpaired span id.
        id: u64,
        /// Stable kind name of the orphan.
        kind: &'static str,
        /// Which half was left dangling.
        phase: &'static str,
    },
    /// A second `Close` arrived for an id with no open interval.
    DoubleClose {
        /// The over-closed span id.
        id: u64,
        /// Stable kind name.
        kind: &'static str,
    },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::Orphaned { id, kind, phase } => {
                write!(f, "span {id:016x} ({kind}): {phase} half never paired")
            }
            SpanError::DoubleClose { id, kind } => {
                write!(f, "span {id:016x} ({kind}): closed with no open interval")
            }
        }
    }
}

/// A completed interval: one `Open` paired with one `Close`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairedSpan {
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Scoping fingerprint (see [`SpanEvent::req`]).
    pub req: u64,
    /// What the interval covers.
    pub kind: SpanKind,
    /// Observer-clock stamp of the open half.
    pub open_t: u64,
    /// Observer-clock stamp of the close half.
    pub close_t: u64,
    /// Wall sidecar stamp of the open half.
    pub open_wall: u64,
    /// Wall sidecar stamp of the close half.
    pub close_wall: u64,
}

impl PairedSpan {
    /// Interval length on the observer clock.
    pub fn ticks(&self) -> u64 {
        self.close_t.saturating_sub(self.open_t)
    }

    /// Interval length on the wall sidecar (nanoseconds).
    pub fn wall_nanos(&self) -> u64 {
        self.close_wall.saturating_sub(self.open_wall)
    }
}

/// Pairs every open with its close, in emission order per id (the same
/// id may recur across flushes; occurrences pair first-in-first-out).
///
/// # Errors
/// [`SpanError::DoubleClose`] on a close with no open interval;
/// [`SpanError::Orphaned`] when any half is left unpaired at the end.
pub fn pair_spans(spans: &[StampedSpan]) -> Result<Vec<PairedSpan>, SpanError> {
    let mut open: Vec<(u64, StampedSpan)> = Vec::new();
    let mut paired = Vec::new();
    for s in spans {
        match s.span.phase {
            SpanPhase::Open => open.push((s.span.id, *s)),
            SpanPhase::Close => {
                let Some(pos) = open.iter().position(|(id, _)| *id == s.span.id) else {
                    return Err(SpanError::DoubleClose { id: s.span.id, kind: s.span.kind.name() });
                };
                let (_, o) = open.remove(pos);
                paired.push(PairedSpan {
                    id: s.span.id,
                    parent: o.span.parent,
                    req: o.span.req,
                    kind: o.span.kind,
                    open_t: o.t,
                    close_t: s.t,
                    open_wall: o.wall,
                    close_wall: s.wall,
                });
            }
        }
    }
    if let Some((id, s)) = open.first() {
        return Err(SpanError::Orphaned { id: *id, kind: s.span.kind.name(), phase: "open" });
    }
    Ok(paired)
}

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The interval.
    pub span: PairedSpan,
    /// Child nodes, in open order.
    pub children: Vec<SpanNode>,
}

/// A per-request (or per-root) span tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The root interval (`request`, `context_fit`, `shed`, or a
    /// scheduler-scoped lane).
    pub root: SpanNode,
}

/// Attaches `node` under the span with id `parent` anywhere in the
/// forest; hands the node back if no such ancestor exists.
fn attach(nodes: &mut [SpanNode], parent: u64, node: SpanNode) -> Option<SpanNode> {
    let mut pending = Some(node);
    for candidate in nodes.iter_mut() {
        let Some(node) = pending.take() else { break };
        if candidate.span.id == parent {
            candidate.children.push(node);
            return None;
        }
        pending = attach(&mut candidate.children, parent, node);
    }
    pending
}

/// Nests paired spans into trees by parent id. Spans whose parent never
/// appears (scheduler-scoped lanes, roots) become their own trees, in
/// open order.
pub fn build_trees(paired: &[PairedSpan]) -> Vec<SpanTree> {
    let mut ordered: Vec<&PairedSpan> = paired.iter().collect();
    ordered.sort_by_key(|s| (s.open_t, s.id));
    let mut roots: Vec<SpanNode> = Vec::new();
    for span in ordered {
        let node = SpanNode { span: *span, children: Vec::new() };
        if span.parent == 0 {
            roots.push(node);
            continue;
        }
        if let Some(back) = attach(&mut roots, span.parent, node) {
            roots.push(back);
        }
    }
    roots.into_iter().map(|root| SpanTree { root }).collect()
}

/// Per-stage latency blame for one tree: the root interval is partitioned
/// at every descendant boundary, each segment is blamed on the *deepest*
/// span covering it (ties to the latest-closing one), and segments only
/// the root covers are blamed on `"queue_wait"` — scheduling and queueing
/// are exactly the time a request spends not actively in any stage.
/// Because the segments partition the root interval, the returned stage
/// durations sum to the end-to-end duration **exactly**.
pub fn blame(tree: &SpanTree) -> Vec<(&'static str, u64)> {
    let root = &tree.root.span;
    let mut cuts = vec![root.open_t, root.close_t];
    let mut covers: Vec<(u64, u64, usize, &'static str)> = Vec::new();
    fn walk(
        node: &SpanNode,
        depth: usize,
        cuts: &mut Vec<u64>,
        covers: &mut Vec<(u64, u64, usize, &'static str)>,
    ) {
        for child in &node.children {
            let s = &child.span;
            cuts.push(s.open_t);
            cuts.push(s.close_t);
            covers.push((s.open_t, s.close_t, depth + 1, s.kind.name()));
            walk(child, depth + 1, cuts, covers);
        }
    }
    walk(&tree.root, 0, &mut cuts, &mut covers);
    cuts.sort_unstable();
    cuts.dedup();
    let mut stages: Vec<(&'static str, u64)> = Vec::new();
    for pair in cuts.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        if lo < root.open_t || hi > root.close_t {
            continue;
        }
        let owner = covers
            .iter()
            .filter(|&&(o, c, ..)| o <= lo && hi <= c)
            .max_by_key(|&&(o, c, depth, _)| (depth, c, std::cmp::Reverse(o)))
            .map_or("queue_wait", |&(.., name)| name);
        match stages.iter_mut().find(|(name, _)| *name == owner) {
            Some((_, total)) => *total += hi - lo,
            None => stages.push((owner, hi - lo)),
        }
    }
    stages
}

/// The chain of spans that bounded this tree's completion: starting at
/// the root, repeatedly descend into the latest-closing child. The last
/// element is the span whose close coincides with the tree's.
pub fn critical_path(tree: &SpanTree) -> Vec<PairedSpan> {
    let mut path = vec![tree.root.span];
    let mut node = &tree.root;
    while let Some(next) = node.children.iter().max_by_key(|c| (c.span.close_t, c.span.open_t)) {
        path.push(next.span);
        node = next;
    }
    path
}

/// Renders paired spans as Chrome trace-event JSON (the `traceEvents`
/// array format) loadable in Perfetto or `chrome://tracing`. Timestamps
/// and durations come from the wall sidecar (microseconds, fractional);
/// each distinct scope fingerprint gets its own `tid` lane, in first-use
/// order, so a request's spans stack in one track.
pub fn chrome_trace(paired: &[PairedSpan]) -> String {
    let mut lanes: Vec<u64> = Vec::new();
    let mut ordered: Vec<&PairedSpan> = paired.iter().collect();
    ordered.sort_by_key(|s| (s.open_wall, s.id));
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in ordered.iter().enumerate() {
        let tid = match lanes.iter().position(|&fp| fp == s.req) {
            Some(pos) => pos + 1,
            None => {
                lanes.push(s.req);
                lanes.len()
            }
        };
        let ts = s.open_wall as f64 / 1_000.0;
        let dur = s.wall_nanos() as f64 / 1_000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\
             \"req\":\"{:016x}\",\"ticks\":{}}}}}",
            s.kind.name(),
            s.id,
            s.parent,
            s.req,
            s.ticks(),
        );
        out.push_str(if i + 1 == ordered.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(t: u64, span: SpanEvent) -> StampedSpan {
        StampedSpan { t, wall: t * 10, span }
    }

    #[test]
    fn ids_are_pure_and_kind_distinct() {
        let a = span_id(7, &SpanKind::Request);
        assert_eq!(a, span_id(7, &SpanKind::Request));
        assert_ne!(a, span_id(8, &SpanKind::Request));
        assert_ne!(a, span_id(7, &SpanKind::Quorum));
        let s0 = span_id(7, &SpanKind::Attempt { sample: 0, attempt: 0 });
        let s1 = span_id(7, &SpanKind::Attempt { sample: 1, attempt: 0 });
        let r1 = span_id(7, &SpanKind::Attempt { sample: 0, attempt: 1 });
        assert!(s0 != s1 && s0 != r1 && s1 != r1);
    }

    #[test]
    fn parents_follow_the_structural_table() {
        let req = span_id(7, &SpanKind::Request);
        let attempt = SpanKind::Attempt { sample: 2, attempt: 1 };
        assert_eq!(parent_of(7, &SpanKind::Request), 0);
        assert_eq!(parent_of(7, &SpanKind::Shed), 0);
        assert_eq!(parent_of(7, &attempt), req);
        assert_eq!(parent_of(7, &SpanKind::Quorum), req);
        assert_eq!(
            parent_of(7, &SpanKind::Draw { sample: 2, attempt: 1 }),
            span_id(7, &attempt),
            "draw nests under its own attempt"
        );
    }

    #[test]
    fn kind_table_is_consistent() {
        let kinds = [
            SpanKind::Request,
            SpanKind::ContextFit,
            SpanKind::Attempt { sample: 0, attempt: 0 },
            SpanKind::Draw { sample: 0, attempt: 0 },
            SpanKind::Retry { sample: 0, attempt: 1 },
            SpanKind::Backoff { sample: 0, attempt: 1 },
            SpanKind::Quorum,
            SpanKind::Fallback,
            SpanKind::Shed,
            SpanKind::QueueWait,
            SpanKind::CacheLookup,
            SpanKind::Session,
        ];
        assert_eq!(kinds.len(), SPAN_KINDS);
        for kind in &kinds {
            assert_eq!(SpanKind::NAMES[kind.index()], kind.name());
        }
        assert!(!SpanKind::QueueWait.deterministic());
        assert!(!SpanKind::CacheLookup.deterministic());
        assert!(!SpanKind::Session.deterministic());
        assert!(SpanKind::Request.deterministic());
        assert!(SpanKind::Shed.deterministic());
    }

    #[test]
    fn pairing_rejects_orphans_and_double_closes() {
        let open = SpanEvent::open(1, SpanKind::Request);
        let close = SpanEvent::close(1, SpanKind::Request);
        let ok = pair_spans(&[stamped(0, open), stamped(5, close)]).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].ticks(), 5);
        assert_eq!(ok[0].wall_nanos(), 50);

        let orphan = pair_spans(&[stamped(0, open)]);
        assert!(matches!(orphan, Err(SpanError::Orphaned { phase: "open", .. })), "{orphan:?}");
        let double = pair_spans(&[stamped(0, open), stamped(1, close), stamped(2, close)]);
        assert!(matches!(double, Err(SpanError::DoubleClose { .. })), "{double:?}");
    }

    #[test]
    fn recurring_ids_pair_fifo() {
        let open = SpanEvent::open(1, SpanKind::Request);
        let close = SpanEvent::close(1, SpanKind::Request);
        let paired =
            pair_spans(&[stamped(0, open), stamped(1, close), stamped(2, open), stamped(9, close)])
                .unwrap();
        assert_eq!(paired.len(), 2);
        assert_eq!((paired[0].open_t, paired[0].close_t), (0, 1));
        assert_eq!((paired[1].open_t, paired[1].close_t), (2, 9));
    }

    fn request_fixture() -> Vec<StampedSpan> {
        // request [0, 20]: attempt(0,0) [2, 10] with draw [3, 8],
        // quorum [14, 18]; ticks 0-2, 10-14 and 18-20 are unblamed.
        let attempt = SpanKind::Attempt { sample: 0, attempt: 0 };
        let draw = SpanKind::Draw { sample: 0, attempt: 0 };
        vec![
            stamped(0, SpanEvent::open(7, SpanKind::Request)),
            stamped(2, SpanEvent::open(7, attempt)),
            stamped(3, SpanEvent::open(7, draw)),
            stamped(8, SpanEvent::close(7, draw)),
            stamped(10, SpanEvent::close(7, attempt)),
            stamped(14, SpanEvent::open(7, SpanKind::Quorum)),
            stamped(18, SpanEvent::close(7, SpanKind::Quorum)),
            stamped(20, SpanEvent::close(7, SpanKind::Request)),
        ]
    }

    #[test]
    fn trees_nest_by_parent_and_blame_partitions_exactly() {
        let paired = pair_spans(&request_fixture()).unwrap();
        let trees = build_trees(&paired);
        assert_eq!(trees.len(), 1);
        let root = &trees[0].root;
        assert_eq!(root.span.kind, SpanKind::Request);
        assert_eq!(root.children.len(), 2, "attempt and quorum");
        assert_eq!(root.children[0].children.len(), 1, "draw under attempt");

        let stages = blame(&trees[0]);
        let get = |name: &str| stages.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
        assert_eq!(get("draw"), 5, "deepest span owns its segment");
        assert_eq!(get("attempt"), 3, "attempt minus its draw");
        assert_eq!(get("quorum"), 4);
        assert_eq!(get("queue_wait"), 8, "uncovered root time");
        let total: u64 = stages.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 20, "blame partitions the end-to-end interval exactly");
    }

    #[test]
    fn critical_path_descends_latest_closing_children() {
        let paired = pair_spans(&request_fixture()).unwrap();
        let trees = build_trees(&paired);
        let path: Vec<&'static str> =
            critical_path(&trees[0]).iter().map(|s| s.kind.name()).collect();
        assert_eq!(path, vec!["request", "quorum"]);
    }

    #[test]
    fn chrome_trace_renders_complete_events() {
        let paired = pair_spans(&request_fixture()).unwrap();
        let json = chrome_trace(&paired);
        assert!(json.starts_with("{\"traceEvents\":[\n"), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"name\":\"draw\""), "{json}");
        assert!(json.contains("\"dur\":0.050"), "draw lasts 5 ticks = 50ns = 0.05us: {json}");
        assert_eq!(json.matches(",\n").count(), 3, "valid JSON array separators");
    }
}
