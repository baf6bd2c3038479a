//! # mc-benchmark — wall-clock benchmark of the MultiCast forecast path
//!
//! Times the public serving API from outside, on four workloads that each
//! stress a different layer (see `README.md` for the workload, metric and
//! layer tables):
//!
//! - [`run`] — end-to-end metrics with tracing off (`--trace 0`);
//! - [`trace`] — per-layer metrics (`--trace 1`);
//! - [`compare`] — the noise-aware verdict between two commits' runs.
//!
//! Every run first computes each request's reference forecast with the
//! sequential engine ([`gate`]), and every served forecast must match it
//! bit for bit.

pub mod compare;
pub mod gate;
pub mod procfs;
pub mod report;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workload;

/// Run length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;
