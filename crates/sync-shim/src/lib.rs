//! Workspace-wide shim over the concurrency primitives.
//!
//! Concurrency-bearing crates import `Mutex`, `Condvar`, `Arc`, the
//! atomics, and `thread` from here instead of `std::sync` /
//! `std::thread`. An ordinary build compiles to zero-cost re-exports of
//! `std`; a `--cfg loom` build (the model-checking CI job) swaps in the
//! [`mc_loom`] primitives, whose every operation is a schedule point
//! explored by the bounded-exhaustive checker.
//!
//! Direct `std::sync::{Mutex, Condvar}` use outside this crate is a
//! workspace invariant enforced by `cargo xtask analyze` — new code that
//! bypasses the shim is invisible to the model checker and fails CI.

/// `Mutex`/`Condvar`/`Arc` — `std::sync` or model-checked equivalents.
#[cfg(loom)]
pub use mc_loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Atomic integers and `Ordering`.
#[cfg(loom)]
pub use mc_loom::sync::atomic;
#[cfg(not(loom))]
pub use std::sync::atomic;

/// Thread spawn/join/yield (model-scheduled under `--cfg loom`).
#[cfg(loom)]
pub use mc_loom::thread;
#[cfg(not(loom))]
pub use std::thread;
