//! # mc-bench — the reproduction harness bins
//!
//! Every experiment is a [`mc_spec::ScenarioSpec`] executed by the
//! [`mc_spec::Runner`]; the binaries in `src/bin/` are thin wrappers
//! that translate flags into a spec and print the runner's notes:
//!
//! | Binary               | Scenario(s) |
//! |----------------------|-------------|
//! | `scenario`           | any `.spec` file (the generic driver) |
//! | `tables`             | Tables I–IX (`tables 4`, `tables all`) |
//! | `figures`            | Figures 2–8 (forecast trajectory SVGs) |
//! | `repro`              | everything above, writing `results/` |
//! | `backtest_eval`      | rolling-origin backtest; `--faults` = fault injection |
//! | `ablation`           | ablations A/B/C/E |
//! | `tokenization`       | ablation D (char vs BPE) |
//! | `tasks_eval`         | anomaly / imputation / change-point studies |
//! | `prompt_reuse`       | fit-once vs refit-per-sample |
//! | `concurrent_serving` | serve scheduler speedup; `--trace` = telemetry |
//! | `serve_chaos`        | overload drill with fault injection |
//!
//! The experiment machinery itself — grammar, lowering, execution,
//! `BENCH_*.json` emission — lives in the `mc-spec` crate. The
//! `no-adhoc-bench` lint keeps these bins declarative: they may not
//! touch the engine or serve seams directly.
//!
//! Wall-clock measurement lives in the standalone `benchmark/` package
//! (see its README), not here.

pub use mc_spec::{RESULTS_DIR, TEST_FRACTION};
