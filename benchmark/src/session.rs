//! The closed-loop client: one outstanding flush at a time, no other
//! threads. Each flush submits one slice of the request cycle, waits for
//! every outcome, and checks each against its reference digest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_obs::Recorder;
use multicast_core::{
    serve_all, serve_all_observed, ContextStats, ServeConfig, ServeHandle, ServeOutcome,
};

use crate::gate;
use crate::workload::{Inputs, Workload, HANDLE_FLUSHES};

/// What one flush did.
#[derive(Debug, Clone, Copy)]
pub struct Flushed {
    /// Time from the flush's first submit to its last outcome.
    pub latency: Duration,
    /// Requests submitted.
    pub requests: u64,
    /// Outcomes that matched their reference forecast.
    pub forecasts: u64,
    /// Prompt plus generated tokens attributed to the flush's outcomes.
    pub tokens: u64,
    /// Frozen contexts the flush served from.
    pub contexts: u64,
    /// Of those, contexts the handle's cache served by an exact hit.
    pub cache_hits: u64,
    /// Of those, contexts the handle's cache served by incremental refit.
    pub cache_refits: u64,
    /// Cache entries evicted during the flush.
    pub cache_evictions: u64,
}

/// Exact counts over the first request cycle of the flush sequence.
/// They depend only on the requests, never on timing or scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCounts {
    /// Flushes of the cycle accounted so far.
    pub flushes: usize,
    /// Requests (one forecast each).
    pub requests: u64,
    /// Frozen contexts served.
    pub contexts: u64,
    /// Prompt tokens attributed to the requests.
    pub prompt_tokens: u64,
    /// Generated tokens attributed to the requests.
    pub generated_tokens: u64,
    /// Backend work units attributed to the requests.
    pub work_units: u64,
    /// Retries consumed.
    pub retries: u64,
    /// Samples that survived validation.
    pub valid_samples: u64,
    /// Samples requested.
    pub requested_samples: u64,
    /// Forecasts the fallback produced.
    pub degraded: u64,
}

/// A workload's client with its inputs and served state.
pub struct Session {
    /// The request cycle being replayed.
    pub inputs: Inputs,
    digests: Vec<u64>,
    config: ServeConfig,
    obs: Option<Arc<dyn Recorder>>,
    handle: Option<ServeHandle>,
    handle_flushes: usize,
    next: usize,
    /// Outcomes, warm-up included, that did not match their reference.
    pub mismatches: u64,
    /// Exact counts over the first request cycle.
    pub cycle: CycleCounts,
}

impl Session {
    /// Generates `workload`'s inputs for `seed` and builds its client.
    /// With `obs`, flushes emit telemetry into it.
    pub fn new(
        workload: Workload,
        seed: u64,
        digests: &[u64],
        obs: Option<Arc<dyn Recorder>>,
    ) -> Self {
        let inputs = Inputs::generate(workload, seed);
        assert_eq!(inputs.requests.len(), digests.len(), "one reference per request");
        let config = workload.serve_config();
        let mut session = Session {
            inputs,
            digests: digests.to_vec(),
            config,
            obs,
            handle: None,
            handle_flushes: 0,
            next: 0,
            mismatches: 0,
            cycle: CycleCounts::default(),
        };
        if workload.uses_handle() {
            session.handle = Some(session.new_handle());
        }
        session
    }

    fn new_handle(&self) -> ServeHandle {
        match &self.obs {
            Some(obs) => ServeHandle::with_recorder(self.config, Arc::clone(obs)),
            None => ServeHandle::new(self.config),
        }
    }

    /// Serves the warm-up pass.
    pub fn warm_up(&mut self) {
        for _ in 0..self.inputs.warmup_flushes() {
            self.flush();
        }
    }

    /// Serves the next flush of the sequence.
    pub fn flush(&mut self) -> Flushed {
        let index = self.next;
        self.next += 1;
        let range = self.inputs.flush(index);
        let requests = &self.inputs.requests[range.clone()];
        let digests = &self.digests[range];
        let in_cycle = index < self.inputs.cycle();
        if self.handle.is_some() && self.handle_flushes == HANDLE_FLUSHES {
            self.handle = Some(self.new_handle());
            self.handle_flushes = 0;
        }
        let start = Instant::now();
        let flushed = match &mut self.handle {
            None => {
                let run = match &self.obs {
                    Some(obs) => serve_all_observed(requests, &self.config, Arc::clone(obs)),
                    None => serve_all(requests, &self.config),
                };
                let latency = start.elapsed();
                account(latency, &run.outcomes, &run.contexts, digests, in_cycle, &mut self.cycle)
            }
            Some(handle) => {
                let before = handle.cache_stats().unwrap_or_default();
                let (first, first_context) = (handle.outcomes().len(), handle.contexts().len());
                for request in requests {
                    handle.submit(request.clone());
                }
                handle.flush();
                let latency = start.elapsed();
                self.handle_flushes += 1;
                let outcomes = &handle.outcomes()[first..];
                let contexts = &handle.contexts()[first_context..];
                let mut flushed =
                    account(latency, outcomes, contexts, digests, in_cycle, &mut self.cycle);
                let after = handle.cache_stats().unwrap_or_default();
                flushed.cache_hits = after.hits - before.hits;
                flushed.cache_refits = after.refits - before.refits;
                flushed.cache_evictions = after.evictions - before.evictions;
                flushed
            }
        };
        self.mismatches += flushed.requests - flushed.forecasts;
        flushed
    }
}

fn account(
    latency: Duration,
    outcomes: &[ServeOutcome],
    contexts: &[ContextStats],
    digests: &[u64],
    in_cycle: bool,
    cycle: &mut CycleCounts,
) -> Flushed {
    assert_eq!(outcomes.len(), digests.len(), "one outcome per submitted request");
    let forecasts = outcomes.iter().zip(digests).filter(|(o, &d)| gate::matches(o, d)).count();
    let tokens = outcomes.iter().map(|o| o.cost.total_tokens()).sum();
    if in_cycle {
        cycle.flushes += 1;
        cycle.requests += outcomes.len() as u64;
        cycle.contexts += contexts.len() as u64;
        for o in outcomes {
            cycle.prompt_tokens += o.cost.prompt_tokens;
            cycle.generated_tokens += o.cost.generated_tokens;
            cycle.work_units += o.cost.work_units;
            if let Some(report) = &o.report {
                cycle.retries += report.retries_used as u64;
                cycle.valid_samples += report.valid_samples as u64;
                cycle.requested_samples += report.requested_samples as u64;
                cycle.degraded += u64::from(report.degraded());
            }
        }
    }
    Flushed {
        latency,
        requests: outcomes.len() as u64,
        forecasts: forecasts as u64,
        tokens,
        contexts: contexts.len() as u64,
        cache_hits: 0,
        cache_refits: 0,
        cache_evictions: 0,
    }
}
