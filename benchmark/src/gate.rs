//! The correctness gate: every request of the cycle is first forecast by
//! the sequential engine (`ForecastEngine::run` then `EngineRun::resolve`),
//! and every forecast the serve path returns later must be bit-identical
//! to that reference.

use mc_obs::Fingerprint;
use mc_tslib::metrics::rmse;
use mc_tslib::MultivariateSeries;
use multicast_core::{ForecastEngine, ServeOutcome};

use crate::workload::Inputs;

/// Reference forecasts of one request cycle.
#[derive(Debug, Clone)]
pub struct References {
    /// Per-request digest of the reference forecast's bits.
    pub digests: Vec<u64>,
    /// Digest over the whole cycle, in request order.
    pub cycle_digest: u64,
    /// Mean RMSE of the reference forecasts against the held-out values.
    pub rmse: f64,
}

/// A 64-bit digest of a forecast's shape and value bits.
fn forecast_digest(forecast: &MultivariateSeries) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(forecast.dims() as u64);
    fp.write_u64(forecast.len() as u64);
    for column in forecast.columns() {
        for v in column {
            fp.write_u64(v.to_bits());
        }
    }
    fp.finish()
}

/// Runs every request of `inputs` through the sequential engine. Fails
/// if any reference is not `dims x horizon` finite values, so that a
/// served forecast [`matches`] only if it is too.
pub fn references(inputs: &Inputs) -> Result<References, String> {
    let mut digests = Vec::with_capacity(inputs.requests.len());
    let mut cycle = Fingerprint::new();
    let mut total_rmse = 0.0;
    for (i, (request, truth)) in inputs.requests.iter().zip(&inputs.truths).enumerate() {
        let engine = ForecastEngine::with_source(request.config, request.source);
        let codec = request.codec.build(&request.config);
        let forecast = engine
            .run(codec.as_ref(), &request.train, request.horizon)
            .and_then(|run| run.resolve(&request.train, request.horizon))
            .map_err(|e| format!("reference forecast of request {i} failed: {e}"))?;
        let shaped = forecast.dims() == request.train.dims() && forecast.len() == request.horizon;
        if !shaped || forecast.columns().iter().flatten().any(|v| !v.is_finite()) {
            return Err(format!(
                "reference forecast of request {i} is not dims x horizon finite values"
            ));
        }
        let digest = forecast_digest(&forecast);
        cycle.write_u64(digest);
        digests.push(digest);
        let predicted: Vec<f64> = forecast.columns().concat();
        total_rmse += rmse(&truth.concat(), &predicted).map_err(|e| format!("request {i}: {e}"))?;
    }
    Ok(References {
        digests,
        cycle_digest: cycle.finish(),
        rmse: total_rmse / inputs.requests.len() as f64,
    })
}

/// Whether a served outcome is `Ok` with exactly the reference's bits.
pub fn matches(outcome: &ServeOutcome, digest: u64) -> bool {
    outcome.forecast.as_ref().is_ok_and(|f| forecast_digest(f) == digest)
}
