//! The MultiCast forecaster: multiplex → prompt → sample → demultiplex.
//!
//! This is the paper's method proper. The multivariate history is rescaled
//! per dimension ([`FixedDigitScaler`](crate::FixedDigitScaler)), folded into one token stream by
//! the chosen multiplexing scheme, and the LLM backend continues it under
//! the digit/comma output constraint. Each of the `S` continuations is
//! demultiplexed and descaled independently; the reported forecast is the
//! pointwise median.
//!
//! Sampling runs through the fault-tolerant layer ([`crate::robust`]):
//! defective continuations are retried under fresh seeds, a failed quorum
//! degrades to the seasonal-naive fallback per the configured
//! [`crate::robust::FallbackPolicy`], and every call records a
//! [`ForecastReport`] in `last_report`.

use mc_tslib::error::Result;
use mc_tslib::forecast::MultivariateForecaster;
use mc_tslib::series::MultivariateSeries;

use mc_lm::cost::InferenceCost;

use crate::codec::DigitCodec;
use crate::config::ForecastConfig;
use crate::engine::ForecastEngine;
use crate::mux::MuxMethod;
use crate::robust::{ForecastReport, SampleSource};

/// Zero-shot multivariate forecaster with dimensional multiplexing.
#[derive(Debug, Clone)]
pub struct MultiCastForecaster {
    /// Which of the three multiplexing schemes to use.
    pub method: MuxMethod,
    /// Pipeline configuration.
    pub config: ForecastConfig,
    /// Cost counters of the most recent `forecast` call (all samples
    /// summed); `None` before the first call.
    pub last_cost: Option<InferenceCost>,
    /// Where continuations come from (real backend, or fault-injected for
    /// chaos drills and the fault-injection benchmark).
    pub source: SampleSource,
    /// Sampling-health report of the most recent `forecast` call; `None`
    /// before the first call.
    pub last_report: Option<ForecastReport>,
}

impl MultiCastForecaster {
    /// Creates a forecaster.
    pub fn new(method: MuxMethod, config: ForecastConfig) -> Self {
        Self { method, config, last_cost: None, source: SampleSource::Model, last_report: None }
    }

    /// Same forecaster with a different continuation source.
    pub fn with_source(mut self, source: SampleSource) -> Self {
        self.source = source;
        self
    }
}

impl MultivariateForecaster for MultiCastForecaster {
    fn name(&self) -> String {
        self.method.display_name().to_string()
    }

    fn forecast(
        &mut self,
        train: &MultivariateSeries,
        horizon: usize,
    ) -> Result<MultivariateSeries> {
        let codec = DigitCodec::from_config(self.method, &self.config);
        let engine = ForecastEngine::with_source(self.config, self.source);
        let run = engine.run(&codec, train, horizon)?;
        self.last_cost = Some(run.cost());
        let result = run.resolve(train, horizon);
        self.last_report = Some(run.into_report());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_datasets::generators::sinusoids;
    use mc_tslib::metrics::rmse;
    use mc_tslib::split::holdout_split;

    fn quick_config(samples: usize, seed: u64) -> ForecastConfig {
        ForecastConfig { samples, seed, ..Default::default() }
    }

    fn periodic_series(n: usize) -> MultivariateSeries {
        // Two coupled periodic dimensions on different scales.
        let a = sinusoids(n, &[(1.0, 16.0, 0.0), (0.3, 8.0, 1.0)]);
        let b: Vec<f64> = a.iter().map(|&v| 100.0 + 20.0 * v).collect();
        MultivariateSeries::from_columns(vec!["low".into(), "high".into()], vec![a, b]).unwrap()
    }

    #[test]
    fn forecast_shape_and_names() {
        let series = periodic_series(96);
        let (train, test) = holdout_split(&series, 0.1).unwrap();
        for method in MuxMethod::ALL {
            let mut f = MultiCastForecaster::new(method, quick_config(2, 1));
            let fc = f.forecast(&train, test.len()).unwrap();
            assert_eq!(fc.len(), test.len());
            assert_eq!(fc.dims(), 2);
            assert_eq!(fc.names(), train.names());
            assert!(f.last_cost.unwrap().generated_tokens > 0);
            let report = f.last_report.as_ref().unwrap();
            assert!(!report.degraded(), "healthy backend must not degrade: {}", report.summary());
            assert_eq!(report.valid_samples, 2);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let series = periodic_series(80);
        let (train, _) = holdout_split(&series, 0.1).unwrap();
        let mut f1 = MultiCastForecaster::new(MuxMethod::ValueInterleave, quick_config(3, 9));
        let mut f2 = MultiCastForecaster::new(MuxMethod::ValueInterleave, quick_config(3, 9));
        assert_eq!(f1.forecast(&train, 6).unwrap(), f2.forecast(&train, 6).unwrap());
        // (Different seeds may still agree: the median over samples is
        // robust by design, so no inequality is asserted here — seed
        // sensitivity of the raw sampler is covered in mc-lm.)
    }

    #[test]
    fn forecast_stays_in_scaler_band() {
        let series = periodic_series(80);
        let (train, _) = holdout_split(&series, 0.1).unwrap();
        let mut f = MultiCastForecaster::new(MuxMethod::DigitInterleave, quick_config(3, 2));
        let fc = f.forecast(&train, 8).unwrap();
        // Descaled values can never leave the headroom-extended range.
        for d in 0..2 {
            let col = train.column(d).unwrap();
            let (mn, mx) = col.iter().fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let range = mx - mn;
            for &v in fc.column(d).unwrap() {
                assert!(v >= mn - 0.16 * range && v <= mx + 0.16 * range, "dim {d}: {v}");
            }
        }
    }

    #[test]
    fn beats_midrange_on_strong_period() {
        // On a clean periodic series the zero-shot forecast must do much
        // better than predicting the series mean everywhere.
        let series = periodic_series(160);
        let (train, test) = holdout_split(&series, 0.1).unwrap();
        let mut f = MultiCastForecaster::new(MuxMethod::ValueInterleave, quick_config(5, 3));
        let fc = f.forecast(&train, test.len()).unwrap();
        for d in 0..2 {
            let col = train.column(d).unwrap();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let err = rmse(test.column(d).unwrap(), fc.column(d).unwrap()).unwrap();
            let mean_err = rmse(test.column(d).unwrap(), &vec![mean; test.len()]).unwrap();
            assert!(
                err < mean_err,
                "dim {d}: multicast {err:.3} should beat mean predictor {mean_err:.3}"
            );
        }
    }

    #[test]
    fn univariate_series_works_for_all_methods() {
        let a = sinusoids(64, &[(1.0, 8.0, 0.0)]);
        let series = MultivariateSeries::from_columns(vec!["only".into()], vec![a]).unwrap();
        for method in MuxMethod::ALL {
            let mut f = MultiCastForecaster::new(method, quick_config(2, 4));
            let fc = f.forecast(&series, 5).unwrap();
            assert_eq!(fc.dims(), 1);
            assert_eq!(fc.len(), 5);
        }
    }
}
