//! Streaming (online) zero-shot forecasting.
//!
//! The batch forecaster re-reads the whole history on every call — fine
//! for evaluation, wasteful in production where one new row arrives at a
//! time. In-context backends are *incremental by construction*: observing
//! a token only appends counts. [`StreamingMultiCast`] exploits that: it
//! is seeded once with the available history, then each
//! [`StreamingMultiCast::observe_row`] feeds just the new timestamp's
//! tokens (O(tokens-per-row), not O(history)), and
//! [`StreamingMultiCast::predict`] samples a forecast at any moment.
//!
//! Prediction draws each sample through a **forked decode session** of the
//! live model ([`ConcreteLm`] implements [`mc_lm::FrozenLm`]), so
//! speculative continuations never pollute the real context — the true
//! continuation arrives later through `observe_row`. Sampling runs through
//! the same [`crate::robust::run_attempts`] ladder as the batch engine.
//!
//! The rescaler is fitted on the seed history and fixed afterwards (the
//! headroom band absorbs moderate drift); values outside the band clamp,
//! exactly like the batch path. Re-seed when the regime shifts — pair
//! with `mc-tasks`' change-point detector for an auto-reset loop.

use mc_tslib::error::{invalid_param, pipeline_error, Result};
use mc_tslib::series::MultivariateSeries;

use mc_lm::concrete::ConcreteLm;
use mc_lm::cost::InferenceCost;
use mc_lm::generate::GenerateOptions;
use mc_lm::model::{observe_all, LanguageModel};
use mc_lm::tokenizer::{CharTokenizer, Tokenizer};
use mc_lm::vocab::{TokenId, Vocab};

use crate::codec::{DigitCodec, FittedCodec, FittedDigitCodec, DIGIT_STREAM_CHARS};
use crate::config::ForecastConfig;
use crate::engine::{check_sampler, decode_mask, EngineRun, SessionSampler};
use crate::mux::MuxMethod;
use crate::robust::{run_attempts, ForecastReport, SampleSource};

/// Rows of recent history kept for the graceful-degradation fallback
/// (enough for the fallback's longest considered seasonal period, twice
/// over, so the ACF scan has something to estimate from).
const FALLBACK_TAIL_ROWS: usize = 128;

/// An online multivariate forecaster over a live data stream.
pub struct StreamingMultiCast {
    config: ForecastConfig,
    codec: FittedDigitCodec,
    tokenizer: CharTokenizer,
    model: ConcreteLm,
    allowed: Vec<bool>,
    separator: TokenId,
    names: Vec<String>,
    observed: usize,
    predictions_drawn: u64,
    /// Rolling buffer of the most recent rows, for the fallback forecaster.
    tail: Vec<Vec<f64>>,
    /// Where continuations come from (real backend or fault-injected).
    pub source: SampleSource,
    /// Sampling-health report of the most recent `predict` call.
    pub last_report: Option<ForecastReport>,
}

impl StreamingMultiCast {
    /// Seeds the stream with the initial history (fits the codec and
    /// feeds the serialized history into the backend once).
    ///
    /// # Errors
    /// If the seed history is shorter than 8 rows (too little context to
    /// fit a meaningful scaler).
    pub fn new(
        method: MuxMethod,
        config: ForecastConfig,
        seed: &MultivariateSeries,
    ) -> Result<Self> {
        if seed.len() < 8 {
            return Err(invalid_param("seed", "need at least 8 seed rows"));
        }
        let codec = DigitCodec::from_config(method, &config).fit_digit(seed)?;
        let vocab = Vocab::numeric();
        let tokenizer = CharTokenizer::new(vocab.clone());
        let mut model = ConcreteLm::build(config.preset, vocab.len());
        let prompt_tokens = tokenizer
            .encode(codec.prompt())
            .map_err(|e| pipeline_error("encode-prompt", e.to_string()))?;
        observe_all(&mut model, &prompt_tokens);
        let allowed = decode_mask(&vocab, DIGIT_STREAM_CHARS);
        let separator = vocab
            .id(',')
            .ok_or_else(|| pipeline_error("separator", "vocabulary lacks the ',' separator"))?;
        let tail_start = seed.len().saturating_sub(FALLBACK_TAIL_ROWS);
        let tail: Vec<Vec<f64>> =
            (tail_start..seed.len()).map(|t| seed.row(t)).collect::<Result<_>>()?;
        Ok(Self {
            config,
            codec,
            tokenizer,
            model,
            allowed,
            separator,
            names: seed.names().to_vec(),
            observed: seed.len(),
            predictions_drawn: 0,
            tail,
            source: SampleSource::Model,
            last_report: None,
        })
    }

    /// Same stream with a different continuation source (fault injection).
    pub fn with_source(mut self, source: SampleSource) -> Self {
        self.source = source;
        self
    }

    /// Number of rows observed so far (seed included).
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Backend cost counters of the live context (prediction sessions
    /// count their own work separately and are dropped with it).
    pub fn cost(&self) -> InferenceCost {
        self.model.cost()
    }

    /// Feeds one new timestamp: only the new row's tokens are processed.
    ///
    /// # Errors
    /// If the row width does not match the seed's dimensionality or a
    /// value is non-finite.
    pub fn observe_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.codec.dims() {
            return Err(invalid_param(
                "row",
                format!("width {} does not match {} dimensions", row.len(), self.codec.dims()),
            ));
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(invalid_param("row", "values must be finite"));
        }
        let text = self.codec.encode_row(row)?;
        let tokens = self
            .tokenizer
            .encode(&text)
            .map_err(|e| pipeline_error("encode-row", e.to_string()))?;
        for &t in &tokens {
            self.model.observe(t, false);
        }
        self.observed += 1;
        self.tail.push(row.to_vec());
        if self.tail.len() > FALLBACK_TAIL_ROWS {
            self.tail.remove(0);
        }
        Ok(())
    }

    /// Samples a `horizon`-step forecast from the current context.
    ///
    /// Side-effect-free on the live context: every sample generates on a
    /// forked decode session. Successive calls draw fresh seeds
    /// (deterministic in call order: the n-th call after m observations
    /// always returns the same forecast).
    pub fn predict(&mut self, horizon: usize) -> Result<MultivariateSeries> {
        if horizon == 0 {
            return Err(invalid_param("horizon", "must be >= 1"));
        }
        let cfg = self.config;
        check_sampler(cfg.sampler)?;
        let separators = self.codec.separators_for(horizon);
        let options = GenerateOptions::until_separators(
            self.separator,
            separators,
            cfg.max_tokens(separators, self.codec.group_width()),
        );
        let expect = self.codec.expectations(horizon);
        let drawn = self.predictions_drawn;
        let sampler = SessionSampler::new(&self.model, &self.tokenizer, &self.allowed, options);
        let run = run_attempts(
            cfg.samples.max(1),
            cfg.robust,
            self.source,
            &expect,
            |vi, budget| {
                // Decorrelate successive predict() calls: each one shifts
                // every virtual index's seed by a per-call offset.
                let mut s = cfg.sampler_for(vi);
                s.seed = s.seed.wrapping_add(0x9e37).wrapping_add(drawn);
                sampler.draw_budgeted(s, budget)
            },
            |text| self.codec.decode(text, horizon),
        )?;
        self.predictions_drawn += 1;
        // The live model is the prompt here and its cost is tracked by
        // `cost()`, so the run carries no separate prompt cost.
        let run = EngineRun::new(run, cfg, InferenceCost::default());
        let recent = MultivariateSeries::from_rows(self.names.clone(), &self.tail)?;
        let result = run.resolve(&recent, horizon);
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

    fn series(n: usize) -> MultivariateSeries {
        let a = sinusoids(n, &[(1.0, 16.0, 0.0)]);
        let b: Vec<f64> = a.iter().map(|&v| 40.0 + 8.0 * v).collect();
        MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
    }

    fn config(samples: usize) -> ForecastConfig {
        ForecastConfig { samples, ..ForecastConfig::default() }
    }

    #[test]
    fn streaming_matches_batch_quality() {
        // Seed on train, predict the held-out horizon: the streaming path
        // must be in the same quality ballpark as the batch forecaster.
        let s = series(160);
        let (train, test) = holdout_split(&s, 0.1).unwrap();
        let mut stream =
            StreamingMultiCast::new(MuxMethod::ValueInterleave, config(5), &train).unwrap();
        let fc = stream.predict(test.len()).unwrap();
        let mut batch = crate::MultiCastForecaster::new(MuxMethod::ValueInterleave, config(5));
        use mc_tslib::forecast::MultivariateForecaster;
        let bfc = batch.forecast(&train, test.len()).unwrap();
        for d in 0..2 {
            let e_stream = rmse(test.column(d).unwrap(), fc.column(d).unwrap()).unwrap();
            let e_batch = rmse(test.column(d).unwrap(), bfc.column(d).unwrap()).unwrap();
            assert!(
                e_stream <= e_batch * 2.0 + 0.2,
                "dim {d}: streaming {e_stream:.3} vs batch {e_batch:.3}"
            );
        }
    }

    #[test]
    fn observe_row_is_incremental() {
        let s = series(120);
        let (train, rest) = holdout_split(&s, 0.2).unwrap();
        let mut stream =
            StreamingMultiCast::new(MuxMethod::ValueInterleave, config(2), &train).unwrap();
        let before = stream.cost().prompt_tokens;
        stream.observe_row(&rest.row(0).unwrap()).unwrap();
        let delta = stream.cost().prompt_tokens - before;
        // One timestamp of 2 dims x 3 digits + separator = 7 tokens (VI).
        assert_eq!(delta, 7, "only the new row's tokens are processed");
        assert_eq!(stream.observed(), train.len() + 1);
    }

    #[test]
    fn predict_does_not_pollute_the_context() {
        let s = series(100);
        let (train, _) = holdout_split(&s, 0.2).unwrap();
        let mut stream =
            StreamingMultiCast::new(MuxMethod::ValueInterleave, config(3), &train).unwrap();
        let before = stream.cost();
        stream.predict(5).unwrap();
        let after = stream.cost();
        assert_eq!(before, after, "speculative generation must not touch the live model");
    }

    #[test]
    fn predictions_improve_as_rows_stream_in() {
        // Feed the stream progressively and verify a late prediction of a
        // known continuation is no worse than an early one (more context
        // can only help on a stationary periodic series).
        let s = series(192);
        let seed = s.slice(0, 48).unwrap();
        let mut stream =
            StreamingMultiCast::new(MuxMethod::ValueInterleave, config(5), &seed).unwrap();
        let early = stream.predict(16).unwrap();
        let early_err =
            rmse(s.slice(48, 64).unwrap().column(0).unwrap(), early.column(0).unwrap()).unwrap();
        for t in 48..176 {
            stream.observe_row(&s.row(t).unwrap()).unwrap();
        }
        let late = stream.predict(16).unwrap();
        let late_err =
            rmse(s.slice(176, 192).unwrap().column(0).unwrap(), late.column(0).unwrap()).unwrap();
        assert!(
            late_err <= early_err + 0.05,
            "more context should not hurt: late {late_err:.3} vs early {early_err:.3}"
        );
    }

    #[test]
    fn validation_errors() {
        let s = series(100);
        assert!(StreamingMultiCast::new(
            MuxMethod::ValueConcat,
            config(1),
            &s.slice(0, 4).unwrap()
        )
        .is_err());
        let mut stream = StreamingMultiCast::new(MuxMethod::ValueConcat, config(1), &s).unwrap();
        assert!(stream.observe_row(&[1.0]).is_err());
        assert!(stream.observe_row(&[1.0, f64::NAN]).is_err());
        assert!(stream.predict(0).is_err());
    }
}
