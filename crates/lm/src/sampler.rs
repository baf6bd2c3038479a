//! Constrained stochastic sampling from next-token distributions.
//!
//! Reproduces the decoding side of LLMTime/MultiCast: the output alphabet
//! is *hard-restricted* (e.g. to `[0-9,]`), the distribution is sharpened
//! with a temperature, optionally truncated (top-k / nucleus), and a token
//! is drawn. Sampling is seeded so every experiment is replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::vocab::TokenId;

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Softmax-style temperature applied in probability space
    /// (`p^(1/T)`, renormalized). `1.0` = sample from the model.
    pub temperature: f64,
    /// Keep only the `k` most probable tokens (before renormalizing).
    pub top_k: Option<usize>,
    /// Nucleus sampling: keep the smallest set of tokens whose cumulative
    /// probability reaches `p`.
    pub top_p: Option<f64>,
    /// Exploration floor: after temperature and truncation, the final
    /// distribution is mixed with `epsilon` of uniform mass over the
    /// surviving candidates. Zero (the default) samples the model as-is;
    /// the prediction-interval path uses a small positive value to model
    /// token-level uncertainty a pathologically confident in-context
    /// backend underestimates.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self { temperature: 0.9, top_k: None, top_p: Some(0.95), epsilon: 0.0, seed: 0 }
    }
}

impl SamplerConfig {
    /// Checks what [`Sampler::new`] requires: a positive temperature,
    /// `top_p` in `(0, 1]`, a positive `top_k` and `epsilon` in `[0, 1)`.
    /// NaN fails every range.
    ///
    /// # Errors
    /// The first requirement, in that order, the config breaks, worded
    /// as `Sampler::new` panics with it: `temperature must be positive`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.temperature.is_nan() || self.temperature <= 0.0 {
            return Err("temperature must be positive");
        }
        if let Some(p) = self.top_p {
            if p.is_nan() || p <= 0.0 || p > 1.0 {
                return Err("top_p must be in (0, 1]");
            }
        }
        if self.top_k == Some(0) {
            return Err("top_k must be positive");
        }
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err("epsilon must be in [0, 1)");
        }
        Ok(())
    }
}

/// A seeded sampler over token distributions.
#[derive(Debug, Clone)]
pub struct Sampler {
    config: SamplerConfig,
    rng: StdRng,
    /// The allowed tokens and their probabilities during one draw; kept
    /// between draws so a sampler allocates once, not per token.
    candidates: Vec<(TokenId, f64)>,
}

impl Sampler {
    /// Creates a sampler from a config (seed included in the config).
    ///
    /// # Panics
    /// If [`SamplerConfig::validate`] rejects `config`.
    pub fn new(config: SamplerConfig) -> Self {
        let invalid = config.validate().err();
        assert!(invalid.is_none(), "{}", invalid.unwrap_or_default());
        Self { rng: StdRng::seed_from_u64(config.seed), config, candidates: Vec::new() }
    }

    /// Draws a token from `dist`, considering only ids where
    /// `allowed(id)` is true.
    ///
    /// # Panics
    /// If no allowed token has positive probability mass *and* uniform
    /// fallback over the allowed set is impossible (empty allowed set).
    pub fn sample(&mut self, dist: &[f64], allowed: impl Fn(TokenId) -> bool) -> TokenId {
        let probs = &mut self.candidates;
        // 1. Mask.
        probs.clear();
        probs.reserve(dist.len());
        probs.extend(
            dist.iter()
                .enumerate()
                .filter(|(i, _)| allowed(*i as TokenId))
                .map(|(i, &p)| (i as TokenId, p.max(0.0))),
        );
        assert!(!probs.is_empty(), "constraint excludes every token");
        let mass: f64 = probs.iter().map(|(_, p)| p).sum();
        if mass <= 0.0 {
            // Model put no mass on the allowed set: fall back to uniform.
            let u = 1.0 / probs.len() as f64;
            for p in probs.iter_mut() {
                p.1 = u;
            }
        } else {
            for p in probs.iter_mut() {
                p.1 /= mass;
            }
        }

        // 2. Temperature in probability space.
        if (self.config.temperature - 1.0).abs() > 1e-12 {
            let inv_t = 1.0 / self.config.temperature;
            let mut total = 0.0;
            for p in probs.iter_mut() {
                p.1 = p.1.powf(inv_t);
                total += p.1;
            }
            for p in probs.iter_mut() {
                p.1 /= total;
            }
        }

        // 3. Truncation: sort by probability descending once for both rules.
        probs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(k) = self.config.top_k {
            probs.truncate(k.max(1));
        }
        if let Some(top_p) = self.config.top_p {
            let mut cum = 0.0;
            let mut keep = probs.len();
            for (i, (_, p)) in probs.iter().enumerate() {
                cum += p;
                if cum >= top_p {
                    keep = i + 1;
                    break;
                }
            }
            probs.truncate(keep);
        }
        let mut total: f64 = probs.iter().map(|(_, p)| p).sum();

        // 4. Exploration floor over the surviving candidates.
        if self.config.epsilon > 0.0 {
            let uniform = total / probs.len() as f64;
            for p in probs.iter_mut() {
                p.1 = (1.0 - self.config.epsilon) * p.1 + self.config.epsilon * uniform;
            }
            total = probs.iter().map(|(_, p)| p).sum();
        }

        // 5. Draw.
        let mut u = self.rng.gen::<f64>() * total;
        for &(id, p) in probs.iter() {
            u -= p;
            if u <= 0.0 {
                return id;
            }
        }
        probs.last().expect("non-empty after truncation").0
    }

    /// The configuration this sampler was built with.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `Sampler::sample` as it was when it grew a new candidate vector on
    /// every call: the oracle for the kept buffer.
    fn reference_sample(
        config: &SamplerConfig,
        rng: &mut StdRng,
        dist: &[f64],
        allowed: impl Fn(TokenId) -> bool,
    ) -> TokenId {
        // 1. Mask.
        let mut probs: Vec<(TokenId, f64)> = dist
            .iter()
            .enumerate()
            .filter(|(i, _)| allowed(*i as TokenId))
            .map(|(i, &p)| (i as TokenId, p.max(0.0)))
            .collect();
        assert!(!probs.is_empty(), "constraint excludes every token");
        let mass: f64 = probs.iter().map(|(_, p)| p).sum();
        if mass <= 0.0 {
            // Model put no mass on the allowed set: fall back to uniform.
            let u = 1.0 / probs.len() as f64;
            for p in &mut probs {
                p.1 = u;
            }
        } else {
            for p in &mut probs {
                p.1 /= mass;
            }
        }

        // 2. Temperature in probability space.
        if (config.temperature - 1.0).abs() > 1e-12 {
            let inv_t = 1.0 / config.temperature;
            let mut total = 0.0;
            for p in &mut probs {
                p.1 = p.1.powf(inv_t);
                total += p.1;
            }
            for p in &mut probs {
                p.1 /= total;
            }
        }

        // 3. Truncation: sort by probability descending once for both rules.
        probs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(k) = config.top_k {
            probs.truncate(k.max(1));
        }
        if let Some(top_p) = config.top_p {
            let mut cum = 0.0;
            let mut keep = probs.len();
            for (i, (_, p)) in probs.iter().enumerate() {
                cum += p;
                if cum >= top_p {
                    keep = i + 1;
                    break;
                }
            }
            probs.truncate(keep);
        }
        let mut total: f64 = probs.iter().map(|(_, p)| p).sum();

        // 4. Exploration floor over the surviving candidates.
        if config.epsilon > 0.0 {
            let uniform = total / probs.len() as f64;
            for p in &mut probs {
                p.1 = (1.0 - config.epsilon) * p.1 + config.epsilon * uniform;
            }
            total = probs.iter().map(|(_, p)| p).sum();
        }

        // 5. Draw.
        let mut u = rng.gen::<f64>() * total;
        for &(id, p) in &probs {
            u -= p;
            if u <= 0.0 {
                return id;
            }
        }
        probs.last().expect("non-empty after truncation").0
    }

    /// One draw's inputs: per token a `(kind, value, allowed)` triple, the
    /// token that is allowed whatever its flag says, and whether to zero
    /// the mass of every allowed token.
    type Draw = (Vec<(u8, f64, bool)>, usize, u8);

    /// Builds a draw's distribution and mask: kind 0 is a zero, kind 1 a
    /// negative and the rest positive; the mask is never empty.
    fn draw_inputs((tokens, pick, zero): &Draw) -> (Vec<f64>, Vec<bool>) {
        let mut mask: Vec<bool> = tokens.iter().map(|t| t.2).collect();
        mask[pick % tokens.len()] = true;
        let dist = tokens
            .iter()
            .zip(&mask)
            .map(|(&(kind, value, _), &allowed)| match kind {
                _ if allowed && *zero == 0 => 0.0,
                0 => 0.0,
                1 => -value,
                _ => value,
            })
            .collect();
        (dist, mask)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// A long-lived sampler draws what a sampler allocating its
        /// candidates per call draws, draw for draw.
        #[test]
        fn kept_buffer_matches_per_call_reference(
            temperature in (any::<bool>(), 0.05f64..4.0),
            top_k in 0usize..8,
            top_p in (any::<bool>(), 0.0f64..1.0),
            epsilon in (any::<bool>(), 0.0f64..1.0),
            seed in any::<u64>(),
            draws in prop::collection::vec(
                (prop::collection::vec((0u8..4, 0.0f64..1.0, any::<bool>()), 1..24), any::<usize>(), 0u8..8),
                64,
            ),
        ) {
            let config = SamplerConfig {
                temperature: if temperature.0 { temperature.1 } else { 1.0 },
                top_k: (top_k > 0).then_some(top_k),
                top_p: top_p.0.then_some(1.0 - top_p.1),
                epsilon: if epsilon.0 { epsilon.1 } else { 0.0 },
                seed,
            };
            let mut sampler = Sampler::new(config);
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, draw) in draws.iter().enumerate() {
                let (dist, mask) = draw_inputs(draw);
                let allowed = |t: TokenId| mask[t as usize];
                let expected = reference_sample(&config, &mut rng, &dist, allowed);
                prop_assert_eq!(sampler.sample(&dist, allowed), expected, "draw {}", i);
            }
        }
    }

    #[test]
    fn validate_accepts_what_new_accepts() {
        let base = SamplerConfig::default();
        let bad = [
            (SamplerConfig { temperature: 0.0, ..base }, "temperature must be positive"),
            (SamplerConfig { temperature: -1.0, ..base }, "temperature must be positive"),
            (SamplerConfig { temperature: f64::NAN, ..base }, "temperature must be positive"),
            (SamplerConfig { top_p: Some(0.0), ..base }, "top_p must be in (0, 1]"),
            (SamplerConfig { top_p: Some(1.5), ..base }, "top_p must be in (0, 1]"),
            (SamplerConfig { top_p: Some(f64::NAN), ..base }, "top_p must be in (0, 1]"),
            (SamplerConfig { top_k: Some(0), ..base }, "top_k must be positive"),
            (SamplerConfig { epsilon: 1.0, ..base }, "epsilon must be in [0, 1)"),
            (SamplerConfig { epsilon: -0.1, ..base }, "epsilon must be in [0, 1)"),
            (SamplerConfig { epsilon: f64::NAN, ..base }, "epsilon must be in [0, 1)"),
        ];
        for (config, message) in bad {
            assert_eq!(config.validate(), Err(message));
            let panic = std::panic::catch_unwind(|| Sampler::new(config)).expect_err(message);
            assert_eq!(panic.downcast_ref::<String>().map(String::as_str), Some(message));
        }
        let good = [
            base,
            SamplerConfig {
                temperature: f64::INFINITY,
                top_p: Some(1.0),
                top_k: Some(1),
                epsilon: 0.0,
                seed: 3,
            },
            SamplerConfig { temperature: 1e-9, top_p: None, top_k: None, epsilon: 0.999, seed: 4 },
        ];
        for config in good {
            assert_eq!(config.validate(), Ok(()));
            Sampler::new(config);
        }
    }

    fn counts(sampler: &mut Sampler, dist: &[f64], n: usize) -> Vec<usize> {
        let mut c = vec![0usize; dist.len()];
        for _ in 0..n {
            c[sampler.sample(dist, |_| true) as usize] += 1;
        }
        c
    }

    #[test]
    fn respects_hard_constraint() {
        let mut s = Sampler::new(SamplerConfig { seed: 1, ..Default::default() });
        let dist = [0.7, 0.1, 0.1, 0.1];
        for _ in 0..200 {
            let t = s.sample(&dist, |id| id % 2 == 1);
            assert!(t == 1 || t == 3, "sampled disallowed token {t}");
        }
    }

    #[test]
    fn falls_back_to_uniform_when_mass_excluded() {
        let mut s = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: None,
            top_p: None,
            seed: 2,
            epsilon: 0.0,
        });
        // All mass on token 0, but only 1 and 2 are allowed.
        let dist = [1.0, 0.0, 0.0];
        let c = counts_with(&mut s, &dist, |id| id != 0, 400);
        assert_eq!(c[0], 0);
        assert!(c[1] > 100 && c[2] > 100, "uniform fallback expected: {c:?}");
    }

    fn counts_with(
        sampler: &mut Sampler,
        dist: &[f64],
        allowed: impl Fn(TokenId) -> bool + Copy,
        n: usize,
    ) -> Vec<usize> {
        let mut c = vec![0usize; dist.len()];
        for _ in 0..n {
            c[sampler.sample(dist, allowed) as usize] += 1;
        }
        c
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let dist = [0.25, 0.25, 0.25, 0.25];
        let cfg = SamplerConfig { seed: 99, ..Default::default() };
        let a: Vec<TokenId> = {
            let mut s = Sampler::new(cfg);
            (0..50).map(|_| s.sample(&dist, |_| true)).collect()
        };
        let b: Vec<TokenId> = {
            let mut s = Sampler::new(cfg);
            (0..50).map(|_| s.sample(&dist, |_| true)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn low_temperature_sharpens() {
        let dist = [0.6, 0.4];
        let mut cold = Sampler::new(SamplerConfig {
            temperature: 0.05,
            top_k: None,
            top_p: None,
            seed: 3,
            epsilon: 0.0,
        });
        let c = counts(&mut cold, &dist, 300);
        assert!(c[0] > 290, "cold sampling should almost always pick the mode: {c:?}");
        let mut warm = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: None,
            top_p: None,
            seed: 3,
            epsilon: 0.0,
        });
        let w = counts(&mut warm, &dist, 300);
        assert!(w[1] > 60, "warm sampling keeps diversity: {w:?}");
    }

    #[test]
    fn top_k_truncates() {
        let dist = [0.5, 0.3, 0.15, 0.05];
        let mut s = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: Some(2),
            top_p: None,
            seed: 4,
            epsilon: 0.0,
        });
        let c = counts(&mut s, &dist, 500);
        assert_eq!(c[2] + c[3], 0, "top-2 must exclude tail tokens: {c:?}");
    }

    #[test]
    fn top_p_keeps_nucleus() {
        let dist = [0.9, 0.05, 0.03, 0.02];
        let mut s = Sampler::new(SamplerConfig {
            temperature: 1.0,
            top_k: None,
            top_p: Some(0.5),
            seed: 5,
            epsilon: 0.0,
        });
        let c = counts(&mut s, &dist, 300);
        assert_eq!(c[1] + c[2] + c[3], 0, "nucleus of 0.5 is just the mode: {c:?}");
    }

    #[test]
    #[should_panic(expected = "excludes every token")]
    fn empty_constraint_panics() {
        let mut s = Sampler::new(SamplerConfig::default());
        s.sample(&[0.5, 0.5], |_| false);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        Sampler::new(SamplerConfig {
            temperature: 0.0,
            top_k: None,
            top_p: None,
            seed: 0,
            epsilon: 0.0,
        });
    }
}
