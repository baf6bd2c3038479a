//! Inference cost accounting.
//!
//! The paper motivates both SAX quantization and the sample-count trade-off
//! with *token budgets*: hosted LLMs "charge queries by token", and CPU
//! inference time scales with tokens processed. Every model in this crate
//! tracks the tokens it consumes and emits plus an abstract work counter,
//! so the benchmark harness can report token counts next to wall-clock
//! times (Tables VII–IX).

/// Running totals of one inference session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InferenceCost {
    /// Tokens consumed from the prompt.
    pub prompt_tokens: u64,
    /// Tokens generated autoregressively.
    pub generated_tokens: u64,
    /// Abstract work units: for [`crate::SuffixLm`] this counts context
    /// positions scanned (the transformer-like O(context²) total); for
    /// [`crate::NGramLm`] and [`crate::PpmLm`] it counts the context
    /// orders visited per observed token and per distribution.
    pub work_units: u64,
}

impl InferenceCost {
    /// Total tokens that passed through the model.
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens + self.generated_tokens
    }

    /// Dollar cost under a simple per-token price (e.g. hosted-API style
    /// pricing, defaults in [`Pricing`]).
    pub fn price(&self, pricing: Pricing) -> f64 {
        self.prompt_tokens as f64 * pricing.per_prompt_token
            + self.generated_tokens as f64 * pricing.per_generated_token
    }

    /// Accumulates another session's cost into this one.
    pub fn absorb(&mut self, other: InferenceCost) {
        self.prompt_tokens += other.prompt_tokens;
        self.generated_tokens += other.generated_tokens;
        self.work_units += other.work_units;
    }
}

/// A per-token price sheet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Price per prompt token.
    pub per_prompt_token: f64,
    /// Price per generated token.
    pub per_generated_token: f64,
}

impl Default for Pricing {
    /// Representative hosted-LLM pricing at the time of the paper
    /// (order of magnitude only; used for relative comparisons).
    fn default() -> Self {
        Self { per_prompt_token: 0.5e-6, per_generated_token: 1.5e-6 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_absorb() {
        let mut a = InferenceCost { prompt_tokens: 10, generated_tokens: 5, work_units: 100 };
        let b = InferenceCost { prompt_tokens: 1, generated_tokens: 2, work_units: 3 };
        a.absorb(b);
        assert_eq!(a.total_tokens(), 18);
        assert_eq!(a.work_units, 103);
    }

    #[test]
    fn pricing_weights_generation_higher() {
        let c = InferenceCost { prompt_tokens: 1000, generated_tokens: 1000, work_units: 0 };
        let p = c.price(Pricing::default());
        assert!(p > 0.0);
        let gen_only = InferenceCost { prompt_tokens: 0, generated_tokens: 1000, work_units: 0 };
        let prompt_only = InferenceCost { prompt_tokens: 1000, generated_tokens: 0, work_units: 0 };
        assert!(gen_only.price(Pricing::default()) > prompt_only.price(Pricing::default()));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(InferenceCost::default().total_tokens(), 0);
    }
}
