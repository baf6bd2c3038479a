//! Interpolated back-off n-gram language model with in-context learning.
//!
//! This is the primary LLM stand-in (see `DESIGN.md` §2). The model keeps
//! suffix counts for every context order `0..=max_order`, updated *as the
//! prompt streams in* — which is precisely what zero-shot forecasting
//! exploits in a pretrained transformer: the prompt itself establishes the
//! patterns the continuation must follow. Prediction mixes all orders with
//! count-confidence weights (Jelinek–Mercer interpolation with a
//! Witten–Bell-flavoured λ), so sparse-but-exact long-context matches
//! dominate when available and the model degrades gracefully to shorter
//! contexts otherwise.
//!
//! Capacity is governed by `max_order` and the interpolation concentration
//! `gamma`: a deep, low-`gamma` instance locks onto long repetitive
//! patterns (the "LLaMA2" preset), a shallow high-`gamma` one can only see
//! local digit statistics (the "Phi-2" preset).
//!
//! Counts live in a flat `CountTable` (`counts.rs`). The mixing math is
//! one function, `interpolate`, which the mutable [`NGramLm`] runs on its
//! own table's rows and each [`NGramSession`] runs on the rows of its
//! overlay-over-base view, each row looked up once per token.

use crate::cost::InferenceCost;
use crate::counts::{CountState, ForkState, Rows};
use crate::model::{DecodeSession, FrozenLm, LanguageModel};
use crate::vocab::TokenId;

/// Writes the interpolated next-token distribution over the current
/// context's `rows` into `out`, returning the orders visited.
///
/// Order 0 is a unigram with add-one smoothing toward uniform; each higher
/// order `k` with a seen context blends in its counts with weight
/// λ = n / (n + gamma · distinct). A context never seen keeps the
/// lower-order estimate (full back-off).
fn interpolate(rows: &Rows<'_>, gamma: f64, out: &mut [f64]) -> u64 {
    assert_eq!(out.len(), rows.width(), "distribution buffer size");
    let v = out.len() as f64;
    match rows.row(0) {
        Some(c) => {
            let total = totals(c).0 as f64;
            for (o, &x) in out.iter_mut().zip(c) {
                *o = (x as f64 + 1.0) / (total + v);
            }
        }
        None => out.fill(1.0 / v),
    }
    for k in 1..rows.orders() {
        let Some(c) = rows.row(k) else { continue };
        let (total, distinct) = totals(c);
        if total > 0 {
            // u32 counts sum exactly in f64, so this equals the f64 sum.
            let total = total as f64;
            let lambda = total / (total + gamma * distinct as f64);
            for (o, &x) in out.iter_mut().zip(c) {
                *o = lambda * (x as f64 / total) + (1.0 - lambda) * *o;
            }
        }
    }
    rows.orders() as u64
}

/// A row's total count and number of tokens with a non-zero count.
fn totals(row: &[u32]) -> (u64, u64) {
    row.iter().fold((0, 0), |(n, d), &x| (n + u64::from(x), d + u64::from(x > 0)))
}

/// Interpolated n-gram LM. See the module docs.
#[derive(Debug, Clone)]
pub struct NGramLm {
    state: CountState,
    gamma: f64,
    name: String,
}

impl NGramLm {
    /// Creates a model over `vocab_size` tokens mixing context orders
    /// `0..=max_order` with interpolation concentration `gamma`.
    ///
    /// # Panics
    /// If `vocab_size == 0`, `gamma <= 0`, or the radix encoding of
    /// `max_order` tokens would overflow 64 bits.
    pub fn new(vocab_size: usize, max_order: usize, gamma: f64, name: impl Into<String>) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        Self { state: CountState::new(vocab_size, max_order), gamma, name: name.into() }
    }

    /// Context depth this model mixes up to.
    pub fn max_order(&self) -> usize {
        self.state.max_order()
    }

    /// Freezes the model after prompt conditioning; decode via
    /// [`FrozenLm::fork`] sessions.
    pub fn into_frozen(self) -> FrozenNGram {
        FrozenNGram { base: self }
    }
}

/// A prompt-conditioned [`NGramLm`] frozen for sampling.
#[derive(Debug)]
pub struct FrozenNGram {
    base: NGramLm,
}

impl FrozenLm for FrozenNGram {
    fn vocab_size(&self) -> usize {
        self.base.state.vocab_size()
    }

    fn prompt_cost(&self) -> InferenceCost {
        self.base.state.cost
    }

    fn name(&self) -> &str {
        &self.base.name
    }

    fn fork(&self) -> Box<dyn DecodeSession + '_> {
        Box::new(NGramSession::new(&self.base))
    }

    fn refit_extend(&mut self, tokens: &[TokenId]) -> bool {
        // Fitting is observing: replaying the suffix through the same
        // observe path reaches the exact state a from-scratch fit on the
        // extended prompt would (same counts, history, cost).
        for &t in tokens {
            self.base.state.observe(t, false);
        }
        true
    }
}

/// One sample's decode cursor over a frozen [`NGramLm`].
///
/// Counts for generated tokens go into an overlay table that starts empty
/// (the thread's recycled one, when it has one) and copies a context's row
/// from the base on first touch, so the frozen base is shared read-only
/// and `interpolate` sees exactly the counts a mutated clone would.
#[derive(Debug)]
pub struct NGramSession<'a> {
    fork: ForkState<'a>,
    gamma: f64,
}

impl<'a> NGramSession<'a> {
    pub(crate) fn new(base: &'a NGramLm) -> Self {
        Self { fork: ForkState::new(&base.state), gamma: base.gamma }
    }
}

impl DecodeSession for NGramSession<'_> {
    fn vocab_size(&self) -> usize {
        self.fork.vocab_size()
    }

    fn observe(&mut self, token: TokenId) {
        self.fork.observe(token);
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        let visited = interpolate(&self.fork.rows(), self.gamma, out);
        self.fork.cost.work_units += visited;
    }

    fn cost(&self) -> InferenceCost {
        self.fork.cost
    }
}

impl LanguageModel for NGramLm {
    fn vocab_size(&self) -> usize {
        self.state.vocab_size()
    }

    fn reset(&mut self) {
        self.state.reset();
    }

    fn observe(&mut self, token: TokenId, generated: bool) {
        self.state.observe(token, generated);
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        let visited = interpolate(&self.state.rows(), self.gamma, out);
        self.state.cost.work_units += visited;
    }

    fn cost(&self) -> InferenceCost {
        self.state.cost
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{is_distribution, observe_all};

    fn feed(model: &mut NGramLm, tokens: &[TokenId]) {
        observe_all(model, tokens);
    }

    #[test]
    fn uniform_before_any_context() {
        let mut m = NGramLm::new(4, 3, 0.5, "t");
        let mut p = vec![0.0; 4];
        m.next_distribution(&mut p);
        assert!(is_distribution(&p));
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn learns_deterministic_cycle() {
        // Pattern 0 1 2 0 1 2 ... — after enough context the model should
        // predict the next element of the cycle with high confidence.
        let mut m = NGramLm::new(3, 4, 0.5, "t");
        let cycle: Vec<TokenId> = (0..60).map(|i| (i % 3) as TokenId).collect();
        feed(&mut m, &cycle);
        // History ends ... 0 1 2 (i=59 → token 2); next must be 0.
        let mut p = vec![0.0; 3];
        m.next_distribution(&mut p);
        assert!(is_distribution(&p));
        assert!(p[0] > 0.8, "expected confident cycle continuation, got {p:?}");
    }

    #[test]
    fn deeper_model_is_sharper_on_long_patterns() {
        // Period-4 pattern is invisible to order-1 contexts that alias.
        // Pattern: 0 1 0 2 repeated. After "0", order-1 sees P(1)≈P(2)≈0.5;
        // an order-2+ model knows which "0" this is.
        let pattern: Vec<TokenId> = [0u32, 1, 0, 2].iter().cycle().take(80).copied().collect();
        let mut shallow = NGramLm::new(3, 1, 0.5, "s");
        let mut deep = NGramLm::new(3, 4, 0.5, "d");
        feed(&mut shallow, &pattern);
        feed(&mut deep, &pattern);
        // Sequence ends ...0 2 (len 80 = 20 cycles); next is 0 then 1.
        let mut ps = vec![0.0; 3];
        let mut pd = vec![0.0; 3];
        shallow.next_distribution(&mut ps);
        deep.next_distribution(&mut pd);
        assert!(pd[0] > 0.8);
        // Feed the 0; now the interesting prediction: 1 (deep) vs aliased.
        shallow.observe(0, true);
        deep.observe(0, true);
        shallow.next_distribution(&mut ps);
        deep.next_distribution(&mut pd);
        assert!(
            pd[1] > ps[1] + 0.2,
            "deep model should disambiguate the aliased context: deep {pd:?} shallow {ps:?}"
        );
    }

    #[test]
    fn distribution_always_valid_under_random_feed() {
        let mut m = NGramLm::new(5, 3, 1.0, "t");
        let mut state = 42u64;
        let mut p = vec![0.0; 5];
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.observe(((state >> 33) % 5) as TokenId, false);
            m.next_distribution(&mut p);
            assert!(is_distribution(&p));
        }
    }

    #[test]
    fn reset_clears_context_and_cost() {
        let mut m = NGramLm::new(3, 2, 0.5, "t");
        feed(&mut m, &[0, 1, 2, 0, 1, 2]);
        assert!(m.cost().prompt_tokens == 6);
        m.reset();
        assert_eq!(m.cost(), InferenceCost::default());
        let mut p = vec![0.0; 3];
        m.next_distribution(&mut p);
        for &x in &p {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cost_distinguishes_prompt_and_generated() {
        let mut m = NGramLm::new(3, 2, 0.5, "t");
        m.observe(0, false);
        m.observe(1, true);
        m.observe(2, true);
        let c = m.cost();
        assert_eq!(c.prompt_tokens, 1);
        assert_eq!(c.generated_tokens, 2);
        assert!(c.work_units > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_token_panics() {
        let mut m = NGramLm::new(3, 2, 0.5, "t");
        m.observe(3, false);
    }

    #[test]
    #[should_panic(expected = "too deep")]
    fn order_overflow_guard() {
        NGramLm::new(64, 64, 0.5, "t");
    }

    #[test]
    fn name_is_reported() {
        let m = NGramLm::new(3, 2, 0.5, "my-model");
        assert_eq!(m.name(), "my-model");
    }

    /// A fitted table's heap stays within a constant factor of what its
    /// contexts need, `contexts × (vocab × 4 + 16)` bytes, plus a small
    /// per-order floor. The factor follows from the growth policy: the
    /// arena at most doubles a row's `vocab × 4 + 8` bytes (its first
    /// block grows by doubling, later blocks are full-size and only the
    /// last is partly filled), and an index doubled at half load holds
    /// under 4 slots of 4 bytes per context: under
    /// `vocab × 8 + 32 = 2 × (vocab × 4 + 16)`.
    /// A fixed preallocation breaks the floor on the empty prompt.
    #[test]
    fn footprint_follows_content() {
        const FACTOR: usize = 2;
        const FLOOR_PER_ORDER: usize = 256;
        let lcg = |seed: u64, len: usize, vocab: u64| -> Vec<TokenId> {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) % vocab) as TokenId
                })
                .collect()
        };
        let sax = lcg(3, 160, 7);
        let digits = lcg(7, if cfg!(miri) { 400 } else { 15_600 }, 13);
        for (vocab, prompt) in [(13, &[][..]), (7, &sax[..]), (13, &digits[..])] {
            let mut m = NGramLm::new(vocab, 10, 0.25, "t");
            feed(&mut m, prompt);
            let table = &m.state.table;
            let contexts = table.contexts();
            let bound = FACTOR * contexts * (vocab * 4 + 16) + FLOOR_PER_ORDER * 11;
            let bytes = table.heap_bytes();
            assert!(
                bytes <= bound,
                "{} tokens, {contexts} contexts: {bytes} B > {bound} B",
                prompt.len()
            );
        }
    }
}
