//! PPM-C: prediction by partial matching with escape probabilities.
//!
//! A third in-context model family, classically distinct from the
//! Jelinek–Mercer interpolation of [`crate::ngram::NGramLm`]: instead of
//! *blending* all context orders, PPM commits to the longest seen context
//! and pays an explicit **escape** probability to fall back one order,
//! excluding symbols already accounted for at higher orders (the
//! "exclusion" rule). Method C sets the escape mass to
//! `distinct / (total + distinct)`.
//!
//! PPM variants drive the best adaptive text compressors; here the model
//! serves as an ablation backend — same interface, different inductive
//! bias (hard back-off vs soft mixing).
//!
//! Counts live in a flat `CountTable` (`counts.rs`), the same layout as
//! `NGramLm`. The escape/exclusion math is one function, `escape`, which
//! the mutable [`PpmLm`] runs on its own table and each [`PpmSession`]
//! runs on its overlay-over-base view.

use crate::cost::InferenceCost;
use crate::counts::{CountState, ForkState, History, Rows};
use crate::model::{DecodeSession, FrozenLm, LanguageModel};
use crate::vocab::TokenId;

/// Writes the PPM-C next-token distribution over `rows` after `history`
/// into `out`, using `excluded` (one flag per token) as scratch. Returns
/// the orders visited.
fn escape(rows: &impl Rows, history: &History, excluded: &mut [bool], out: &mut [f64]) -> u64 {
    assert_eq!(out.len(), rows.width(), "distribution buffer size");
    out.fill(0.0);
    excluded.fill(false);
    // Mass still to distribute (product of escapes so far).
    let mut remaining = 1.0f64;
    let mut visited = 0;
    for (k, &key) in history.keys().iter().enumerate().rev() {
        visited += 1;
        let Some(c) = rows.row(k, key) else {
            continue; // unseen context: free escape to the next order
        };
        // Counts over non-excluded symbols only (PPM exclusion).
        let mut total = 0u64;
        let mut distinct = 0u64;
        for (&cnt, &e) in c.iter().zip(&*excluded) {
            if cnt > 0 && !e {
                total += u64::from(cnt);
                distinct += 1;
            }
        }
        if total == 0 {
            continue;
        }
        // Method C: escape mass = distinct / (total + distinct).
        let denom = (total + distinct) as f64;
        for ((o, &cnt), e) in out.iter_mut().zip(c).zip(excluded.iter_mut()) {
            if cnt > 0 && !*e {
                *o += remaining * cnt as f64 / denom;
                *e = true;
            }
        }
        remaining *= distinct as f64 / denom;
        if remaining < 1e-15 {
            break;
        }
    }
    // Order -1: uniform over the symbols no order accounted for.
    let free = excluded.iter().filter(|&&e| !e).count();
    if free > 0 {
        let share = remaining / free as f64;
        for (o, &e) in out.iter_mut().zip(&*excluded) {
            if !e {
                *o += share;
            }
        }
    }
    // Normalize: with every symbol seen the leftover escape mass is
    // dropped; otherwise this guards against rounding drift.
    let total: f64 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= total;
    }
    visited
}

/// PPM-C language model. See the module docs.
#[derive(Debug, Clone)]
pub struct PpmLm {
    state: CountState,
    /// Per-token exclusion flags, scratch for `escape`.
    excluded: Vec<bool>,
    name: String,
}

impl PpmLm {
    /// Creates a PPM-C model with contexts up to `max_order`.
    ///
    /// # Panics
    /// If `vocab_size == 0` or the radix key would overflow 64 bits.
    pub fn new(vocab_size: usize, max_order: usize, name: impl Into<String>) -> Self {
        let state = CountState::new(vocab_size, max_order);
        Self { state, excluded: vec![false; vocab_size], name: name.into() }
    }

    /// Freezes the model after prompt conditioning; decode via
    /// [`FrozenLm::fork`] sessions.
    pub fn into_frozen(self) -> FrozenPpm {
        FrozenPpm { base: self }
    }
}

/// A prompt-conditioned [`PpmLm`] frozen for sampling.
#[derive(Debug)]
pub struct FrozenPpm {
    base: PpmLm,
}

impl FrozenLm for FrozenPpm {
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
        Box::new(PpmSession::new(&self.base))
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

/// One sample's decode cursor over a frozen [`PpmLm`].
///
/// Contexts touched by this session's generated tokens get a private row
/// in an overlay table (copied from the base on first touch); untouched
/// contexts read the frozen counts directly.
#[derive(Debug)]
pub struct PpmSession<'a> {
    fork: ForkState<'a>,
    excluded: Vec<bool>,
}

impl<'a> PpmSession<'a> {
    pub(crate) fn new(base: &'a PpmLm) -> Self {
        Self { fork: ForkState::new(&base.state), excluded: vec![false; base.state.vocab_size()] }
    }
}

impl DecodeSession for PpmSession<'_> {
    fn vocab_size(&self) -> usize {
        self.fork.vocab_size()
    }

    fn observe(&mut self, token: TokenId) {
        self.fork.observe(token);
    }

    fn next_distribution(&mut self, out: &mut [f64]) {
        let visited = escape(&self.fork.rows(), &self.fork.history, &mut self.excluded, out);
        self.fork.cost.work_units += visited;
    }

    fn cost(&self) -> InferenceCost {
        self.fork.cost
    }
}

impl LanguageModel for PpmLm {
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
        let s = &mut self.state;
        s.cost.work_units += escape(&s.table, &s.history, &mut self.excluded, out);
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
    use crate::ngram::NGramLm;

    #[test]
    fn uniform_before_any_context() {
        let mut m = PpmLm::new(4, 3, "ppm");
        let mut p = vec![0.0; 4];
        m.next_distribution(&mut p);
        assert!(is_distribution(&p));
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn learns_deterministic_cycle_sharply() {
        let mut m = PpmLm::new(3, 4, "ppm");
        let cycle: Vec<TokenId> = (0..60).map(|i| (i % 3) as TokenId).collect();
        observe_all(&mut m, &cycle);
        let mut p = vec![0.0; 3];
        m.next_distribution(&mut p);
        assert!(is_distribution(&p));
        assert!(p[0] > 0.9, "PPM commits hard to the longest match: {p:?}");
    }

    #[test]
    fn distribution_valid_under_random_feed() {
        let mut m = PpmLm::new(6, 4, "ppm");
        let mut state = 3u64;
        let mut p = vec![0.0; 6];
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.observe(((state >> 33) % 6) as TokenId, false);
            m.next_distribution(&mut p);
            assert!(is_distribution(&p));
        }
    }

    #[test]
    fn escape_reaches_unseen_symbols() {
        // Feed only tokens 0 and 1; token 2 must still get positive mass
        // (through escapes down to the uniform base).
        let mut m = PpmLm::new(3, 3, "ppm");
        observe_all(&mut m, &[0, 1, 0, 1, 0, 1, 0, 1]);
        let mut p = vec![0.0; 3];
        m.next_distribution(&mut p);
        assert!(p[2] > 0.0, "unseen symbol needs escape mass: {p:?}");
        assert!(p[2] < 0.2, "but far less than seen symbols: {p:?}");
    }

    #[test]
    fn escape_mass_never_collapses_unlike_interpolation() {
        // The structural difference between the families: chained
        // Jelinek–Mercer interpolation compounds agreement across levels
        // and collapses to ~1 on a deterministic pattern; PPM-C always
        // reserves explicit escape mass, keeping the distribution proper
        // but never degenerate.
        let pattern: Vec<TokenId> =
            [0u32, 1, 2, 3, 2, 1].iter().cycle().take(90).copied().collect();
        let mut ppm = PpmLm::new(4, 6, "ppm");
        let mut ngram = NGramLm::new(4, 6, 0.25, "ng");
        observe_all(&mut ppm, &pattern);
        observe_all(&mut ngram, &pattern);
        let mut p1 = vec![0.0; 4];
        let mut p2 = vec![0.0; 4];
        ppm.next_distribution(&mut p1);
        ngram.next_distribution(&mut p2);
        // Both commit to the cycle restart (token 0)...
        assert!(p1[0] > 0.9, "ppm: {p1:?}");
        assert!(p2[0] > 0.9, "ngram: {p2:?}");
        // ...but PPM keeps meaningfully more reserve mass on alternatives.
        let ppm_reserve = 1.0 - p1[0];
        let ngram_reserve = 1.0 - p2[0];
        assert!(
            ppm_reserve > 10.0 * ngram_reserve,
            "escape mass {ppm_reserve:.2e} vs interpolation residue {ngram_reserve:.2e}"
        );
    }

    #[test]
    fn reset_and_cost() {
        let mut m = PpmLm::new(3, 2, "ppm");
        observe_all(&mut m, &[0, 1, 2]);
        assert_eq!(m.cost().prompt_tokens, 3);
        m.reset();
        assert_eq!(m.cost(), InferenceCost::default());
        assert_eq!(m.name(), "ppm");
    }
}
