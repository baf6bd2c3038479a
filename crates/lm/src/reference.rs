//! The count backends as they were before [`crate::counts`]: one
//! `HashMap` entry and one `Vec<u32>` per stored context, a per-session
//! `HashMap` overlay, and a model and a session that each carry their own
//! copy of the math. Kept verbatim as a test oracle: the flat-table
//! backends must match it bit for bit (distributions, seeded draws and
//! every `InferenceCost` field).

pub(crate) mod ngram {
    use std::collections::HashMap;

    use crate::cost::InferenceCost;
    use crate::model::{DecodeSession, FrozenLm, LanguageModel};
    use crate::vocab::TokenId;

    /// Radix-encodes the last `k` tokens of `history` into a map key — the
    /// context-key scheme shared by [`NGramLm`] and [`crate::ppm::PpmLm`]
    /// (and their frozen decode sessions, which must reproduce it exactly).
    pub(crate) fn radix_key(history: &[TokenId], k: usize, vocab_size: usize) -> u64 {
        debug_assert!(k <= history.len());
        let mut key = 0u64;
        for &t in &history[history.len() - k..] {
            key = key * vocab_size as u64 + t as u64;
        }
        key
    }

    /// Interpolated n-gram LM. See the module docs.
    #[derive(Debug, Clone)]
    pub struct NGramLm {
        vocab_size: usize,
        max_order: usize,
        gamma: f64,
        /// `counts[k]` maps a radix-encoded `k`-token context to next-token
        /// count vectors.
        counts: Vec<HashMap<u64, Vec<u32>>>,
        /// Most recent `max_order` tokens, oldest first.
        history: Vec<TokenId>,
        cost: InferenceCost,
        name: String,
    }

    impl NGramLm {
        /// Creates a model over `vocab_size` tokens mixing context orders
        /// `0..=max_order` with interpolation concentration `gamma`.
        ///
        /// # Panics
        /// If `vocab_size == 0`, `gamma <= 0`, or the radix encoding of
        /// `max_order` tokens would overflow 64 bits.
        pub fn new(
            vocab_size: usize,
            max_order: usize,
            gamma: f64,
            name: impl Into<String>,
        ) -> Self {
            assert!(vocab_size > 0, "vocab_size must be positive");
            assert!(gamma > 0.0, "gamma must be positive");
            let bits = (vocab_size as f64).log2().ceil().max(1.0) * max_order as f64;
            assert!(bits <= 63.0, "max_order {max_order} too deep for vocab {vocab_size}");
            Self {
                vocab_size,
                max_order,
                gamma,
                counts: vec![HashMap::new(); max_order + 1],
                history: Vec::with_capacity(max_order),
                cost: InferenceCost::default(),
                name: name.into(),
            }
        }

        /// Context depth this model mixes up to.
        pub fn max_order(&self) -> usize {
            self.max_order
        }

        /// Radix-encodes the last `k` history tokens into a map key.
        fn key(&self, k: usize) -> u64 {
            radix_key(&self.history, k, self.vocab_size)
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
            self.base.vocab_size
        }

        fn prompt_cost(&self) -> InferenceCost {
            self.base.cost
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
                self.base.observe(t, false);
            }
            true
        }
    }

    /// One sample's decode cursor over a frozen [`NGramLm`].
    ///
    /// Count updates for generated tokens go into a copy-on-write overlay (the
    /// affected count vector is copied from the base on first touch), so the
    /// frozen base is shared read-only and the session sees exactly the counts
    /// a mutated clone would — same `u32` counts, same `f64` arithmetic,
    /// bit-identical distributions.
    #[derive(Debug)]
    pub struct NGramSession<'a> {
        base: &'a NGramLm,
        overlay: Vec<HashMap<u64, Vec<u32>>>,
        history: Vec<TokenId>,
        cost: InferenceCost,
    }

    impl<'a> NGramSession<'a> {
        pub(crate) fn new(base: &'a NGramLm) -> Self {
            Self {
                base,
                overlay: vec![HashMap::new(); base.max_order + 1],
                history: base.history.clone(),
                cost: InferenceCost::default(),
            }
        }

        fn counts(&self, k: usize, key: u64) -> Option<&Vec<u32>> {
            self.overlay[k].get(&key).or_else(|| self.base.counts[k].get(&key))
        }
    }

    impl DecodeSession for NGramSession<'_> {
        fn vocab_size(&self) -> usize {
            self.base.vocab_size
        }

        fn observe(&mut self, token: TokenId) {
            let vocab_size = self.base.vocab_size;
            assert!((token as usize) < vocab_size, "token {token} out of range");
            for k in 0..=self.base.max_order.min(self.history.len()) {
                let key = radix_key(&self.history, k, vocab_size);
                let base_counts = &self.base.counts[k];
                let slot = self.overlay[k].entry(key).or_insert_with(|| {
                    base_counts.get(&key).cloned().unwrap_or_else(|| vec![0u32; vocab_size])
                });
                slot[token as usize] += 1;
                self.cost.work_units += 1;
            }
            self.history.push(token);
            if self.history.len() > self.base.max_order {
                self.history.remove(0);
            }
            self.cost.generated_tokens += 1;
        }

        fn next_distribution(&mut self, out: &mut [f64]) {
            assert_eq!(out.len(), self.base.vocab_size, "distribution buffer size");
            let v = self.base.vocab_size as f64;
            // Order 0 base: unigram with add-one smoothing toward uniform
            // (mirrors `NGramLm::next_distribution` operation for operation).
            let mut p: Vec<f64> = {
                self.cost.work_units += 1;
                match self.counts(0, 0) {
                    Some(c) => {
                        let total: f64 = c.iter().map(|&x| x as f64).sum();
                        c.iter().map(|&x| (x as f64 + 1.0) / (total + v)).collect()
                    }
                    None => vec![1.0 / v; self.base.vocab_size],
                }
            };
            let deepest = self.base.max_order.min(self.history.len());
            for k in 1..=deepest {
                let key = radix_key(&self.history, k, self.base.vocab_size);
                self.cost.work_units += 1;
                if let Some(c) = self.counts(k, key) {
                    let total: f64 = c.iter().map(|&x| x as f64).sum();
                    if total > 0.0 {
                        let distinct = c.iter().filter(|&&x| x > 0).count() as f64;
                        let lambda = total / (total + self.base.gamma * distinct);
                        for (i, slot) in p.iter_mut().enumerate() {
                            *slot = lambda * (c[i] as f64 / total) + (1.0 - lambda) * *slot;
                        }
                    }
                }
            }
            out.copy_from_slice(&p);
        }

        fn cost(&self) -> InferenceCost {
            self.cost
        }
    }

    impl LanguageModel for NGramLm {
        fn vocab_size(&self) -> usize {
            self.vocab_size
        }

        fn reset(&mut self) {
            for m in &mut self.counts {
                m.clear();
            }
            self.history.clear();
            self.cost = InferenceCost::default();
        }

        fn observe(&mut self, token: TokenId, generated: bool) {
            assert!((token as usize) < self.vocab_size, "token {token} out of range");
            // Update every order's counts for the transition (context → token).
            for k in 0..=self.max_order.min(self.history.len()) {
                let key = self.key(k);
                let slot = self.counts[k].entry(key).or_insert_with(|| vec![0u32; self.vocab_size]);
                slot[token as usize] += 1;
                self.cost.work_units += 1;
            }
            self.history.push(token);
            if self.history.len() > self.max_order {
                self.history.remove(0);
            }
            if generated {
                self.cost.generated_tokens += 1;
            } else {
                self.cost.prompt_tokens += 1;
            }
        }

        fn next_distribution(&mut self, out: &mut [f64]) {
            assert_eq!(out.len(), self.vocab_size, "distribution buffer size");
            let v = self.vocab_size as f64;
            // Order 0 base: unigram with add-one smoothing toward uniform.
            let mut p: Vec<f64> = {
                let zero = self.counts[0].get(&0);
                self.cost.work_units += 1;
                match zero {
                    Some(c) => {
                        let total: f64 = c.iter().map(|&x| x as f64).sum();
                        c.iter().map(|&x| (x as f64 + 1.0) / (total + v)).collect()
                    }
                    None => vec![1.0 / v; self.vocab_size],
                }
            };
            // Interpolate higher orders: λ = n / (n + gamma · distinct).
            let deepest = self.max_order.min(self.history.len());
            for k in 1..=deepest {
                let key = self.key(k);
                self.cost.work_units += 1;
                if let Some(c) = self.counts[k].get(&key) {
                    let total: f64 = c.iter().map(|&x| x as f64).sum();
                    if total > 0.0 {
                        let distinct = c.iter().filter(|&&x| x > 0).count() as f64;
                        let lambda = total / (total + self.gamma * distinct);
                        for (i, slot) in p.iter_mut().enumerate() {
                            *slot = lambda * (c[i] as f64 / total) + (1.0 - lambda) * *slot;
                        }
                    }
                }
                // Missing context: keep the lower-order estimate (full back-off).
            }
            out.copy_from_slice(&p);
        }

        fn cost(&self) -> InferenceCost {
            self.cost
        }

        fn name(&self) -> &str {
            &self.name
        }
    }
}

pub(crate) mod ppm {
    use std::collections::HashMap;

    use super::ngram::radix_key;
    use crate::cost::InferenceCost;
    use crate::model::{DecodeSession, FrozenLm, LanguageModel};
    use crate::vocab::TokenId;

    /// PPM-C language model. See the module docs.
    #[derive(Debug, Clone)]
    pub struct PpmLm {
        vocab_size: usize,
        max_order: usize,
        /// `counts[k]` maps a radix-encoded `k`-token context to next-token
        /// count vectors (same layout as `NGramLm`).
        counts: Vec<HashMap<u64, Vec<u32>>>,
        history: Vec<TokenId>,
        cost: InferenceCost,
        name: String,
    }

    impl PpmLm {
        /// Creates a PPM-C model with contexts up to `max_order`.
        ///
        /// # Panics
        /// If `vocab_size == 0` or the radix key would overflow 64 bits.
        pub fn new(vocab_size: usize, max_order: usize, name: impl Into<String>) -> Self {
            assert!(vocab_size > 0, "vocab_size must be positive");
            let bits = (vocab_size as f64).log2().ceil().max(1.0) * max_order as f64;
            assert!(bits <= 63.0, "max_order {max_order} too deep for vocab {vocab_size}");
            Self {
                vocab_size,
                max_order,
                counts: vec![HashMap::new(); max_order + 1],
                history: Vec::with_capacity(max_order),
                cost: InferenceCost::default(),
                name: name.into(),
            }
        }

        fn key(&self, k: usize) -> u64 {
            radix_key(&self.history, k, self.vocab_size)
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
            self.base.vocab_size
        }

        fn prompt_cost(&self) -> InferenceCost {
            self.base.cost
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
                self.base.observe(t, false);
            }
            true
        }
    }

    /// One sample's decode cursor over a frozen [`PpmLm`].
    ///
    /// Copy-on-write: contexts touched by this session's generated tokens get
    /// a private count vector (cloned from the base on first touch); untouched
    /// contexts read the frozen counts directly.
    #[derive(Debug)]
    pub struct PpmSession<'a> {
        base: &'a PpmLm,
        overlay: Vec<HashMap<u64, Vec<u32>>>,
        history: Vec<TokenId>,
        cost: InferenceCost,
    }

    impl<'a> PpmSession<'a> {
        pub(crate) fn new(base: &'a PpmLm) -> Self {
            Self {
                base,
                overlay: vec![HashMap::new(); base.max_order + 1],
                history: base.history.clone(),
                cost: InferenceCost::default(),
            }
        }

        fn counts(&self, k: usize, key: u64) -> Option<&Vec<u32>> {
            self.overlay[k].get(&key).or_else(|| self.base.counts[k].get(&key))
        }
    }

    impl DecodeSession for PpmSession<'_> {
        fn vocab_size(&self) -> usize {
            self.base.vocab_size
        }

        fn observe(&mut self, token: TokenId) {
            assert!((token as usize) < self.base.vocab_size, "token {token} out of range");
            for k in 0..=self.base.max_order.min(self.history.len()) {
                let key = radix_key(&self.history, k, self.base.vocab_size);
                let slot = self.overlay[k].entry(key).or_insert_with(|| {
                    self.base.counts[k]
                        .get(&key)
                        .cloned()
                        .unwrap_or_else(|| vec![0u32; self.base.vocab_size])
                });
                slot[token as usize] += 1;
                self.cost.work_units += 1;
            }
            self.history.push(token);
            if self.history.len() > self.base.max_order {
                self.history.remove(0);
            }
            self.cost.generated_tokens += 1;
        }

        fn next_distribution(&mut self, out: &mut [f64]) {
            assert_eq!(out.len(), self.base.vocab_size, "distribution buffer size");
            out.iter_mut().for_each(|v| *v = 0.0);
            let mut excluded = vec![false; self.base.vocab_size];
            let mut remaining = 1.0f64;
            let deepest = self.base.max_order.min(self.history.len());
            for k in (0..=deepest).rev() {
                let key = radix_key(&self.history, k, self.base.vocab_size);
                self.cost.work_units += 1;
                let Some(c) = self.counts(k, key) else {
                    continue; // unseen context: free escape to the next order
                };
                let mut total = 0u64;
                let mut distinct = 0u64;
                for (i, &cnt) in c.iter().enumerate() {
                    if cnt > 0 && !excluded[i] {
                        total += cnt as u64;
                        distinct += 1;
                    }
                }
                if total == 0 {
                    continue;
                }
                let denom = (total + distinct) as f64;
                for (i, &cnt) in c.iter().enumerate() {
                    if cnt > 0 && !excluded[i] {
                        out[i] += remaining * cnt as f64 / denom;
                        excluded[i] = true;
                    }
                }
                remaining *= distinct as f64 / denom;
                if remaining < 1e-15 {
                    break;
                }
            }
            let free = excluded.iter().filter(|&&e| !e).count();
            if free > 0 {
                let share = remaining / free as f64;
                for (o, &e) in out.iter_mut().zip(&excluded) {
                    if !e {
                        *o += share;
                    }
                }
            } else {
                let total: f64 = out.iter().sum();
                for o in out.iter_mut() {
                    *o /= total;
                }
                return;
            }
            let total: f64 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= total;
            }
        }

        fn cost(&self) -> InferenceCost {
            self.cost
        }
    }

    impl LanguageModel for PpmLm {
        fn vocab_size(&self) -> usize {
            self.vocab_size
        }

        fn reset(&mut self) {
            for m in &mut self.counts {
                m.clear();
            }
            self.history.clear();
            self.cost = InferenceCost::default();
        }

        fn observe(&mut self, token: TokenId, generated: bool) {
            assert!((token as usize) < self.vocab_size, "token {token} out of range");
            for k in 0..=self.max_order.min(self.history.len()) {
                let key = self.key(k);
                let slot = self.counts[k].entry(key).or_insert_with(|| vec![0u32; self.vocab_size]);
                slot[token as usize] += 1;
                self.cost.work_units += 1;
            }
            self.history.push(token);
            if self.history.len() > self.max_order {
                self.history.remove(0);
            }
            if generated {
                self.cost.generated_tokens += 1;
            } else {
                self.cost.prompt_tokens += 1;
            }
        }

        fn next_distribution(&mut self, out: &mut [f64]) {
            assert_eq!(out.len(), self.vocab_size, "distribution buffer size");
            out.iter_mut().for_each(|v| *v = 0.0);
            let mut excluded = vec![false; self.vocab_size];
            // Mass still to distribute (product of escapes so far).
            let mut remaining = 1.0f64;
            let deepest = self.max_order.min(self.history.len());
            for k in (0..=deepest).rev() {
                let key = self.key(k);
                self.cost.work_units += 1;
                let Some(c) = self.counts[k].get(&key) else {
                    continue; // unseen context: free escape to the next order
                };
                // Counts over non-excluded symbols only (PPM exclusion).
                let mut total = 0u64;
                let mut distinct = 0u64;
                for (i, &cnt) in c.iter().enumerate() {
                    if cnt > 0 && !excluded[i] {
                        total += cnt as u64;
                        distinct += 1;
                    }
                }
                if total == 0 {
                    continue;
                }
                // Method C: escape mass = distinct / (total + distinct).
                let denom = (total + distinct) as f64;
                for (i, &cnt) in c.iter().enumerate() {
                    if cnt > 0 && !excluded[i] {
                        out[i] += remaining * cnt as f64 / denom;
                        excluded[i] = true;
                    }
                }
                remaining *= distinct as f64 / denom;
                if remaining < 1e-15 {
                    break;
                }
            }
            // Order -1: uniform over still-excluded-free symbols.
            let free = excluded.iter().filter(|&&e| !e).count();
            if free > 0 {
                let share = remaining / free as f64;
                for (o, &e) in out.iter_mut().zip(&excluded) {
                    if !e {
                        *o += share;
                    }
                }
            } else {
                // All symbols seen: renormalize (remaining mass is tiny).
                let total: f64 = out.iter().sum();
                for o in out.iter_mut() {
                    *o /= total;
                }
                return;
            }
            // Normalize defensively against rounding drift.
            let total: f64 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= total;
            }
        }

        fn cost(&self) -> InferenceCost {
            self.cost
        }

        fn name(&self) -> &str {
            &self.name
        }
    }
}

/// Differential tests: the flat-table backends against this oracle.
mod tests {
    use proptest::prelude::*;

    use crate::model::{DecodeSession, FrozenLm, LanguageModel};
    use crate::sampler::{Sampler, SamplerConfig};
    use crate::vocab::TokenId;

    /// Prompt and session sizes; Miri interprets a few small cases so the
    /// new indexing code is covered within minutes.
    const CASES: u32 = if cfg!(miri) { 3 } else { 128 };
    const MAX_PROMPT: usize = if cfg!(miri) { 24 } else { 300 };
    const MAX_SESSION: usize = if cfg!(miri) { 6 } else { 48 };

    struct Input {
        prompt: Vec<TokenId>,
        split: usize,
        /// Tokens a clone of the half-fitted model observes.
        tail: Vec<TokenId>,
        /// One `(sampler seed, tokens to draw)` per session.
        sessions: Vec<(u64, usize)>,
    }

    fn same_bits(new: &[f64], old: &[f64], what: &str) -> Result<(), TestCaseError> {
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(new), bits(old), "{}: {:?} vs {:?}", what, new, old);
        Ok(())
    }

    /// Feeds `tokens` to both models, comparing the distribution before
    /// each token and after the last, then the cost.
    fn feed(
        new: &mut dyn LanguageModel,
        old: &mut dyn LanguageModel,
        tokens: &[TokenId],
        generated: bool,
    ) -> Result<(), TestCaseError> {
        let (mut pn, mut po) = (vec![0.0; new.vocab_size()], vec![0.0; old.vocab_size()]);
        for i in 0..=tokens.len() {
            new.next_distribution(&mut pn);
            old.next_distribution(&mut po);
            same_bits(&pn, &po, &format!("model step {i}"))?;
            if let Some(&t) = tokens.get(i) {
                new.observe(t, generated);
                old.observe(t, generated);
            }
        }
        prop_assert_eq!(new.cost(), old.cost());
        Ok(())
    }

    /// Decodes interleaved session pairs, one step per live session per
    /// round: same distribution bits, same seeded draw, same cost.
    fn decode(
        new: &dyn FrozenLm,
        old: &dyn FrozenLm,
        sessions: &[(u64, usize)],
    ) -> Result<(), TestCaseError> {
        let vocab = new.vocab_size();
        type Pair<'m> = (Box<dyn DecodeSession + 'm>, Box<dyn DecodeSession + 'm>);
        let mut live: Vec<(Pair, Sampler, Sampler, usize)> = sessions
            .iter()
            .map(|&(seed, len)| {
                let config = SamplerConfig { seed, ..SamplerConfig::default() };
                ((new.fork(), old.fork()), Sampler::new(config), Sampler::new(config), len)
            })
            .collect();
        let (mut pn, mut po) = (vec![0.0; vocab], vec![0.0; vocab]);
        for step in 0..MAX_SESSION {
            for (i, ((sn, so), rn, ro, len)) in live.iter_mut().enumerate() {
                if step >= *len {
                    continue;
                }
                sn.next_distribution(&mut pn);
                so.next_distribution(&mut po);
                same_bits(&pn, &po, &format!("session {i} step {step}"))?;
                let (tn, to) = (rn.sample(&pn, |_| true), ro.sample(&po, |_| true));
                prop_assert_eq!(tn, to, "session {} step {} draw", i, step);
                sn.observe(tn);
                so.observe(to);
            }
        }
        for (i, ((sn, so), ..)) in live.iter().enumerate() {
            prop_assert_eq!(sn.cost(), so.cost(), "session {} cost", i);
        }
        Ok(())
    }

    /// Fits both models on the prompt's prefix, checks that a clone
    /// evolves independently, refits the suffix on the frozen models and
    /// decodes sessions from them.
    fn differential<N, O>(
        mut new: N,
        mut old: O,
        freeze: impl FnOnce(N, O) -> (Box<dyn FrozenLm>, Box<dyn FrozenLm>),
        input: &Input,
    ) -> Result<(), TestCaseError>
    where
        N: LanguageModel + Clone,
        O: LanguageModel + Clone,
    {
        feed(&mut new, &mut old, &input.prompt[..input.split], false)?;
        let (mut new_clone, mut old_clone) = (new.clone(), old.clone());
        feed(&mut new_clone, &mut old_clone, &input.tail, true)?;
        // A clone sharing state with its original would now diverge from
        // the reference original.
        feed(&mut new, &mut old, &[], false)?;
        let (mut new, mut old) = freeze(new, old);
        prop_assert!(new.refit_extend(&input.prompt[input.split..]));
        prop_assert!(old.refit_extend(&input.prompt[input.split..]));
        prop_assert_eq!(new.prompt_cost(), old.prompt_cost());
        decode(new.as_ref(), old.as_ref(), &input.sessions)
    }

    /// Maps raw draws onto the vocabulary. A non-zero `period` repeats the
    /// prompt's first `period` tokens, so deep contexts recur: long exact
    /// matches for the n-gram mix, and PPM commits at its top order and
    /// excludes at the lower ones.
    fn input(
        vocab: usize,
        period: usize,
        raw_prompt: Vec<u32>,
        split: u64,
        raw_tail: Vec<u32>,
        sessions: Vec<(u64, usize)>,
    ) -> Input {
        let tokens = |raw: Vec<u32>| raw.into_iter().map(|t| t % vocab as u32).collect::<Vec<_>>();
        let mut prompt = tokens(raw_prompt);
        if period > 0 {
            for i in period..prompt.len() {
                prompt[i] = prompt[i - period];
            }
        }
        let split = (split % (prompt.len() as u64 + 1)) as usize;
        Input { prompt, split, tail: tokens(raw_tail), sessions }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn ngram_matches_hashmap_reference(
            vocab in 1usize..17,
            order in 0usize..11,
            gamma in 0.05f64..4.0,
            period in 0usize..9,
            raw_prompt in prop::collection::vec(any::<u32>(), 0..MAX_PROMPT + 1),
            split in any::<u64>(),
            raw_tail in prop::collection::vec(any::<u32>(), 0..MAX_SESSION + 1),
            sessions in prop::collection::vec((any::<u64>(), 0..MAX_SESSION + 1), 1..4),
        ) {
            let input = input(vocab, period, raw_prompt, split, raw_tail, sessions);
            let new = crate::ngram::NGramLm::new(vocab, order, gamma, "ngram");
            let old = super::ngram::NGramLm::new(vocab, order, gamma, "ngram");
            prop_assert_eq!(new.max_order(), old.max_order());
            differential(
                new,
                old,
                |n, o| (Box::new(n.into_frozen()), Box::new(o.into_frozen())),
                &input,
            )?;
        }

        #[test]
        fn ppm_matches_hashmap_reference(
            vocab in 1usize..17,
            order in 0usize..11,
            period in 0usize..9,
            raw_prompt in prop::collection::vec(any::<u32>(), 0..MAX_PROMPT + 1),
            split in any::<u64>(),
            raw_tail in prop::collection::vec(any::<u32>(), 0..MAX_SESSION + 1),
            sessions in prop::collection::vec((any::<u64>(), 0..MAX_SESSION + 1), 1..4),
        ) {
            let input = input(vocab, period, raw_prompt, split, raw_tail, sessions);
            let new = crate::ppm::PpmLm::new(vocab, order, "ppm");
            let old = super::ppm::PpmLm::new(vocab, order, "ppm");
            differential(
                new,
                old,
                |n, o| (Box::new(n.into_frozen()), Box::new(o.into_frozen())),
                &input,
            )?;
        }
    }
}
