//! Property-based tests (proptest) for the invariants the pipeline's
//! correctness rests on. Each property is documented with the failure it
//! guards against.

use proptest::prelude::*;

use multicast_suite::core::scaling::FixedDigitScaler;
use multicast_suite::core::{MultiCastForecaster, MuxMethod};
use multicast_suite::lm::sampler::{Sampler, SamplerConfig};
use multicast_suite::prelude::*;
use multicast_suite::sax::alphabet::{SaxAlphabet, SaxAlphabetKind};
use multicast_suite::sax::encoder::{SaxConfig, SaxEncoder};
use multicast_suite::sax::gaussian::{breakpoints, cell_of};
use multicast_suite::tslib::transform;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mux → demux is the identity on well-formed streams for every
    /// scheme, dimension count and digit budget. A violation silently
    /// corrupts every forecast.
    #[test]
    fn mux_demux_identity(
        dims in 1usize..5,
        digits in 1u32..5,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let max = 10u64.pow(digits) - 1;
        let mut state = seed;
        let codes: Vec<Vec<u64>> = (0..dims)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (state >> 33) % (max + 1)
                    })
                    .collect()
            })
            .collect();
        for method in MuxMethod::ALL {
            let m = method.build();
            let text = m.mux(&codes, digits);
            let back = m.demux(&text, dims, digits, n);
            prop_assert_eq!(&back, &codes, "{:?}", method);
        }
    }

    /// Lenient demux never panics and always returns the requested shape,
    /// whatever garbage the LLM emits within its constrained alphabet.
    #[test]
    fn demux_total_on_arbitrary_constrained_text(
        text in "[0-9,]{0,120}",
        dims in 1usize..4,
        digits in 1u32..4,
        horizon in 1usize..20,
    ) {
        for method in MuxMethod::ALL {
            let m = method.build();
            let back = m.demux(&text, dims, digits, horizon);
            prop_assert_eq!(back.len(), dims);
            let max = 10u64.pow(digits) - 1;
            for col in &back {
                prop_assert_eq!(col.len(), horizon);
                prop_assert!(col.iter().all(|&c| c <= max));
            }
        }
    }

    /// Demux is total on *completely arbitrary* text — not just the
    /// constrained `[0-9,]` alphabet. Even under backend bugs or injected
    /// corruption, demux must never panic and must yield exactly
    /// `dims x horizon` in-range codes for every scheme.
    #[test]
    fn demux_total_on_fully_arbitrary_text(
        text in any::<String>(),
        dims in 1usize..4,
        digits in 1u32..4,
        horizon in 1usize..16,
    ) {
        for method in MuxMethod::ALL {
            let m = method.build();
            let back = m.demux(&text, dims, digits, horizon);
            prop_assert_eq!(back.len(), dims, "{:?}", method);
            let max = 10u64.pow(digits) - 1;
            for col in &back {
                prop_assert_eq!(col.len(), horizon, "{:?}", method);
                prop_assert!(col.iter().all(|&c| c <= max), "{:?}", method);
            }
        }
    }

    /// Scale → descale round-trips within half a quantization step.
    #[test]
    fn scaler_round_trip_error_bounded(
        values in prop::collection::vec(-1e4f64..1e4, 2..60),
        digits in 2u32..5,
    ) {
        let scaler = FixedDigitScaler::fit(std::slice::from_ref(&values), digits, 0.1).unwrap();
        let step = scaler.step(0).unwrap();
        for &v in &values {
            let code = scaler.scale_value(0, v).unwrap();
            let back = scaler.descale_value(0, code).unwrap();
            prop_assert!((back - v).abs() <= step / 2.0 + 1e-9);
        }
    }

    /// A SAX cell representative always decodes back into its own cell,
    /// for every alphabet size — otherwise symbol-space forecasts drift.
    #[test]
    fn sax_representative_stays_in_cell(a in 2usize..21) {
        let breaks = breakpoints(a);
        for i in 0..a {
            let r = multicast_suite::sax::gaussian::cell_representative(i, a);
            prop_assert_eq!(cell_of(r, &breaks), i);
        }
    }

    /// SAX encode → decode stays within the (normalized) band implied by
    /// the outermost breakpoints, scaled back to data units.
    #[test]
    fn sax_decode_is_bounded(
        values in prop::collection::vec(-100f64..100.0, 8..80),
        segment in 1usize..8,
        a in 3usize..11,
    ) {
        let enc = SaxEncoder::new(SaxConfig {
            segment_len: segment,
            alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, a).unwrap(),
        });
        let e = enc.encode(&values);
        let dec = enc.decode_expanded(&e.symbols, e.znorm, values.len());
        prop_assert_eq!(dec.len(), values.len());
        // All decoded values lie within the most extreme representatives.
        let lo = multicast_suite::sax::gaussian::cell_representative(0, a);
        let hi = multicast_suite::sax::gaussian::cell_representative(a - 1, a);
        for &v in &dec {
            let z = (v - e.znorm.mean) / e.znorm.std;
            prop_assert!(z >= lo - 1e-9 && z <= hi + 1e-9, "z = {}", z);
        }
    }

    /// The constrained sampler can only emit allowed tokens, whatever the
    /// distribution looks like.
    #[test]
    fn sampler_respects_any_mask(
        probs in prop::collection::vec(0f64..1.0, 4..12),
        mask_bits in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let n = probs.len();
        // Ensure at least one allowed token.
        let allowed: Vec<bool> =
            (0..n).map(|i| mask_bits & (1 << (i % 16)) != 0 || i == (mask_bits as usize % n)).collect();
        let mut sampler = Sampler::new(SamplerConfig { seed, ..SamplerConfig::default() });
        for _ in 0..16 {
            let t = sampler.sample(&probs, |id| allowed[id as usize]);
            prop_assert!(allowed[t as usize]);
        }
    }

    /// Differencing round-trips exactly through integration.
    #[test]
    fn difference_integrate_identity(
        values in prop::collection::vec(-1e3f64..1e3, 4..50),
        d in 1usize..3,
    ) {
        prop_assume!(values.len() > d + 1);
        let (w, heads) = transform::difference(&values, d).unwrap();
        let back = transform::undifference(&w, &heads);
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// The pointwise median of forecasts lies within the per-point min/max
    /// envelope of the samples (aggregation can't extrapolate).
    #[test]
    fn median_within_sample_envelope(
        base in prop::collection::vec(-50f64..50.0, 3..20),
        jitters in prop::collection::vec(-5f64..5.0, 3..8),
    ) {
        let samples: Vec<Vec<Vec<f64>>> = jitters
            .iter()
            .map(|j| vec![base.iter().map(|v| v + j).collect::<Vec<f64>>()])
            .collect();
        let med = multicast_suite::core::pipeline::median_aggregate(&samples).unwrap();
        for (t, m) in med[0].iter().enumerate() {
            let lo = samples.iter().map(|s| s[0][t]).fold(f64::MAX, f64::min);
            let hi = samples.iter().map(|s| s[0][t]).fold(f64::MIN, f64::max);
            prop_assert!(*m >= lo - 1e-12 && *m <= hi + 1e-12);
        }
    }
}

proptest! {
    // Forecast-level properties are more expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: a MultiCast forecast never leaves the scaler's
    /// headroom-extended band, on arbitrary bounded inputs.
    #[test]
    fn forecast_respects_value_band(
        raw in prop::collection::vec(-100f64..100.0, 30..60),
        seed in 0u64..1000,
    ) {
        let shifted: Vec<f64> = raw.iter().map(|v| v + 200.0).collect();
        let series = MultivariateSeries::from_columns(
            vec!["a".into(), "b".into()],
            vec![raw.clone(), shifted],
        )
        .unwrap();
        let cfg = ForecastConfig { samples: 1, seed, ..ForecastConfig::default() };
        let mut f = MultiCastForecaster::new(MuxMethod::ValueInterleave, cfg);
        let fc = f.forecast(&series, 5).unwrap();
        for d in 0..2 {
            let col = series.column(d).unwrap();
            let (mn, mx) = col.iter().fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
            let range = (mx - mn).max(1e-9);
            for &v in fc.column(d).unwrap() {
                prop_assert!(v >= mn - 0.151 * range && v <= mx + 0.151 * range);
            }
        }
    }

    /// Serving an arbitrary batch over shared frozen contexts conserves
    /// cost: the sum of per-request attributed costs equals the metered
    /// ground truth recorded inside the model boundary, each context's
    /// prompt pass is charged to exactly one request, and outcomes come
    /// back in submission order with matching ids.
    #[test]
    fn serve_attribution_is_conserved_and_ordered(
        specs in prop::collection::vec((0usize..3, 2usize..6, 1usize..4, 0u64..1000), 1..6),
        workers in 1usize..5,
    ) {
        use multicast_suite::core::serve::{serve_all, ForecastRequest, RequestId, ServeConfig};

        // Two fixed histories so some requests share a frozen context
        // while others do not — both attribution paths get exercised.
        let trains: Vec<MultivariateSeries> = (0..2usize)
            .map(|t| {
                let a: Vec<f64> =
                    (0..40).map(|i| ((i + 7 * t) as f64 * 0.31).sin() * 10.0 + 30.0).collect();
                let b: Vec<f64> = a.iter().map(|v| 100.0 - v).collect();
                MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
            })
            .collect();
        let requests: Vec<ForecastRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, horizon, samples, seed))| {
                let method = MuxMethod::ALL[m % MuxMethod::ALL.len()];
                let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
                ForecastRequest::digit(trains[i % trains.len()].clone(), horizon, method, config)
            })
            .collect();

        let run = serve_all(&requests, &ServeConfig::with_workers(workers));

        // Ordering: one outcome per request, ids equal to submission indices.
        prop_assert_eq!(run.outcomes.len(), requests.len());
        for (i, outcome) in run.outcomes.iter().enumerate() {
            prop_assert_eq!(outcome.id, RequestId(i));
            prop_assert!(outcome.forecast.is_ok());
            prop_assert_eq!(outcome.forecast.as_ref().unwrap().len(), requests[i].horizon);
        }

        // Conservation: attribution matches the in-boundary meter exactly
        // — no double-charging, no lost tokens.
        let attributed = run.attributed_cost();
        let metered = run.metered_cost();
        prop_assert_eq!(attributed.prompt_tokens, metered.prompt_tokens);
        prop_assert_eq!(attributed.generated_tokens, metered.generated_tokens);
        prop_assert_eq!(attributed.work_units, metered.work_units);

        // Each context's prompt pass is paid by exactly one member request,
        // and the context's membership count matches the outcomes.
        for (c, stats) in run.contexts.iter().enumerate() {
            let members: Vec<_> =
                run.outcomes.iter().filter(|o| o.context == Some(c)).collect();
            prop_assert_eq!(members.len(), stats.requests);
            prop_assert!(stats.prompt_cost.prompt_tokens > 0);
            let payers = members.iter().filter(|o| o.cost.prompt_tokens > 0).count();
            prop_assert_eq!(payers, 1, "context {} has {} prompt payers", c, payers);
        }
    }

    /// Worker-pool width is invisible: the same batch served
    /// single-threaded and over several workers yields bit-identical
    /// forecasts and identical per-request attributed costs.
    #[test]
    fn serve_is_invariant_to_worker_count(
        specs in prop::collection::vec((0usize..3, 2usize..5, 1usize..3, 0u64..1000), 1..4),
        workers in 2usize..6,
    ) {
        use multicast_suite::core::serve::{serve_all, ForecastRequest, ServeConfig};

        let a: Vec<f64> = (0..36).map(|i| (i as f64 * 0.4).cos() * 8.0 + 20.0).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 2.0 + 5.0).collect();
        let train =
            MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap();
        let requests: Vec<ForecastRequest> = specs
            .iter()
            .map(|&(m, horizon, samples, seed)| {
                let method = MuxMethod::ALL[m % MuxMethod::ALL.len()];
                let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
                ForecastRequest::digit(train.clone(), horizon, method, config)
            })
            .collect();

        let solo = serve_all(&requests, &ServeConfig::with_workers(1));
        let pool = serve_all(&requests, &ServeConfig::with_workers(workers));

        prop_assert_eq!(solo.outcomes.len(), pool.outcomes.len());
        for (s, p) in solo.outcomes.iter().zip(&pool.outcomes) {
            prop_assert_eq!(s.cost, p.cost);
            let (sf, pf) = (s.forecast.as_ref().unwrap(), p.forecast.as_ref().unwrap());
            prop_assert_eq!(sf.dims(), pf.dims());
            for d in 0..sf.dims() {
                let (sc, pc) = (sf.column(d).unwrap(), pf.column(d).unwrap());
                for (x, y) in sc.iter().zip(pc) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// Observability is exact accounting, not sampling: for an arbitrary
    /// served batch, per-request costs reconstructed purely from trace
    /// events (attempts keyed by request fingerprint, the context-fit
    /// prompt pass for the owner) equal the scheduler's attributed costs,
    /// and per-context session events reproduce the metered `CostLedger`
    /// snapshot exactly.
    #[test]
    fn trace_events_reconstruct_costs_exactly(
        specs in prop::collection::vec((0usize..3, 2usize..5, 1usize..4, 0u64..1000), 1..5),
        workers in 1usize..5,
    ) {
        use std::sync::Arc;
        use multicast_suite::core::serve::{
            request_fingerprints, serve_all_observed, ForecastRequest, ServeConfig,
        };
        use multicast_suite::obs::{EventKind, Observer};

        let trains: Vec<MultivariateSeries> = (0..2usize)
            .map(|t| {
                let a: Vec<f64> =
                    (0..40).map(|i| ((i + 5 * t) as f64 * 0.27).sin() * 12.0 + 25.0).collect();
                let b: Vec<f64> = a.iter().map(|v| 90.0 - v).collect();
                MultivariateSeries::from_columns(vec!["a".into(), "b".into()], vec![a, b]).unwrap()
            })
            .collect();
        let requests: Vec<ForecastRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(m, horizon, samples, seed))| {
                let method = MuxMethod::ALL[m % MuxMethod::ALL.len()];
                let config = ForecastConfig { samples, seed, ..ForecastConfig::default() };
                ForecastRequest::digit(trains[i % trains.len()].clone(), horizon, method, config)
            })
            .collect();

        let fps = request_fingerprints(&requests);
        let obs = Arc::new(Observer::logical());
        let run = serve_all_observed(&requests, &ServeConfig::with_workers(workers), obs.clone());
        let events = obs.events();

        // One context_fit per context, agreeing with the backend's prompt
        // cost; session_cost events reproduce the metered ledger.
        for stats in &run.contexts {
            let fits: Vec<_> = events
                .iter()
                .filter_map(|s| match s.event.kind {
                    EventKind::ContextFit { prompt_tokens, work_units }
                        if s.event.ctx == stats.fingerprint =>
                    {
                        Some((prompt_tokens, work_units))
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(fits.len(), 1, "one fit per context");
            prop_assert_eq!(fits[0].0, stats.prompt_cost.prompt_tokens);
            prop_assert_eq!(fits[0].1, stats.prompt_cost.work_units);
            let (mut sessions, mut gen, mut work) = (0u64, 0u64, 0u64);
            for s in &events {
                if let EventKind::SessionCost { generated_tokens, work_units } = s.event.kind {
                    if s.event.ctx == stats.fingerprint {
                        sessions += 1;
                        gen += generated_tokens;
                        work += work_units;
                    }
                }
            }
            prop_assert_eq!(sessions, stats.sessions, "session count from events");
            prop_assert_eq!(gen, stats.metered.generated_tokens, "ledger generated tokens");
            prop_assert_eq!(
                work + stats.prompt_cost.work_units,
                stats.metered.work_units,
                "ledger work = prompt pass + sessions"
            );
        }

        // Per-request: summing attempt events keyed by the request's trace
        // fingerprint reconstructs its attributed cost exactly; the
        // context owner additionally carries the one-time prompt pass.
        for (i, outcome) in run.outcomes.iter().enumerate() {
            let (mut gen, mut work) = (0u64, 0u64);
            for s in &events {
                if s.event.req == fps[i] {
                    if let EventKind::Attempt { generated_tokens, work_units, .. } = s.event.kind {
                        gen += generated_tokens;
                        work += work_units;
                    }
                }
            }
            prop_assert_eq!(outcome.cost.generated_tokens, gen, "request {} generated", i);
            let context = &run.contexts[outcome.context.unwrap()];
            let prompt = if outcome.cost.prompt_tokens > 0 { context.prompt_cost } else { Default::default() };
            prop_assert_eq!(outcome.cost.prompt_tokens, prompt.prompt_tokens, "request {} prompt", i);
            prop_assert_eq!(outcome.cost.work_units, work + prompt.work_units, "request {} work", i);
        }
    }

    /// Charset defects are impossible by construction: the constrained
    /// sampler masks every token outside `[0-9,]`, so an uncorrupted
    /// continuation can never contain a non-numeric group or out-of-band
    /// symbol — only truncation/width defects. Validation must agree.
    #[test]
    fn sampler_constraint_makes_charset_defects_impossible(
        seed in any::<u64>(),
        temperature in 0.1f64..2.0,
        separators in 1usize..6,
    ) {
        use multicast_suite::core::pipeline::{run_continuation, ContinuationSpec};
        use multicast_suite::core::robust::{validate_text, DefectClass, SampleExpectations};
        use multicast_suite::lm::presets::ModelPreset;
        use multicast_suite::lm::vocab::Vocab;

        let spec = ContinuationSpec {
            prompt: "017,023,042,017,023,042,017,023,042,017,023,042,".into(),
            vocab: Vocab::numeric(),
            allowed_chars: "0123456789,".into(),
            preset: ModelPreset::Large,
            separators,
            max_tokens: 120,
            refit_epoch: 0,
        };
        let cfg = SamplerConfig { seed, temperature, ..SamplerConfig::default() };
        let (text, _) = run_continuation(&spec, cfg).unwrap();
        prop_assert!(text.chars().all(|c| c.is_ascii_digit() || c == ','), "{}", text);
        let expect = SampleExpectations {
            separators,
            group_width: 3,
            alphabet: "0123456789".into(),
            numeric: true,
            dims: 1,
            horizon: separators,
        };
        for defect in validate_text(&text, &expect) {
            let class = defect.class();
            prop_assert!(
                class != DefectClass::NonNumericGroup && class != DefectClass::OutOfBandCode,
                "constrained sampling emitted a charset defect: {:?} in {:?}", defect, text
            );
        }
    }

    /// The cache's incremental-refit path is differentially equivalent
    /// to a from-scratch fit: inserting a prefix-fitted context and then
    /// acquiring with a grown prompt must resolve as a refit whose
    /// forked sessions emit bit-identical distributions — and draw
    /// identical seeded tokens — to a model fitted on the full prompt
    /// in one pass.
    #[test]
    fn cache_refit_is_bit_identical_to_full_fit(
        preset_idx in 0usize..multicast_suite::lm::ModelPreset::ALL.len(),
        vocab in 2usize..10,
        raw in prop::collection::vec(0u32..64, 2..60),
        split_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use multicast_suite::lm::cache::{CacheConfig, Found, LmCache};
        use multicast_suite::lm::{fit_model, ModelPreset, TokenId};

        let preset = ModelPreset::ALL[preset_idx];
        let tokens: Vec<TokenId> = raw.iter().map(|&t| t as TokenId % vocab as TokenId).collect();
        let split = 1 + ((tokens.len() - 2) as f64 * split_frac) as usize;
        let (family, fp_prefix, fp_full) = (42u64, 7u64, 8u64);

        let cache = LmCache::new(CacheConfig::default());
        let resident: std::sync::Arc<dyn multicast_suite::lm::FrozenLm> =
            std::sync::Arc::from(fit_model(preset, vocab, &tokens[..split]));
        cache.insert(family, fp_prefix, &tokens[..split], resident);
        cache.release(family, fp_prefix);

        let (frozen, epoch, appended) = match cache.acquire(family, fp_full, &tokens) {
            Found::Refit { frozen, epoch, appended } => (frozen, epoch, appended),
            Found::Hit { .. } => return Err(TestCaseError::Fail("exact hit, expected refit".into())),
            Found::Miss => return Err(TestCaseError::Fail("miss, expected refit".into())),
        };
        prop_assert_eq!(epoch, 1);
        prop_assert_eq!(appended, tokens.len() - split);

        let full = fit_model(preset, vocab, &tokens);
        prop_assert_eq!(frozen.prompt_cost(), full.prompt_cost());
        let cfg = SamplerConfig { seed, ..SamplerConfig::default() };
        let (mut draw_a, mut draw_b) = (Sampler::new(cfg), Sampler::new(cfg));
        let (mut a, mut b) = (full.fork(), frozen.fork());
        let (mut pa, mut pb) = (vec![0.0; vocab], vec![0.0; vocab]);
        for _ in 0..16 {
            a.next_distribution(&mut pa);
            b.next_distribution(&mut pb);
            prop_assert!(
                pa.iter().zip(&pb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "cache refit distribution diverged from a full fit"
            );
            let (ta, tb) = (draw_a.sample(&pa, |_| true), draw_b.sample(&pb, |_| true));
            prop_assert_eq!(ta, tb);
            a.observe(ta);
            b.observe(tb);
        }
        drop((a, b));
        cache.release(family, fp_full);
        prop_assert_eq!(cache.stats().refits, 1);
    }
}

/// One step of a 64-bit LCG, returning its high bits.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// `width` random symbols of `alphabet`.
fn sax_group(state: &mut u64, alphabet: SaxAlphabet, width: usize) -> String {
    (0..width).map(|_| alphabet.symbol(lcg(state) as usize % alphabet.size())).collect()
}

/// LM-like SAX continuation text. Mode 0 is well-formed: `separators`
/// groups of `dims` symbols, each closed by a comma. The other modes corrupt
/// it the way a sampled continuation can go wrong.
fn lm_like_sax_text(
    state: &mut u64,
    alphabet: SaxAlphabet,
    dims: usize,
    separators: usize,
    mode: usize,
    junk: &str,
) -> String {
    let well_formed: String =
        (0..separators).map(|_| sax_group(state, alphabet, dims) + ",").collect();
    match mode {
        0 => well_formed,
        // Empty.
        1 => String::new(),
        // Truncated at any character.
        2 => well_formed.chars().take(lcg(state) as usize % (well_formed.len() + 1)).collect(),
        // Overlong: extra groups past the stop rule.
        3 => {
            let extra = 1 + lcg(state) % 6;
            well_formed
                + &(0..extra).map(|_| sax_group(state, alphabet, dims) + ",").collect::<String>()
        }
        // A separator storm around one odd-width group.
        4 => {
            let (storm, width) = (1 + lcg(state) as usize % 12, 1 + lcg(state) as usize % 4);
            ",".repeat(storm) + " , ,," + &sax_group(state, alphabet, width)
        }
        // Symbols swapped for characters outside (most) alphabets.
        5 => {
            let bad = ['z', '9', 'A', '~', '-', '.', '{', '/'];
            well_formed
                .chars()
                .map(|c| {
                    if c != ',' && lcg(state).is_multiple_of(3) {
                        bad[lcg(state) as usize % bad.len()]
                    } else {
                        c
                    }
                })
                .collect()
        }
        // Half a continuation, then arbitrary and non-ASCII text.
        _ => well_formed.chars().take(well_formed.len() / 2).collect::<String>() + junk + "é,ß,💥",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SAX decode boundary is total on LM-like text: for alphabetic
    /// and digital codecs fitted on generated histories, decoding any
    /// continuation (empty, truncated, overlong, separator storms,
    /// out-of-alphabet or non-ASCII symbols) yields `dims x horizon`
    /// finite values, and the validators report only typed text defects
    /// (none for a well-formed continuation). The calls are direct, so a
    /// panic fails the test instead of being caught by attempt isolation.
    #[test]
    fn sax_decode_boundary_is_total(
        digital in any::<bool>(),
        raw_size in 0usize..25,
        dims in 1usize..4,
        segment in 1usize..7,
        len in 12usize..60,
        horizon in 1usize..30,
        mode in 0usize..7,
        seed in any::<u64>(),
        junk in any::<String>(),
    ) {
        use multicast_suite::core::codec::{Codec, SaxCodec};
        use multicast_suite::core::robust::{validate_decoded, validate_text, SampleDefect};

        let kind = if digital { SaxAlphabetKind::Digital } else { SaxAlphabetKind::Alphabetic };
        let alphabet = SaxAlphabet::new(kind, 2 + raw_size % (kind.max_size() - 1)).unwrap();
        let mut state = seed;
        let columns: Vec<Vec<f64>> = (0..dims)
            .map(|d| {
                let wave = |t: usize| (t as f64 / (3.0 + d as f64)).sin() * 10.0;
                (0..len).map(|t| wave(t) + (lcg(&mut state) % 100) as f64 / 25.0).collect()
            })
            .collect();
        let names = (0..dims).map(|d| format!("c{d}")).collect();
        let series = MultivariateSeries::from_columns(names, columns).unwrap();
        let sax = SaxConfig { segment_len: segment, alphabet };
        let codec = SaxCodec { sax }.fit(&series).unwrap();
        let expect = codec.expectations(horizon);
        let text = lm_like_sax_text(&mut state, alphabet, dims, expect.separators, mode, &junk);

        let values = codec.decode(&text, horizon).unwrap();
        prop_assert_eq!(values.len(), dims);
        for col in &values {
            prop_assert!(col.len() == horizon && col.iter().all(|v| v.is_finite()));
        }
        prop_assert_eq!(validate_decoded(&values, &expect), vec![]);
        let shape = validate_decoded(&values[..dims - 1], &expect);
        prop_assert!(matches!(shape[..], [SampleDefect::ShapeMismatch { .. }]), "{:?}", shape);

        let groups = text.split(',').map(str::trim).filter(|g| !g.is_empty()).count();
        let defects = validate_text(&text, &expect);
        for defect in &defects {
            let typed = match *defect {
                SampleDefect::Truncated { expected, got } => {
                    got < expected && expected == expect.separators
                }
                SampleDefect::WrongGroupWidth { group, expected, got } => {
                    group < groups && expected == dims && got != dims
                }
                SampleDefect::OutOfBandCode { group, symbol } => {
                    group < groups && alphabet.index(symbol).is_none()
                }
                _ => false,
            };
            prop_assert!(typed, "mode {}: {:?} for {:?}", mode, defect, text);
        }
        if mode == 0 {
            prop_assert_eq!(defects, vec![], "well-formed text {:?}", text);
        }
    }
}
