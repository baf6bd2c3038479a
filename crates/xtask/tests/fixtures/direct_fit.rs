// Known-bad fixture for the no-direct-fit rule: serve-land code fitting
// contexts through the raw PreparedBackend entry points instead of the
// one sanctioned fit_context seam (which consults the cross-batch cache
// and meters costs uniformly). Linted under the crates/core/src/serve.rs
// path by tests/analyze.rs; never compiled.

fn sidestep(spec: &ContinuationSpec, ledger: Arc<CostLedger>) -> Result<PreparedBackend> {
    let cold = PreparedBackend::fit(spec)?;
    let fresh = PreparedBackend::fit(spec)?.meter(ledger, obs, 7);
    let warm = PreparedBackend::from_frozen(frozen, spec)?.meter(ledger, obs, 7);
    let _raw = fit_model(spec.preset, spec.vocab.len(), &tokens);
    let _codec_fit_is_fine = codec.fit(&train);
    Ok(cold.or(fresh).or(warm))
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_fits_in_tests_are_fine() {
        let _ = PreparedBackend::fit(&spec);
        let _ = fit_model(preset, vocab, &tokens);
    }
}
