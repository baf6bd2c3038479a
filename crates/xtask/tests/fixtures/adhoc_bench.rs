// Known-bad fixture for the no-adhoc-bench rule: a bench bin driving
// the engine and serve seams by hand instead of lowering a ScenarioSpec
// through the mc-spec runner. Linted under a crates/bench path by
// tests/analyze.rs; never compiled.

fn main() {
    let engine = ForecastEngine::new(config);
    let _spec = engine.continuation_spec();
    let handle: ServeHandle = spawn_serve(&cfg);
    let _ = serve_all(&batch, &serve_config);
    let _ = serve_all_observed(&batch, &serve_config, &recorder);
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_harnesses_in_tests_are_fine() {
        let _ = serve_all(&[], &Default::default());
    }
}
