//! Order statistics for reports and comparisons.

use std::fmt;

/// Samples that must lie strictly above a reported percentile: a tail
/// value resting on fewer is noise, so the percentile is refused.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile that the sample could not support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    /// The percentile asked for.
    pub pct: usize,
    /// Samples available.
    pub have: usize,
    /// Samples needed for `TAIL_SAMPLES` to lie beyond it.
    pub need: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{} needs {} samples, have {}", self.pct, self.need, self.have)
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// The nearest-rank `pct`-th percentile (`1..=99`) of `samples`, refused
/// unless at least [`TAIL_SAMPLES`] samples lie above it.
pub fn percentile(samples: &[f64], pct: usize) -> Result<f64, Refused> {
    assert!((1..100).contains(&pct), "percentile {pct} outside 1..=99");
    let n = samples.len();
    if n - rank(pct, n).min(n) < TAIL_SAMPLES {
        let need = (1..).find(|&m| m - rank(pct, m) >= TAIL_SAMPLES).expect("some size suffices");
        return Err(Refused { pct, have: n, need });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(pct, n) - 1])
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(samples, n=4)` (the default
/// "exclusive" method), so spreads match the ones a Python script
/// computes from the same values. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}
