//! MINDIST: the lower-bounding distance between SAX words
//! (Lin et al.; carried into iSAX, the paper's ref \[29\]).
//!
//! `MINDIST(Q̂, Ĉ) = sqrt(n/w) * sqrt(Σ dist(q̂_i, ĉ_i)²)` where the
//! per-symbol distance is 0 for adjacent-or-equal cells and otherwise the
//! gap between the nearer breakpoints. It lower-bounds the Euclidean
//! distance of the original series — the property that makes SAX usable
//! for indexing, verified by a property test in this module.

use crate::gaussian::breakpoints;

/// Per-symbol distance table for alphabet size `a`:
/// `table[r][c] = 0` if `|r - c| <= 1`, else `beta_{max(r,c)-1} - beta_{min(r,c)}`.
pub fn dist_table(a: usize) -> Vec<Vec<f64>> {
    let b = breakpoints(a);
    let mut table = vec![vec![0.0; a]; a];
    for (r, row) in table.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            if r.abs_diff(c) > 1 {
                let (lo, hi) = (r.min(c), r.max(c));
                *cell = b[hi - 1] - b[lo];
            }
        }
    }
    table
}

/// MINDIST between two equal-length SAX words over the same alphabet,
/// for original series of length `n`.
///
/// # Panics
/// If the words differ in length, are empty, or contain symbols ≥ `a`.
pub fn mindist(word_a: &[usize], word_b: &[usize], a: usize, n: usize) -> f64 {
    assert_eq!(word_a.len(), word_b.len(), "words must have equal length");
    assert!(!word_a.is_empty(), "words must be non-empty");
    let table = dist_table(a);
    let sum: f64 = word_a
        .iter()
        .zip(word_b)
        .map(|(&r, &c)| {
            let d = table[r][c];
            d * d
        })
        .sum();
    ((n as f64 / word_a.len() as f64) * sum).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{SaxAlphabet, SaxAlphabetKind};
    use crate::encoder::{SaxConfig, SaxEncoder};

    #[test]
    fn adjacent_cells_have_zero_distance() {
        let t = dist_table(5);
        for (r, row) in t.iter().enumerate() {
            assert_eq!(row[r], 0.0);
            if r + 1 < 5 {
                assert_eq!(row[r + 1], 0.0);
                assert_eq!(t[r + 1][r], 0.0);
            }
        }
    }

    #[test]
    fn table_is_symmetric_and_monotone() {
        let t = dist_table(8);
        for (r, row) in t.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(v, t[c][r]);
            }
        }
        // Distance grows as cells separate.
        assert!(t[0][3] > t[0][2]);
        assert!(t[0][7] > t[0][4]);
    }

    #[test]
    fn identical_words_have_zero_mindist() {
        assert_eq!(mindist(&[0, 1, 2], &[0, 1, 2], 5, 30), 0.0);
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        // The defining SAX property: MINDIST(Â, B̂) <= ||A - B||₂ for
        // z-normalized series. Checked over a grid of synthetic pairs.
        let enc = SaxEncoder::new(SaxConfig {
            segment_len: 4,
            alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 6).unwrap(),
        });
        let n = 64;
        for seed in 0..8u64 {
            // Deterministic pseudo-random pair of z-normalized-ish series.
            let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut gen = || {
                let xs: Vec<f64> = (0..n)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                    })
                    .collect();
                // z-normalize so SAX's Gaussian assumption applies.
                let m = xs.iter().sum::<f64>() / n as f64;
                let sd = (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64).sqrt();
                xs.iter().map(|x| (x - m) / sd).collect::<Vec<f64>>()
            };
            let a = gen();
            let b = gen();
            let wa = enc.encode(&a).symbols;
            let wb = enc.encode(&b).symbols;
            let md = mindist(&wa, &wb, 6, n);
            let euclid: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
            assert!(
                md <= euclid + 1e-9,
                "MINDIST {md} must lower-bound Euclidean {euclid} (seed {seed})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_words_rejected() {
        mindist(&[0, 1], &[0], 5, 10);
    }
}
