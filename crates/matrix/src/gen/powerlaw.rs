//! Power-law (scale-free) sparsity patterns: a few very long rows and many
//! short ones.  These populate the *irregular* end of the corpus (row-length
//! variance far above the paper's threshold of 100) and model the web/graph
//! matrices (Webbase, FullChip, …) the paper's irregularity discussion cites.

use super::rng::{distinct_sorted, SplitMix64};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Generates a matrix whose row lengths follow a truncated power law
/// `P(len = k) ∝ k^(-alpha)` for `k in [1, cols]`, rescaled so the average
/// row length is approximately `avg_row_len`.
///
/// Smaller `alpha` means a heavier tail (more irregular).  The paper's
/// irregular matrices correspond to `alpha` around 1.8–2.5.
pub fn powerlaw(rows: usize, cols: usize, avg_row_len: usize, alpha: f64, seed: u64) -> CsrMatrix {
    assert!(alpha > 1.0, "power-law exponent must exceed 1");
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0003);
    let max_len = cols.max(1);

    // Draw raw power-law lengths via inverse transform sampling, then rescale
    // to hit the requested average.
    let mut raw: Vec<f64> = (0..rows)
        .map(|_| {
            let u = rng.next_f64().max(1e-12);
            // Pareto-like: len = (1 - u)^(-1 / (alpha - 1))
            (1.0 - u).powf(-1.0 / (alpha - 1.0))
        })
        .collect();
    let mean_raw = raw.iter().sum::<f64>() / rows.max(1) as f64;
    let scale = if mean_raw > 0.0 {
        avg_row_len as f64 / mean_raw
    } else {
        1.0
    };
    for len in &mut raw {
        *len = (*len * scale).clamp(1.0, max_len as f64);
    }

    let mut coo = CooMatrix::new(rows, cols);
    for (r, &lenf) in raw.iter().enumerate() {
        let len = (lenf.round() as usize).clamp(1, max_len);
        for c in rng.sample_distinct(cols, len) {
            coo.push(r, c, rng.next_value());
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Scale-free graph adjacency-like matrix: column positions are also drawn
/// from a skewed distribution so a few columns are touched by many rows
/// (memory hot-spots on the `x` vector), in addition to skewed row lengths.
pub fn scale_free(rows: usize, cols: usize, avg_row_len: usize, seed: u64) -> CsrMatrix {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0004);
    let max_len = cols.max(1);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        // Row length: power law with alpha = 2.0.
        let u = rng.next_f64().max(1e-12);
        let len = ((1.0 - u).powf(-1.0) * avg_row_len as f64 / 2.0).round() as usize;
        let len = len.clamp(1, max_len);
        // Quadratically skewed column choice concentrates mass on low ids.
        let chosen = distinct_sorted(cols, len, || {
            let t = rng.next_f64();
            (((t * t) * cols as f64) as usize).min(cols - 1)
        });
        for c in chosen {
            coo.push(r, c, rng.next_value());
        }
    }
    CsrMatrix::from_coo(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MatrixStats;

    #[test]
    fn average_row_length_is_close_to_target() {
        let m = powerlaw(4_000, 4_000, 20, 2.1, 42);
        let s = MatrixStats::from_csr(&m);
        assert!(
            (s.avg_row_len - 20.0).abs() < 10.0,
            "average row length {} too far from 20",
            s.avg_row_len
        );
    }

    #[test]
    fn heavy_tail_produces_irregularity() {
        let m = powerlaw(4_000, 4_000, 16, 1.8, 7);
        let s = MatrixStats::from_csr(&m);
        assert!(
            s.is_irregular(),
            "variance {} should exceed 100",
            s.row_len_variance
        );
        assert!(s.max_row_len > 10 * s.min_row_len.max(1));
    }

    #[test]
    fn no_empty_rows() {
        let m = powerlaw(500, 500, 4, 2.5, 9);
        assert!(!m.has_empty_rows());
        let m2 = scale_free(500, 500, 4, 9);
        assert!(!m2.has_empty_rows());
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn alpha_must_exceed_one() {
        powerlaw(10, 10, 2, 0.5, 1);
    }

    #[test]
    fn scale_free_concentrates_columns() {
        let m = scale_free(2_000, 2_000, 8, 3);
        // Count accesses to the first 10% of columns; skewed choice should put
        // well over 10% of non-zeros there.
        let cutoff = (m.cols() / 10) as u32;
        let hot = m.col_indices().iter().filter(|&&c| c < cutoff).count();
        assert!(hot as f64 > 0.2 * m.nnz() as f64);
    }

    #[test]
    fn deterministic() {
        assert_eq!(powerlaw(256, 256, 8, 2.0, 5), powerlaw(256, 256, 8, 2.0, 5));
        assert_eq!(scale_free(256, 256, 8, 5), scale_free(256, 256, 8, 5));
    }
}
