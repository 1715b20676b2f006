//! Recursive-MATrix (RMAT / Kronecker) graph generator.  RMAT adjacency
//! matrices combine power-law degree distributions with community structure
//! and are the standard synthetic stand-in for social/web graph matrices.

use super::rng::SplitMix64;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// RMAT quadrant probabilities (a, b, c); d is implied as `1 - a - b - c`.
/// The defaults (0.57, 0.19, 0.19) follow the Graph500 specification.
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// Generates an RMAT adjacency-like matrix with `n` rows/columns (rounded up
/// to a power of two internally, then truncated) and approximately
/// `target_nnz` non-zeros.  Duplicate edges are merged, and every row is
/// guaranteed at least one entry (a self-loop) so that the matrix satisfies
/// the paper's "no empty rows" test-set condition.
pub fn rmat(n: usize, target_nnz: usize, seed: u64) -> CsrMatrix {
    assert!(n > 0, "matrix dimension must be positive");
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0009);
    let levels = (usize::BITS - (n - 1).leading_zeros()) as usize;
    let mut coo = CooMatrix::new(n, n);

    // Self-loops ensure no empty rows.
    for r in 0..n {
        coo.push(r, r, rng.next_value());
    }

    let edges = target_nnz.saturating_sub(n);
    for _ in 0..edges {
        let mut r = 0usize;
        let mut c = 0usize;
        for level in 0..levels {
            // Quadrant a adds nothing, b the column bit, c the row bit and d
            // both.  Non-short-circuit `&` and `|` keep the pick free of
            // branches: one per level was a coin flip the predictor lost.
            let p = rng.next_f64();
            let down = p >= RMAT_A + RMAT_B;
            #[allow(clippy::manual_range_contains)] // `contains` short-circuits
            let right = (p >= RMAT_A) & (p < RMAT_A + RMAT_B) | (p >= RMAT_A + RMAT_B + RMAT_C);
            let shift = levels - 1 - level;
            r |= (down as usize) << shift;
            c |= (right as usize) << shift;
        }
        if r < n && c < n {
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
    fn nnz_is_roughly_target() {
        let m = rmat(1_024, 16_384, 1);
        // Duplicates shrink the count; expect within a factor of two.
        assert!(m.nnz() > 8_000, "nnz {} too small", m.nnz());
        assert!(m.nnz() <= 16_384 + 1_024);
    }

    #[test]
    fn no_empty_rows() {
        assert!(!rmat(500, 4_000, 2).has_empty_rows());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let m = rmat(2_048, 40_000, 3);
        let s = MatrixStats::from_csr(&m);
        assert!(s.max_row_len as f64 > 5.0 * s.avg_row_len);
    }

    #[test]
    fn non_power_of_two_dimension() {
        let m = rmat(1_000, 8_000, 4);
        assert_eq!(m.rows(), 1_000);
        assert!(m.col_indices().iter().all(|&c| (c as usize) < 1_000));
    }

    #[test]
    fn deterministic() {
        assert_eq!(rmat(256, 2_000, 5), rmat(256, 2_000, 5));
    }
}
