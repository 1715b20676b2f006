//! Matrix features: encodes a matrix's sparsity structure as a fixed-length
//! numeric vector, the similarity metric of the serving layer's warm start.

use alpha_matrix::MatrixStats;

/// Number of features produced by [`matrix_feature_vector`].
pub const MATRIX_FEATURE_COUNT: usize = 6;

/// Encodes a matrix's sparsity structure (independent of any candidate
/// graph) as a fixed-length vector, for *matrix-to-matrix* similarity.
///
/// Serving layers use this to warm-start the search for a new matrix from
/// the stored winners of structurally similar ones: two matrices that are
/// close in this space tend to be won by the same family of designs (same
/// mapping kind, similar padding/blocking parameters).  Counts are
/// log-scaled so "similar" means *proportionally* similar — a 1M-row matrix
/// is close to a 2M-row one, not to every matrix within ±1M rows.
pub fn matrix_feature_vector(stats: &MatrixStats) -> Vec<f64> {
    vec![
        (stats.rows.max(1) as f64).ln(),
        (stats.cols.max(1) as f64).ln(),
        (stats.nnz.max(1) as f64).ln(),
        (stats.avg_row_len + 1.0).ln(),
        (stats.row_len_variance + 1.0).ln(),
        stats.empty_rows as f64 / stats.rows.max(1) as f64,
    ]
}

/// Euclidean distance between two matrix feature vectors (smaller = more
/// structurally similar).  Vectors of different lengths — e.g. from a future
/// feature-schema change — are infinitely far apart, so they never
/// warm-start each other.
pub fn matrix_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::gen;

    #[test]
    fn matrix_features_measure_structural_similarity() {
        let base = matrix_feature_vector(&MatrixStats::from_csr(&gen::powerlaw(
            1_000, 1_000, 8, 2.0, 1,
        )));
        assert_eq!(base.len(), MATRIX_FEATURE_COUNT);
        // A same-family matrix at 2x scale is closer than a regular banded
        // matrix of identical size.
        let scaled = matrix_feature_vector(&MatrixStats::from_csr(&gen::powerlaw(
            2_000, 2_000, 8, 2.0, 2,
        )));
        let banded = matrix_feature_vector(&MatrixStats::from_csr(&gen::banded(1_000, 4, 3)));
        assert!(matrix_distance(&base, &scaled) < matrix_distance(&base, &banded));
        // Identity and schema-mismatch edge cases.
        assert_eq!(matrix_distance(&base, &base), 0.0);
        assert_eq!(matrix_distance(&base, &base[..3]), f64::INFINITY);
    }
}
