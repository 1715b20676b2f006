//! The features of the level-3 regression: a candidate's parameters and the matrix's statistics.

use alpha_graph::params::operator_params;
use alpha_graph::{Mapping, OperatorGraph};
use alpha_matrix::MatrixStats;

/// A training / prediction sample: a feature vector (operator-graph and
/// parameter features) and its target (GFLOP/s).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature values.
    pub features: Vec<f64>,
    /// Target value.
    pub target: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(features: Vec<f64>, target: f64) -> Self {
        Sample { features, target }
    }
}

/// Number of features produced by [`featurise`].
pub const FEATURE_COUNT: usize = 16;

/// Encodes a candidate graph and the target matrix as a feature vector.
///
/// The encoding keeps every quantitative parameter (block sizes, padding
/// granularity, threads per block) as its own dimension and adds the matrix
/// statistics the cost surface depends on, so the tree model can learn
/// interactions such as "large padding multiples only pay off for long rows".
pub fn featurise(graph: &OperatorGraph, stats: &MatrixStats) -> Vec<f64> {
    let branch = graph.branches.first().map(|b| b.as_slice()).unwrap_or(&[]);
    let mapping = OperatorGraph::branch_mapping(branch);
    let reduction = OperatorGraph::branch_reduction(branch);
    let threads_per_block = OperatorGraph::branch_threads_per_block(branch) as f64;

    let (mapping_kind, mapping_param) = match mapping {
        Some(Mapping::RowPerThread { rows_per_thread }) => (0.0, rows_per_thread as f64),
        Some(Mapping::VectorPerRow { threads_per_row }) => (1.0, threads_per_row as f64),
        Some(Mapping::NnzSplit { nnz_per_thread }) => (2.0, nnz_per_thread as f64),
        None => (-1.0, 0.0),
    };
    let find = |name: &str| -> f64 {
        graph
            .all_operators()
            .find(|op| op.name() == name)
            .map(|op| {
                operator_params(op)
                    .first()
                    .map(|&(_, v)| v as f64)
                    .unwrap_or(1.0)
            })
            .unwrap_or(0.0)
    };
    let has = |name: &str| f64::from(graph.all_operators().any(|op| op.name() == name));

    vec![
        mapping_kind,
        mapping_param,
        threads_per_block,
        find("BMTB_ROW_BLOCK"),
        find("BMT_PAD") + find("BMW_PAD") + find("BMTB_PAD"),
        has("SORT") + has("SORT_SUB"),
        find("BIN"),
        has("INTERLEAVED_STORAGE"),
        has("SORT_BMTB"),
        graph.branches.len() as f64,
        // Reduction plan flags.
        if reduction.warp.is_some() { 1.0 } else { 0.0 },
        if reduction.block.is_some() { 1.0 } else { 0.0 },
        if reduction.global_atomic { 1.0 } else { 0.0 },
        // Matrix statistics.
        (stats.nnz.max(1) as f64).ln(),
        stats.avg_row_len,
        (stats.row_len_variance + 1.0).ln(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_graph::presets;
    use alpha_matrix::gen;

    fn stats() -> MatrixStats {
        MatrixStats::from_csr(&gen::powerlaw(500, 500, 8, 2.0, 1))
    }

    #[test]
    fn feature_vectors_have_fixed_length() {
        let s = stats();
        for (_, graph) in presets::all_presets() {
            assert_eq!(featurise(&graph, &s).len(), FEATURE_COUNT);
        }
    }

    #[test]
    fn different_designs_have_different_features() {
        let s = stats();
        let a = featurise(&presets::csr_scalar(), &s);
        let b = featurise(&presets::csr5_like(16), &s);
        let c = featurise(&presets::sell_like(), &s);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn parameter_changes_are_visible() {
        let s = stats();
        let a = featurise(&presets::csr5_like(8), &s);
        let b = featurise(&presets::csr5_like(64), &s);
        assert_ne!(a, b);
        assert_eq!(a[0], 2.0); // nnz-split mapping kind
        assert_eq!(a[1], 8.0);
        assert_eq!(b[1], 64.0);
    }

    #[test]
    fn matrix_statistics_are_included() {
        let regular = MatrixStats::from_csr(&gen::uniform_random(500, 500, 8, 1));
        let irregular = stats();
        let graph = presets::csr_scalar();
        let a = featurise(&graph, &regular);
        let b = featurise(&graph, &irregular);
        assert_ne!(a[FEATURE_COUNT - 1], b[FEATURE_COUNT - 1]);
    }
}
