//! Operator parameters and their search grids.
//!
//! Every quantitative detail of an operator (rows per block, padding
//! granularity, threads per block, …) is a parameter.  The search engine
//! first evaluates candidates on the *coarse* grid by actually running the
//! generated kernels, then interpolates onto the *fine* grid with the ML cost
//! model (paper Section VI-A).  This module names the parameters, exposes the
//! two grids, and can rebuild an operator with substituted parameter values —
//! which is how a graph's parameter variants are built generically.

use crate::graph::OperatorGraph;
use crate::operator::Operator;

/// The kinds of tunable operator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Number of row bands of `ROW_DIV`.
    RowDivParts,
    /// Number of column bands of `COL_DIV`.
    ColDivParts,
    /// Number of bins of `BIN`.
    Bins,
    /// Rows per thread block of `BMTB_ROW_BLOCK`.
    BmtbRows,
    /// Rows per warp of `BMW_ROW_BLOCK`.
    BmwRows,
    /// Rows per thread of `BMT_ROW_BLOCK`.
    BmtRows,
    /// Threads cooperating on a row for `BMT_COL_BLOCK`.
    ThreadsPerRow,
    /// Non-zeros per thread of `BMT_NNZ_BLOCK`.
    NnzPerThread,
    /// Padding granularity of the `*_PAD` operators.
    PadMultiple,
    /// Threads per block of `SET_RESOURCES`.
    ThreadsPerBlock,
}

impl ParamKind {
    /// The coarse search grid: few, widely spaced values that are evaluated
    /// by running the generated SpMV program.
    pub fn coarse_grid(self) -> &'static [usize] {
        match self {
            ParamKind::RowDivParts => &[2, 4],
            ParamKind::ColDivParts => &[2, 4],
            ParamKind::Bins => &[2, 4, 8],
            ParamKind::BmtbRows => &[32, 128, 512],
            ParamKind::BmwRows => &[8, 32],
            ParamKind::BmtRows => &[1, 2, 4],
            ParamKind::ThreadsPerRow => &[2, 8, 32],
            ParamKind::NnzPerThread => &[4, 16, 64],
            ParamKind::PadMultiple => &[2, 8, 32],
            ParamKind::ThreadsPerBlock => &[64, 256, 1024],
        }
    }

    /// The fine grid the ML cost model interpolates onto (a strict superset of
    /// the coarse grid).
    pub fn fine_grid(self) -> Vec<usize> {
        match self {
            ParamKind::RowDivParts | ParamKind::ColDivParts => vec![2, 3, 4, 6, 8],
            ParamKind::Bins => vec![2, 3, 4, 6, 8, 12, 16],
            ParamKind::BmtbRows => vec![16, 32, 64, 128, 256, 512, 1024],
            ParamKind::BmwRows => vec![4, 8, 16, 32, 64],
            ParamKind::BmtRows => vec![1, 2, 3, 4, 6, 8],
            ParamKind::ThreadsPerRow => vec![2, 4, 8, 16, 32],
            ParamKind::NnzPerThread => vec![2, 4, 8, 16, 32, 64, 128],
            ParamKind::PadMultiple => vec![2, 4, 8, 16, 32, 64],
            ParamKind::ThreadsPerBlock => vec![32, 64, 128, 256, 512, 1024],
        }
    }
}

/// Returns the tunable parameters of an operator as `(kind, current value)`
/// pairs.  Operators without parameters return an empty list.
pub fn operator_params(op: &Operator) -> Vec<(ParamKind, usize)> {
    use Operator::*;
    match op {
        RowDiv { parts } => vec![(ParamKind::RowDivParts, *parts)],
        ColDiv { parts } => vec![(ParamKind::ColDivParts, *parts)],
        Bin { bins } => vec![(ParamKind::Bins, *bins)],
        BmtbRowBlock { rows } => vec![(ParamKind::BmtbRows, *rows)],
        BmwRowBlock { rows } => vec![(ParamKind::BmwRows, *rows)],
        BmtRowBlock { rows } => vec![(ParamKind::BmtRows, *rows)],
        BmtColBlock { threads_per_row } => vec![(ParamKind::ThreadsPerRow, *threads_per_row)],
        BmtNnzBlock { nnz } => vec![(ParamKind::NnzPerThread, *nnz)],
        BmtbPad { multiple } | BmwPad { multiple } | BmtPad { multiple } => {
            vec![(ParamKind::PadMultiple, *multiple)]
        }
        SetResources { threads_per_block } => {
            vec![(ParamKind::ThreadsPerBlock, *threads_per_block)]
        }
        _ => Vec::new(),
    }
}

/// Rebuilds an operator with a new value for its (single) tunable parameter.
/// Parameterless operators are returned unchanged.
pub fn with_param(op: &Operator, value: usize) -> Operator {
    use Operator::*;
    match op {
        RowDiv { .. } => RowDiv { parts: value },
        ColDiv { .. } => ColDiv { parts: value },
        Bin { .. } => Bin { bins: value },
        BmtbRowBlock { .. } => BmtbRowBlock { rows: value },
        BmwRowBlock { .. } => BmwRowBlock { rows: value },
        BmtRowBlock { .. } => BmtRowBlock { rows: value },
        BmtColBlock { .. } => BmtColBlock {
            threads_per_row: value,
        },
        BmtNnzBlock { .. } => BmtNnzBlock { nnz: value },
        BmtbPad { .. } => BmtbPad { multiple: value },
        BmwPad { .. } => BmwPad { multiple: value },
        BmtPad { .. } => BmtPad { multiple: value },
        SetResources { .. } => SetResources {
            threads_per_block: value,
        },
        other => other.clone(),
    }
}

/// The parameter variants of `graph` on the coarse grid, or with `fine` on
/// the fine one: every parameterised operator swept over its grid one at a
/// time, the base graph first.  A branch parameter changes in every branch
/// at once, which keeps branched designs symmetric.
pub fn parameter_variants(graph: &OperatorGraph, fine: bool) -> Vec<OperatorGraph> {
    let grid = |kind: ParamKind| -> Vec<usize> {
        if fine {
            kind.fine_grid()
        } else {
            kind.coarse_grid().to_vec()
        }
    };
    let mut variants = vec![graph.clone()];
    for (i, op) in graph.converting.iter().enumerate() {
        for &(kind, current) in &operator_params(op) {
            for value in grid(kind).into_iter().filter(|&v| v != current) {
                let mut variant = graph.clone();
                variant.converting[i] = with_param(op, value);
                // Partition-count changes require matching branch counts.
                let expected = variant.expected_branches();
                if variant.branches.len() != expected {
                    let template = variant.branches[0].clone();
                    variant.branches = vec![template; expected];
                }
                if variant.validate().is_ok() {
                    variants.push(variant);
                }
            }
        }
    }
    let branch_len = graph.branches.first().map(|b| b.len()).unwrap_or(0);
    for pos in 0..branch_len {
        for &(kind, current) in &operator_params(&graph.branches[0][pos]) {
            for value in grid(kind).into_iter().filter(|&v| v != current) {
                let mut variant = graph.clone();
                for branch in &mut variant.branches {
                    if pos < branch.len() {
                        branch[pos] = with_param(&branch[pos], value);
                    }
                }
                if variant.validate().is_ok() {
                    variants.push(variant);
                }
            }
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameterised_operators_expose_their_value() {
        let op = Operator::BmtbRowBlock { rows: 128 };
        assert_eq!(operator_params(&op), vec![(ParamKind::BmtbRows, 128)]);
        assert!(operator_params(&Operator::Sort).is_empty());
        assert!(operator_params(&Operator::GmemAtomRed).is_empty());
    }

    #[test]
    fn with_param_substitutes_value() {
        let op = Operator::BmtNnzBlock { nnz: 8 };
        assert_eq!(with_param(&op, 64), Operator::BmtNnzBlock { nnz: 64 });
        // Parameterless operators pass through unchanged.
        assert_eq!(with_param(&Operator::Compress, 99), Operator::Compress);
    }

    #[test]
    fn fine_grid_is_superset_of_coarse_grid() {
        for kind in [
            ParamKind::RowDivParts,
            ParamKind::ColDivParts,
            ParamKind::Bins,
            ParamKind::BmtbRows,
            ParamKind::BmwRows,
            ParamKind::BmtRows,
            ParamKind::ThreadsPerRow,
            ParamKind::NnzPerThread,
            ParamKind::PadMultiple,
            ParamKind::ThreadsPerBlock,
        ] {
            let fine = kind.fine_grid();
            for v in kind.coarse_grid() {
                assert!(
                    fine.contains(v),
                    "{kind:?}: coarse value {v} missing from fine grid"
                );
            }
            assert!(fine.len() > kind.coarse_grid().len());
        }
    }

    #[test]
    fn fine_variants_are_a_superset_of_coarse() {
        let graph = crate::presets::sell_like();
        let coarse = parameter_variants(&graph, false);
        let fine = parameter_variants(&graph, true);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn every_catalogue_operator_round_trips_through_params() {
        for op in Operator::catalogue() {
            let params = operator_params(&op);
            if let Some(&(_, value)) = params.first() {
                assert_eq!(with_param(&op, value), op);
            }
        }
    }
}
