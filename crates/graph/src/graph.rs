//! The Operator Graph: a chain of converting operators applied to the whole
//! matrix, followed by one operator chain per partition (branch).
//!
//! Dependencies between operators (paper Section IV-B) are enforced by
//! [`OperatorGraph::validate`]: stage ordering, the blocking hierarchy
//! (thread block before warp before thread), and — most importantly — the
//! correctness constraints that tie the mapping stage to the reduction
//! strategies able to combine its partial sums.  Graphs that violate them are
//! rejected before any format or kernel is generated, which is also the basis
//! of the search engine's structural pruning.

use crate::metadata::{BlockReduction, Mapping, Reduction, ThreadReduction, WarpReduction};
use crate::operator::{Operator, Stage};

/// Why a graph failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The converting chain does not begin with `COMPRESS`.
    MissingCompress,
    /// An operator appears in a position its stage does not allow.
    StageOrder(String),
    /// The number of branches does not match the partitioning operator.
    BranchCount {
        /// Branches expected from `ROW_DIV`/`COL_DIV` (1 when absent).
        expected: usize,
        /// Branches actually present.
        actual: usize,
    },
    /// A branch lacks a thread-level work distribution operator.
    MissingThreadMapping(usize),
    /// A branch contains more than one operator of a kind that must be unique.
    Duplicate(String),
    /// The blocking hierarchy is out of order (thread before warp, …).
    Hierarchy(String),
    /// An operator's prerequisites are not present.
    MissingPrerequisite(String),
    /// The reduction plan cannot correctly combine the mapping's partial sums.
    IncorrectReduction(String),
    /// An operator parameter has an invalid value.
    BadParameter(String),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::MissingCompress => {
                write!(f, "operator graph must start with COMPRESS")
            }
            ValidationError::StageOrder(msg) => write!(f, "stage order violation: {msg}"),
            ValidationError::BranchCount { expected, actual } => {
                write!(f, "expected {expected} branches, found {actual}")
            }
            ValidationError::MissingThreadMapping(branch) => {
                write!(f, "branch {branch} has no thread-level mapping operator")
            }
            ValidationError::Duplicate(msg) => write!(f, "duplicate operator: {msg}"),
            ValidationError::Hierarchy(msg) => write!(f, "blocking hierarchy violation: {msg}"),
            ValidationError::MissingPrerequisite(msg) => write!(f, "missing prerequisite: {msg}"),
            ValidationError::IncorrectReduction(msg) => {
                write!(f, "reduction cannot produce correct results: {msg}")
            }
            ValidationError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// An operator graph: shared converting chain plus per-partition branches.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorGraph {
    /// Converting operators applied to the whole matrix, in order.  Must
    /// start with `COMPRESS`; may end with `ROW_DIV` or `COL_DIV`, which
    /// determines the number of branches.
    pub converting: Vec<Operator>,
    /// One operator chain per partition: optional per-partition converting
    /// operators (`SORT_SUB`, `BIN`), then mapping, then implementing.
    pub branches: Vec<Vec<Operator>>,
}

impl OperatorGraph {
    /// Creates an unbranched graph from a single chain of operators: the
    /// leading converting operators form the shared chain, the rest the
    /// single branch.
    pub fn linear(operators: Vec<Operator>) -> Self {
        let mut converting = Vec::new();
        let mut branch = Vec::new();
        let mut in_branch = false;
        for op in operators {
            let branch_local_converting = matches!(op, Operator::SortSub | Operator::Bin { .. });
            if !in_branch && op.stage() == Stage::Converting && !branch_local_converting {
                converting.push(op);
            } else {
                in_branch = true;
                branch.push(op);
            }
        }
        OperatorGraph {
            converting,
            branches: vec![branch],
        }
    }

    /// Number of partitions the converting chain produces.
    pub fn expected_branches(&self) -> usize {
        self.converting
            .iter()
            .find_map(|op| match op {
                Operator::RowDiv { parts } | Operator::ColDiv { parts } => Some(*parts),
                _ => None,
            })
            .unwrap_or(1)
    }

    /// True if the graph splits the matrix column-wise (all branches then
    /// share output rows).
    pub fn is_column_split(&self) -> bool {
        self.converting
            .iter()
            .any(|op| matches!(op, Operator::ColDiv { .. }))
    }

    /// Iterates over every operator in the graph (converting chain first,
    /// then each branch in order).
    pub fn all_operators(&self) -> impl Iterator<Item = &Operator> {
        self.converting.iter().chain(self.branches.iter().flatten())
    }

    /// Total number of operators.
    pub fn len(&self) -> usize {
        self.all_operators().count()
    }

    /// True if the graph contains no operators.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A canonical textual signature used to deduplicate candidates during
    /// the search.
    pub fn signature(&self) -> String {
        let mut s = String::new();
        for op in &self.converting {
            s.push_str(&op.to_string());
            s.push(';');
        }
        for (i, branch) in self.branches.iter().enumerate() {
            s.push_str(&format!("[{i}]"));
            for op in branch {
                s.push_str(&op.to_string());
                s.push(';');
            }
        }
        s
    }

    /// A canonical signature that is additionally order-insensitive where the
    /// graph's semantics are.  The only consumers of a branch's
    /// implementing-stage operators are [`branch_reduction`]
    /// (last-operator-wins per reduction level) and
    /// [`branch_threads_per_block`] — and reduction validation also judges
    /// only that resolved plan — so the implementing operators are replaced
    /// by the *resolved* `(Reduction, threads_per_block)` they denote.
    /// Converting and mapping operators keep their order — it is meaningful
    /// (stage ordering, the blocking hierarchy, branch identity).
    ///
    /// Two graphs with equal canonical signatures therefore validate
    /// identically and design the same format and kernel; the evaluation
    /// cache keys on this.
    ///
    /// [`branch_reduction`]: Self::branch_reduction
    /// [`branch_threads_per_block`]: Self::branch_threads_per_block
    pub fn canonical_signature(&self) -> String {
        let mut s = String::new();
        for op in &self.converting {
            s.push_str(&op.to_string());
            s.push(';');
        }
        for (i, branch) in self.branches.iter().enumerate() {
            s.push_str(&format!("[{i}]"));
            for op in branch {
                if op.stage() != Stage::Implementing {
                    s.push_str(&op.to_string());
                    s.push(';');
                }
            }
            let reduction = Self::branch_reduction(branch);
            let threads_per_block = Self::branch_threads_per_block(branch);
            s.push_str(&format!("{reduction:?};tpb={threads_per_block};"));
        }
        s
    }

    /// 64-bit FNV-1a hash of [`canonical_signature`](Self::canonical_signature),
    /// stable across runs and platforms.
    pub fn canonical_hash(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.canonical_signature().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Extracts the mapping a branch describes, if its operators are valid.
    pub fn branch_mapping(branch: &[Operator]) -> Option<Mapping> {
        branch.iter().find_map(|op| match op {
            Operator::BmtRowBlock { rows } => Some(Mapping::RowPerThread {
                rows_per_thread: (*rows).max(1),
            }),
            Operator::BmtColBlock { threads_per_row } => Some(Mapping::VectorPerRow {
                threads_per_row: (*threads_per_row).max(1),
            }),
            Operator::BmtNnzBlock { nnz } => Some(Mapping::NnzSplit {
                nnz_per_thread: (*nnz).max(1),
            }),
            _ => None,
        })
    }

    /// Extracts the reduction plan a branch describes.
    pub fn branch_reduction(branch: &[Operator]) -> Reduction {
        let mut reduction = Reduction::thread_direct();
        for op in branch {
            match op {
                Operator::ThreadTotalRed => reduction.thread = ThreadReduction::Total,
                Operator::ThreadBitmapRed => reduction.thread = ThreadReduction::Bitmap,
                Operator::WarpTotalRed => reduction.warp = Some(WarpReduction::Total),
                Operator::WarpBitmapRed => reduction.warp = Some(WarpReduction::Bitmap),
                Operator::WarpSegRed => reduction.warp = Some(WarpReduction::Segmented),
                Operator::ShmemOffsetRed => reduction.block = Some(BlockReduction::SharedOffset),
                Operator::ShmemTotalRed => reduction.block = Some(BlockReduction::SharedTotal),
                Operator::GmemAtomRed => reduction.global_atomic = true,
                _ => {}
            }
        }
        reduction
    }

    /// Threads per block chosen by `SET_RESOURCES`, or the default of 128.
    pub fn branch_threads_per_block(branch: &[Operator]) -> usize {
        branch
            .iter()
            .find_map(|op| match op {
                Operator::SetResources { threads_per_block } => Some(*threads_per_block),
                _ => None,
            })
            .unwrap_or(128)
    }

    /// Validates the graph against the operator dependency rules.
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.validate_converting()?;
        let expected = self.expected_branches();
        if self.branches.len() != expected {
            return Err(ValidationError::BranchCount {
                expected,
                actual: self.branches.len(),
            });
        }
        for (index, branch) in self.branches.iter().enumerate() {
            self.validate_branch(index, branch)?;
        }
        Ok(())
    }

    fn validate_converting(&self) -> Result<(), ValidationError> {
        match self.converting.first() {
            Some(Operator::Compress) => {}
            _ => return Err(ValidationError::MissingCompress),
        }
        let mut seen_div = false;
        for (i, op) in self.converting.iter().enumerate() {
            if op.stage() != Stage::Converting {
                return Err(ValidationError::StageOrder(format!(
                    "{} is not a converting operator",
                    op.name()
                )));
            }
            if matches!(op, Operator::SortSub) {
                return Err(ValidationError::StageOrder(
                    "SORT_SUB applies to a partition, not to the shared converting chain".into(),
                ));
            }
            if i > 0 && matches!(op, Operator::Compress) {
                return Err(ValidationError::Duplicate("COMPRESS".into()));
            }
            if let Operator::RowDiv { parts } | Operator::ColDiv { parts } = op {
                if *parts < 2 {
                    return Err(ValidationError::BadParameter(format!(
                        "{} needs at least 2 parts",
                        op.name()
                    )));
                }
                if seen_div {
                    return Err(ValidationError::Duplicate("ROW_DIV/COL_DIV".into()));
                }
                if i + 1 != self.converting.len() {
                    return Err(ValidationError::StageOrder(
                        "ROW_DIV/COL_DIV must be the last shared converting operator".into(),
                    ));
                }
                seen_div = true;
            }
            if let Operator::Bin { bins } = op {
                if *bins < 2 {
                    return Err(ValidationError::BadParameter(
                        "BIN needs at least 2 bins".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    fn validate_branch(&self, index: usize, branch: &[Operator]) -> Result<(), ValidationError> {
        // Stage ordering inside a branch: converting (SORT_SUB/BIN only) ->
        // mapping -> implementing.
        let mut max_stage = 0usize;
        for op in branch {
            let rank = match op.stage() {
                Stage::Converting => {
                    if !matches!(op, Operator::SortSub | Operator::Bin { .. }) {
                        return Err(ValidationError::StageOrder(format!(
                            "{} cannot appear inside a branch",
                            op.name()
                        )));
                    }
                    0
                }
                Stage::Mapping => 1,
                Stage::Implementing => 2,
            };
            if rank < max_stage {
                return Err(ValidationError::StageOrder(format!(
                    "{} appears after a later-stage operator in branch {index}",
                    op.name()
                )));
            }
            max_stage = max_stage.max(rank);
        }

        // Uniqueness and hierarchy of blocking operators.
        let count = |pred: &dyn Fn(&Operator) -> bool| branch.iter().filter(|o| pred(o)).count();
        let thread_mappings = count(&|o| {
            matches!(
                o,
                Operator::BmtRowBlock { .. }
                    | Operator::BmtColBlock { .. }
                    | Operator::BmtNnzBlock { .. }
            )
        });
        if thread_mappings == 0 {
            return Err(ValidationError::MissingThreadMapping(index));
        }
        if thread_mappings > 1 {
            return Err(ValidationError::Duplicate(format!(
                "branch {index} has {thread_mappings} thread-level mapping operators"
            )));
        }
        for unique in ["BMTB_ROW_BLOCK", "BMW_ROW_BLOCK", "SET_RESOURCES"] {
            if branch.iter().filter(|o| o.name() == unique).count() > 1 {
                return Err(ValidationError::Duplicate(format!(
                    "{unique} in branch {index}"
                )));
            }
        }
        let pos = |name: &str| branch.iter().position(|o| o.name() == name);
        let bmtb = pos("BMTB_ROW_BLOCK");
        let bmw = pos("BMW_ROW_BLOCK");
        let bmt = branch.iter().position(|o| {
            matches!(
                o,
                Operator::BmtRowBlock { .. }
                    | Operator::BmtColBlock { .. }
                    | Operator::BmtNnzBlock { .. }
            )
        });
        if let (Some(b), Some(t)) = (bmtb, bmt) {
            if b > t {
                return Err(ValidationError::Hierarchy(
                    "thread-level blocking cannot be followed by thread-block-level blocking"
                        .into(),
                ));
            }
        }
        if let (Some(w), Some(t)) = (bmw, bmt) {
            if w > t {
                return Err(ValidationError::Hierarchy(
                    "thread-level blocking cannot be followed by warp-level blocking".into(),
                ));
            }
        }
        if let (Some(b), Some(w)) = (bmtb, bmw) {
            if b > w {
                return Err(ValidationError::Hierarchy(
                    "warp-level blocking cannot be followed by thread-block-level blocking".into(),
                ));
            }
        }

        // Padding, interleaving, SORT_BMTB prerequisites.
        let mapping = Self::branch_mapping(branch).expect("checked above");
        let has_pad = branch.iter().any(|o| {
            matches!(
                o,
                Operator::BmtbPad { .. } | Operator::BmwPad { .. } | Operator::BmtPad { .. }
            )
        });
        if has_pad && !matches!(mapping, Mapping::RowPerThread { .. }) {
            return Err(ValidationError::MissingPrerequisite(
                "padding operators require a BMT_ROW_BLOCK mapping".into(),
            ));
        }
        if branch.iter().any(|o| matches!(o, Operator::BmtbPad { .. })) && bmtb.is_none() {
            return Err(ValidationError::MissingPrerequisite(
                "BMTB_PAD requires BMTB_ROW_BLOCK".into(),
            ));
        }
        if branch.iter().any(|o| matches!(o, Operator::BmwPad { .. })) && bmw.is_none() {
            return Err(ValidationError::MissingPrerequisite(
                "BMW_PAD requires BMW_ROW_BLOCK".into(),
            ));
        }
        if branch.iter().any(|o| matches!(o, Operator::SortBmtb)) && bmtb.is_none() {
            return Err(ValidationError::MissingPrerequisite(
                "SORT_BMTB requires BMTB_ROW_BLOCK".into(),
            ));
        }
        if branch
            .iter()
            .any(|o| matches!(o, Operator::InterleavedStorage))
            && !matches!(mapping, Mapping::RowPerThread { .. })
        {
            return Err(ValidationError::MissingPrerequisite(
                "INTERLEAVED_STORAGE requires a BMT_ROW_BLOCK mapping".into(),
            ));
        }

        // Parameter sanity.
        for op in branch {
            match op {
                Operator::BmtRowBlock { rows: 0 }
                | Operator::BmtbRowBlock { rows: 0 }
                | Operator::BmwRowBlock { rows: 0 }
                | Operator::BmtColBlock { threads_per_row: 0 }
                | Operator::BmtNnzBlock { nnz: 0 }
                | Operator::BmtbPad { multiple: 0 }
                | Operator::BmwPad { multiple: 0 }
                | Operator::BmtPad { multiple: 0 } => {
                    return Err(ValidationError::BadParameter(format!(
                        "{} parameter must be positive",
                        op.name()
                    )));
                }
                Operator::SetResources { threads_per_block }
                    if (*threads_per_block == 0 || threads_per_block % 32 != 0) =>
                {
                    return Err(ValidationError::BadParameter(format!(
                        "SET_RESOURCES threads_per_block {threads_per_block} must be a \
                             positive multiple of 32"
                    )));
                }
                Operator::BmtColBlock { threads_per_row } if *threads_per_row > 32 => {
                    return Err(ValidationError::BadParameter(
                        "BMT_COL_BLOCK cannot spread one row over more than a warp".into(),
                    ));
                }
                _ => {}
            }
        }

        // Correctness of the reduction plan w.r.t. the mapping.
        let reduction = Self::branch_reduction(branch);
        let threads_per_block = Self::branch_threads_per_block(branch);
        self.validate_reduction(index, mapping, reduction, threads_per_block, branch)?;
        Ok(())
    }

    fn validate_reduction(
        &self,
        index: usize,
        mapping: Mapping,
        reduction: Reduction,
        _threads_per_block: usize,
        branch: &[Operator],
    ) -> Result<(), ValidationError> {
        // Column-split partitions always write rows shared with siblings.
        if self.is_column_split() && !reduction.global_atomic {
            return Err(ValidationError::IncorrectReduction(format!(
                "branch {index}: COL_DIV partitions share output rows and need GMEM_ATOM_RED"
            )));
        }
        match mapping {
            Mapping::RowPerThread { .. } => {
                // Whole rows per thread: any reduction is correct; a
                // THREAD_BITMAP_RED is pointless but harmless.
            }
            Mapping::VectorPerRow { threads_per_row } => {
                if !reduction.handles_row_split_across_warp() {
                    return Err(ValidationError::IncorrectReduction(format!(
                        "branch {index}: rows are split across {threads_per_row} threads but no \
                         warp/block/global reduction is present"
                    )));
                }
                if reduction.warp == Some(WarpReduction::Total)
                    && threads_per_row != crate::designer::WARP_SIZE
                    && reduction.block.is_none()
                    && !reduction.global_atomic
                {
                    return Err(ValidationError::IncorrectReduction(format!(
                        "branch {index}: WARP_TOTAL_RED assumes the whole warp works on one row \
                         but only {threads_per_row} threads share a row"
                    )));
                }
            }
            Mapping::NnzSplit { .. } => {
                if reduction.thread != ThreadReduction::Bitmap {
                    return Err(ValidationError::IncorrectReduction(format!(
                        "branch {index}: BMT_NNZ_BLOCK chunks cross row boundaries and need \
                         THREAD_BITMAP_RED"
                    )));
                }
                if !reduction.global_atomic {
                    return Err(ValidationError::IncorrectReduction(format!(
                        "branch {index}: BMT_NNZ_BLOCK rows can span thread blocks and need \
                         GMEM_ATOM_RED for the boundary rows"
                    )));
                }
            }
        }
        // SHMEM_TOTAL_RED / WARP_TOTAL_RED assume single-row scopes.
        if reduction.block == Some(BlockReduction::SharedTotal) {
            let single_row_blocks = branch
                .iter()
                .any(|o| matches!(o, Operator::BmtbRowBlock { rows: 1 }));
            if !single_row_blocks {
                return Err(ValidationError::IncorrectReduction(format!(
                    "branch {index}: SHMEM_TOTAL_RED requires BMTB_ROW_BLOCK(rows=1) so all \
                     partials of a block belong to one row"
                )));
            }
        }
        if reduction.warp == Some(WarpReduction::Total) {
            let whole_warp_per_row = matches!(
                mapping,
                Mapping::VectorPerRow { threads_per_row } if threads_per_row == crate::designer::WARP_SIZE
            ) || branch
                .iter()
                .any(|o| matches!(o, Operator::BmwRowBlock { rows: 1 }));
            if !whole_warp_per_row && matches!(mapping, Mapping::RowPerThread { .. }) {
                return Err(ValidationError::IncorrectReduction(format!(
                    "branch {index}: WARP_TOTAL_RED over a row-per-thread mapping would merge \
                     unrelated rows"
                )));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for OperatorGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "shared: {}",
            self.converting
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        )?;
        for (i, branch) in self.branches.iter().enumerate() {
            writeln!(
                f,
                "branch {i}: {}",
                branch
                    .iter()
                    .map(|o| o.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn presets_validate() {
        for (name, graph) in presets::all_presets() {
            assert!(
                graph.validate().is_ok(),
                "preset {name} failed: {:?}",
                graph.validate()
            );
        }
    }

    #[test]
    fn missing_compress_is_rejected() {
        let graph = OperatorGraph {
            converting: vec![Operator::Sort],
            branches: vec![vec![
                Operator::BmtRowBlock { rows: 1 },
                Operator::ThreadTotalRed,
            ]],
        };
        assert_eq!(graph.validate(), Err(ValidationError::MissingCompress));
    }

    #[test]
    fn branch_count_must_match_rowdiv() {
        let graph = OperatorGraph {
            converting: vec![Operator::Compress, Operator::RowDiv { parts: 3 }],
            branches: vec![vec![
                Operator::BmtRowBlock { rows: 1 },
                Operator::ThreadTotalRed,
            ]],
        };
        assert_eq!(
            graph.validate(),
            Err(ValidationError::BranchCount {
                expected: 3,
                actual: 1
            })
        );
    }

    #[test]
    fn thread_mapping_is_required() {
        let graph = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![Operator::ThreadTotalRed]],
        };
        assert_eq!(
            graph.validate(),
            Err(ValidationError::MissingThreadMapping(0))
        );
    }

    #[test]
    fn hierarchy_violation_is_rejected() {
        // The paper's own example: BMT_ROW_BLOCK cannot be followed by
        // BMTB_ROW_BLOCK.
        let graph = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::BmtRowBlock { rows: 1 },
                Operator::BmtbRowBlock { rows: 64 },
                Operator::ThreadTotalRed,
            ]],
        };
        assert!(matches!(
            graph.validate(),
            Err(ValidationError::Hierarchy(_))
        ));
    }

    #[test]
    fn nnz_split_requires_bitmap_and_cross_block_reduction() {
        let incomplete = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::BmtNnzBlock { nnz: 16 },
                Operator::ThreadTotalRed,
                Operator::GmemAtomRed,
            ]],
        };
        assert!(matches!(
            incomplete.validate(),
            Err(ValidationError::IncorrectReduction(_))
        ));

        let fixed = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::BmtNnzBlock { nnz: 16 },
                Operator::ThreadBitmapRed,
                Operator::GmemAtomRed,
            ]],
        };
        assert!(fixed.validate().is_ok());
    }

    #[test]
    fn vector_mapping_requires_cross_thread_reduction() {
        let missing = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::BmtColBlock { threads_per_row: 4 },
                Operator::ThreadTotalRed,
            ]],
        };
        assert!(matches!(
            missing.validate(),
            Err(ValidationError::IncorrectReduction(_))
        ));

        let with_seg = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::BmtColBlock { threads_per_row: 4 },
                Operator::ThreadTotalRed,
                Operator::WarpSegRed,
            ]],
        };
        assert!(with_seg.validate().is_ok());
    }

    #[test]
    fn col_div_requires_atomics_everywhere() {
        let graph = OperatorGraph {
            converting: vec![Operator::Compress, Operator::ColDiv { parts: 2 }],
            branches: vec![
                vec![
                    Operator::BmtRowBlock { rows: 1 },
                    Operator::ThreadTotalRed,
                    Operator::GmemAtomRed,
                ],
                vec![Operator::BmtRowBlock { rows: 1 }, Operator::ThreadTotalRed],
            ],
        };
        assert!(matches!(
            graph.validate(),
            Err(ValidationError::IncorrectReduction(_))
        ));
    }

    #[test]
    fn canonical_signature_tracks_the_resolved_reduction_plan() {
        // Reduction operators resolve last-wins per level, so reorderings
        // that keep the resolved plan are canonically equal...
        let base = |tail: Vec<Operator>| {
            let mut ops = vec![
                Operator::Compress,
                Operator::BmtColBlock { threads_per_row: 4 },
            ];
            ops.extend(tail);
            OperatorGraph::linear(ops)
        };
        let a = base(vec![Operator::ThreadTotalRed, Operator::WarpSegRed]);
        let b = base(vec![Operator::WarpSegRed, Operator::ThreadTotalRed]);
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.canonical_signature(), b.canonical_signature());
        assert_eq!(a.canonical_hash(), b.canonical_hash());

        // ...but reorderings that change the resolved plan must NOT collide:
        // [WARP_TOTAL_RED, WARP_SEG_RED] resolves warp=Segmented (valid for a
        // 4-thread row split), the swapped order resolves warp=Total (invalid
        // there).  A textual sort of implementing operators would merge them.
        let seg_last = base(vec![
            Operator::ThreadTotalRed,
            Operator::WarpTotalRed,
            Operator::WarpSegRed,
        ]);
        let total_last = base(vec![
            Operator::ThreadTotalRed,
            Operator::WarpSegRed,
            Operator::WarpTotalRed,
        ]);
        assert!(seg_last.validate().is_ok());
        assert!(total_last.validate().is_err());
        assert_ne!(
            seg_last.canonical_signature(),
            total_last.canonical_signature()
        );
        assert_eq!(seg_last.canonical_signature(), a.canonical_signature());
    }

    #[test]
    fn stage_order_inside_branch() {
        let graph = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::ThreadTotalRed,
                Operator::BmtRowBlock { rows: 1 },
            ]],
        };
        assert!(matches!(
            graph.validate(),
            Err(ValidationError::StageOrder(_))
        ));
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let graph = OperatorGraph {
            converting: vec![Operator::Compress],
            branches: vec![vec![
                Operator::BmtRowBlock { rows: 1 },
                Operator::SetResources {
                    threads_per_block: 100,
                },
                Operator::ThreadTotalRed,
            ]],
        };
        assert!(matches!(
            graph.validate(),
            Err(ValidationError::BadParameter(_))
        ));
    }

    #[test]
    fn linear_constructor_splits_stages() {
        let graph = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::Sort,
            Operator::BmtRowBlock { rows: 1 },
            Operator::ThreadTotalRed,
        ]);
        assert_eq!(graph.converting.len(), 2);
        assert_eq!(graph.branches.len(), 1);
        assert_eq!(graph.branches[0].len(), 2);
        assert!(graph.validate().is_ok());
        assert_eq!(graph.len(), 4);
        assert!(!graph.is_empty());
    }

    #[test]
    fn signature_distinguishes_parameters() {
        let a = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::BmtRowBlock { rows: 1 },
            Operator::ThreadTotalRed,
        ]);
        let b = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::BmtRowBlock { rows: 2 },
            Operator::ThreadTotalRed,
        ]);
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn display_lists_branches() {
        let graph = presets::csr_scalar();
        let text = graph.to_string();
        assert!(text.contains("shared: COMPRESS"));
        assert!(text.contains("branch 0"));
    }
}
