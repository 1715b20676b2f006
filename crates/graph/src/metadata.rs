//! The Matrix Metadata Set: the fully-resolved description of a machine-
//! designed format that the Designer builds up while executing an Operator
//! Graph (paper Section V-A).
//!
//! The paper describes the metadata set as a key-value database of everything
//! the generator needs (row orders, block boundaries, padding, reduction
//! information).  Here the same information is held in typed form: one
//! [`PartitionPlan`] per branch of the graph, inside a
//! [`MatrixMetadataSet`].
//!
//! A plan does not own its streams: [`PartitionPlan::matrix`] and
//! [`PartitionPlan::origin_rows`] are shared references to what the
//! Designer's converting stage built (see [`crate::designer`]).  Cloning a
//! plan or a metadata set, generating a simulated kernel from it and lowering
//! a native partition from it all share that one allocation, which is
//! immutable for as long as anyone holds it.

use crate::operator::Operator;
use alpha_matrix::CsrMatrix;
use std::sync::Arc;

/// How non-zeros are distributed over threads (the outcome of the mapping
/// stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Each thread owns `rows_per_thread` whole rows (CSR-scalar / ELL
    /// lineage; `BMT_ROW_BLOCK`).
    RowPerThread {
        /// Number of consecutive rows assigned to one thread.
        rows_per_thread: usize,
    },
    /// `threads_per_row` threads cooperate on each row (CSR-vector lineage;
    /// `BMT_COL_BLOCK`).
    VectorPerRow {
        /// Number of threads sharing one row.
        threads_per_row: usize,
    },
    /// Each thread owns `nnz_per_thread` consecutive non-zeros regardless of
    /// row boundaries (CSR5 / merge lineage; `BMT_NNZ_BLOCK`).
    NnzSplit {
        /// Number of non-zeros assigned to one thread.
        nnz_per_thread: usize,
    },
}

impl Mapping {
    /// True if a single row's partial sums can end up in more than one
    /// thread, which forces a cross-thread reduction strategy.
    pub fn splits_rows_across_threads(&self) -> bool {
        match self {
            Mapping::RowPerThread { .. } => false,
            Mapping::VectorPerRow { .. } | Mapping::NnzSplit { .. } => true,
        }
    }
}

/// How SIMD lanes map onto a partition's work.  No operator of the graph
/// sets it: the host that runs the design picks the loop by measurement, or
/// replays a recorded loop label (see [`PartitionPlan::simd`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLaneMapping {
    /// Each lane owns one of `lanes` adjacent rows (ELL/padded-row lineage);
    /// lanes accumulate independent rows, no horizontal reduction needed.
    Rows,
    /// Lanes cover `lanes` consecutive non-zeros of the same row (gather-based
    /// CSR lineage); a horizontal add folds the lane partials into one row
    /// result.
    Nnz,
}

/// The resolved vectorization directive of one partition: lane width and the
/// row-vs-nnz lane mapping.  `lanes == 1` means scalar execution, which is
/// what the Designer writes for every partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdPlan {
    /// SIMD lanes (1, 4 or 8).
    pub lanes: usize,
    /// Whether lanes span adjacent rows or consecutive non-zeros.
    pub lane_mapping: SimdLaneMapping,
}

impl SimdPlan {
    /// The scalar default: one lane.
    pub fn scalar() -> Self {
        SimdPlan {
            lanes: 1,
            lane_mapping: SimdLaneMapping::Nnz,
        }
    }

    /// True when the plan asks for a multi-lane kernel.
    pub fn is_vectorized(&self) -> bool {
        self.lanes > 1
    }
}

impl Default for SimdPlan {
    fn default() -> Self {
        SimdPlan::scalar()
    }
}

/// Scope at which padding is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadScope {
    /// Pad thread chunks so all threads of a thread block have equal length.
    ThreadBlock,
    /// Pad thread chunks so all threads of a warp have equal length.
    Warp,
    /// Pad each thread chunk independently to a multiple of the granularity.
    Thread,
}

/// Padding directive recorded by the `*_PAD` operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Padding {
    /// Scope over which chunk lengths are equalised.
    pub scope: PadScope,
    /// Granularity the padded length is rounded up to.
    pub multiple: usize,
}

/// Thread-level reduction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadReduction {
    /// The thread accumulates its whole chunk into one register
    /// (`THREAD_TOTAL_RED`): correct only when the chunk is within one row.
    Total,
    /// The thread walks its chunk and emits a partial sum per row boundary it
    /// crosses (`THREAD_BITMAP_RED`).
    Bitmap,
}

/// Warp-level reduction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpReduction {
    /// All lanes of the warp contribute to the same row (`WARP_TOTAL_RED`).
    Total,
    /// Row boundaries within the warp marked by a bitmap (`WARP_BITMAP_RED`).
    Bitmap,
    /// Segmented sum over the warp (`WARP_SEG_RED`).
    Segmented,
}

/// Thread-block-level reduction strategy (shared memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReduction {
    /// Per-row parallel reduction using CSR-like row offsets in shared memory
    /// (`SHMEM_OFFSET_RED`).
    SharedOffset,
    /// All partials of the block belong to one row (`SHMEM_TOTAL_RED`).
    SharedTotal,
}

/// The complete reduction plan assembled by the implementing stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reduction {
    /// Register-level strategy of each thread.
    pub thread: ThreadReduction,
    /// Optional warp-level combination of thread partials.
    pub warp: Option<WarpReduction>,
    /// Optional block-level combination in shared memory.
    pub block: Option<BlockReduction>,
    /// Whether partial results are finally added to `y` with global atomics.
    pub global_atomic: bool,
}

impl Reduction {
    /// The default plan: every thread owns whole rows and writes directly.
    pub fn thread_direct() -> Self {
        Reduction {
            thread: ThreadReduction::Total,
            warp: None,
            block: None,
            global_atomic: false,
        }
    }

    /// True if the plan can correctly combine partial sums of a row that is
    /// split across threads *within one warp*.
    pub fn handles_row_split_across_warp(&self) -> bool {
        self.warp.is_some() || self.block.is_some() || self.global_atomic
    }

    /// True if the plan can correctly combine partial sums of a row that is
    /// split across warps or thread blocks.
    pub fn handles_row_split_across_blocks(&self) -> bool {
        self.block.is_some() || self.global_atomic
    }
}

/// The resolved design of one partition (branch) of the operator graph.
/// Equality is by value, field by field (the streams are compared, not their
/// addresses).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Maps local row index (in the reordered sub-matrix) to the original row
    /// id of the input matrix; the `origin_rows` array of Figure 5.  Shared
    /// with every plan designed on the same conversion.
    pub origin_rows: Arc<[u32]>,
    /// The partition's sub-matrix with rows already permuted into their final
    /// order (and columns restricted when `COL_DIV` was applied).  Shared
    /// with every plan designed on the same conversion, and with the kernels
    /// built from them.
    pub matrix: Arc<CsrMatrix>,
    /// Column offset of this partition in the original matrix (non-zero only
    /// for `COL_DIV` branches, whose local column 0 is this original column).
    pub col_offset: usize,
    /// Thread-level work distribution.
    pub mapping: Mapping,
    /// Rows grouped into one thread block by `BMTB_ROW_BLOCK` (if used).
    pub rows_per_bmtb: Option<usize>,
    /// Rows grouped into one warp by `BMW_ROW_BLOCK` (if used).
    pub rows_per_bmw: Option<usize>,
    /// Padding directive (if any `*_PAD` operator was applied).
    pub padding: Option<Padding>,
    /// True if thread chunks are stored interleaved (column-major within the
    /// block) for coalescing.
    pub interleaved: bool,
    /// True if rows are re-sorted by length within each thread block.
    pub sort_bmtb: bool,
    /// Row indices (in the local order) where `BIN` bin boundaries fall.
    pub bin_boundaries: Option<Vec<usize>>,
    /// Reduction plan.
    pub reduction: Reduction,
    /// Threads per block chosen by `SET_RESOURCES`.
    pub threads_per_block: usize,
    /// Resolved vectorization directive.  The Designer writes
    /// `SimdPlan::scalar()`; only the host's loop selection, or a recorded
    /// loop label replayed onto the plan, fills in anything else.
    pub simd: SimdPlan,
    /// True if this partition was produced by `COL_DIV` and therefore shares
    /// output rows with sibling partitions.
    pub shares_rows_with_siblings: bool,
    /// The operators that produced this partition, in execution order
    /// (provenance used for display and source emission).
    pub operators: Vec<Operator>,
}

impl PartitionPlan {
    /// Number of local rows in the partition.
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of non-zeros in the partition.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    /// A compact single-line description (operator chain).
    pub fn describe(&self) -> String {
        self.operators
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// The Designer's output: the original matrix dimensions plus one resolved
/// plan per partition.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixMetadataSet {
    /// Rows of the original matrix.
    pub original_rows: usize,
    /// Columns of the original matrix.
    pub original_cols: usize,
    /// Non-zeros of the original matrix.
    pub original_nnz: usize,
    /// One plan per branch of the operator graph.
    pub partitions: Vec<PartitionPlan>,
}

impl MatrixMetadataSet {
    /// Total non-zeros across partitions (equals the original nnz; padding is
    /// not counted here).
    pub fn total_partition_nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.nnz()).sum()
    }

    /// True if any partition's plan branches (more than one partition), the
    /// situation the paper reports for 16.5 % of its winning designs.
    pub fn is_branched(&self) -> bool {
        self.partitions.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_row_split_classification() {
        assert!(!Mapping::RowPerThread { rows_per_thread: 2 }.splits_rows_across_threads());
        assert!(Mapping::VectorPerRow { threads_per_row: 4 }.splits_rows_across_threads());
        assert!(Mapping::NnzSplit { nnz_per_thread: 16 }.splits_rows_across_threads());
    }

    #[test]
    fn reduction_capabilities() {
        let direct = Reduction::thread_direct();
        assert!(!direct.handles_row_split_across_warp());
        assert!(!direct.handles_row_split_across_blocks());

        let warp = Reduction {
            warp: Some(WarpReduction::Segmented),
            ..Reduction::thread_direct()
        };
        assert!(warp.handles_row_split_across_warp());
        assert!(!warp.handles_row_split_across_blocks());

        let atomic = Reduction {
            global_atomic: true,
            ..Reduction::thread_direct()
        };
        assert!(atomic.handles_row_split_across_warp());
        assert!(atomic.handles_row_split_across_blocks());

        let block = Reduction {
            block: Some(BlockReduction::SharedOffset),
            ..Reduction::thread_direct()
        };
        assert!(block.handles_row_split_across_blocks());
    }

    #[test]
    fn simd_plan_defaults_are_scalar() {
        let plan = SimdPlan::default();
        assert_eq!(plan, SimdPlan::scalar());
        assert!(!plan.is_vectorized());
        assert!(SimdPlan {
            lanes: 4,
            lane_mapping: SimdLaneMapping::Rows,
        }
        .is_vectorized());
    }

    #[test]
    fn partition_plan_describe_lists_operators() {
        let matrix = alpha_matrix::gen::uniform_random(8, 8, 2, 1);
        let plan = PartitionPlan {
            origin_rows: (0..8).collect(),
            matrix: Arc::new(matrix),
            col_offset: 0,
            mapping: Mapping::RowPerThread { rows_per_thread: 1 },
            rows_per_bmtb: None,
            rows_per_bmw: None,
            padding: None,
            interleaved: false,
            sort_bmtb: false,
            bin_boundaries: None,
            reduction: Reduction::thread_direct(),
            threads_per_block: 128,
            simd: SimdPlan::scalar(),
            shares_rows_with_siblings: false,
            operators: vec![Operator::Compress, Operator::BmtRowBlock { rows: 1 }],
        };
        let desc = plan.describe();
        assert!(desc.contains("COMPRESS"));
        assert!(desc.contains("BMT_ROW_BLOCK"));
        assert_eq!(plan.rows(), 8);
        assert_eq!(plan.nnz(), 16);
    }
}
