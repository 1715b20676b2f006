//! The operator catalogue (paper Table II).
//!
//! Operators are fine-grained SpMV design strategies extracted from existing
//! formats and kernels.  Each operator belongs to one of three stages —
//! converting, mapping, implementing — and carries its quantitative
//! parameters.  An [`crate::OperatorGraph`] composes them into a complete
//! SpMV design.

/// Design stage an operator belongs to (paper Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Defines the compressed memory layout (format).
    Converting,
    /// Distributes the matrix over thread blocks, warps and threads.
    Mapping,
    /// Chooses reduction strategies and runtime resources.
    Implementing,
}

/// One design strategy, with its parameters.
///
/// The `BMTB` / `BMW` / `BMT` prefixes follow the paper: "a block mapped to a
/// thread block / warp / thread".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operator {
    // ---- Converting stage --------------------------------------------------
    /// Divide the matrix into `parts` row bands, each designed separately
    /// (creates branches in the graph).
    RowDiv {
        /// Number of row bands.
        parts: usize,
    },
    /// Divide the matrix into `parts` column bands.  Every band produces
    /// partial sums for the same output rows, so all branches must reduce to
    /// global memory atomically.
    ColDiv {
        /// Number of column bands.
        parts: usize,
    },
    /// Sort rows in decreasing order of row length (whole matrix).
    Sort,
    /// Sort rows in decreasing order of row length within each partition.
    SortSub,
    /// Put rows into `bins` bins by row length (ACSR-style), reordering rows
    /// so that each bin is contiguous.
    Bin {
        /// Number of row-length bins.
        bins: usize,
    },
    /// Ignore all zeros of the sparse matrix (mandatory first step of every
    /// graph; corresponds to building the compressed non-zero stream).
    Compress,

    // ---- Mapping stage -----------------------------------------------------
    /// Assign `rows` consecutive rows to each thread block.
    BmtbRowBlock {
        /// Rows per thread block.
        rows: usize,
    },
    /// Assign `rows` consecutive rows to each warp.
    BmwRowBlock {
        /// Rows per warp.
        rows: usize,
    },
    /// Assign `rows` consecutive rows to each thread.
    BmtRowBlock {
        /// Rows per thread.
        rows: usize,
    },
    /// Split each row across `threads_per_row` threads (CSR-vector style
    /// column blocking at thread level).
    BmtColBlock {
        /// Threads cooperating on one row.
        threads_per_row: usize,
    },
    /// Map `nnz` consecutive non-zeros to each thread regardless of row
    /// boundaries (CSR5 / merge style).
    BmtNnzBlock {
        /// Non-zeros per thread.
        nnz: usize,
    },
    /// Pad every thread block's rows to a multiple of `multiple` non-zeros.
    BmtbPad {
        /// Padding granularity.
        multiple: usize,
    },
    /// Pad every warp's rows to a multiple of `multiple` non-zeros.
    BmwPad {
        /// Padding granularity.
        multiple: usize,
    },
    /// Pad every thread's chunk to a multiple of `multiple` non-zeros
    /// (ELL/SELL-style regularisation).
    BmtPad {
        /// Padding granularity.
        multiple: usize,
    },
    /// Sort rows by length within each thread block (reduces padding without
    /// a global sort).
    SortBmtb,
    /// Store thread chunks interleaved (column-major within the block) so
    /// that warp lanes read consecutive memory.
    InterleavedStorage,

    // ---- Implementing stage ------------------------------------------------
    /// Set runtime configuration: threads per block.
    SetResources {
        /// Threads per block (must be a multiple of the warp size).
        threads_per_block: usize,
    },
    /// Atomically add intermediate results to `y` in global memory.
    GmemAtomRed,
    /// Reduce intermediate results of multiple rows in shared memory using
    /// CSR-like row offsets (CSR-Adaptive / CSR-Stream style).
    ShmemOffsetRed,
    /// Reduce all intermediate results of a thread block to a single row in
    /// shared memory.
    ShmemTotalRed,
    /// Reduce all intermediate results of a warp to one row (CSR-Vector
    /// style warp reduction).
    WarpTotalRed,
    /// Reduce a warp's intermediate results by rows using a bitmap of row
    /// boundaries.
    WarpBitmapRed,
    /// Reduce a warp's intermediate results by rows using a segmented sum.
    WarpSegRed,
    /// Each thread accumulates its chunk into a single row result in a
    /// register.
    ThreadTotalRed,
    /// Each thread serially reduces its chunk by rows, using a bitmap to mark
    /// row boundaries (needed when thread chunks cross rows).
    ThreadBitmapRed,
}

impl Operator {
    /// The stage this operator belongs to.
    pub fn stage(&self) -> Stage {
        use Operator::*;
        match self {
            RowDiv { .. } | ColDiv { .. } | Sort | SortSub | Bin { .. } | Compress => {
                Stage::Converting
            }
            BmtbRowBlock { .. }
            | BmwRowBlock { .. }
            | BmtRowBlock { .. }
            | BmtColBlock { .. }
            | BmtNnzBlock { .. }
            | BmtbPad { .. }
            | BmwPad { .. }
            | BmtPad { .. }
            | SortBmtb
            | InterleavedStorage => Stage::Mapping,
            SetResources { .. }
            | GmemAtomRed
            | ShmemOffsetRed
            | ShmemTotalRed
            | WarpTotalRed
            | WarpBitmapRed
            | WarpSegRed
            | ThreadTotalRed
            | ThreadBitmapRed => Stage::Implementing,
        }
    }

    /// Canonical upper-case name, matching the paper's Table II spelling.
    pub fn name(&self) -> &'static str {
        use Operator::*;
        match self {
            RowDiv { .. } => "ROW_DIV",
            ColDiv { .. } => "COL_DIV",
            Sort => "SORT",
            SortSub => "SORT_SUB",
            Bin { .. } => "BIN",
            Compress => "COMPRESS",
            BmtbRowBlock { .. } => "BMTB_ROW_BLOCK",
            BmwRowBlock { .. } => "BMW_ROW_BLOCK",
            BmtRowBlock { .. } => "BMT_ROW_BLOCK",
            BmtColBlock { .. } => "BMT_COL_BLOCK",
            BmtNnzBlock { .. } => "BMT_NNZ_BLOCK",
            BmtbPad { .. } => "BMTB_PAD",
            BmwPad { .. } => "BMW_PAD",
            BmtPad { .. } => "BMT_PAD",
            SortBmtb => "SORT_BMTB",
            InterleavedStorage => "INTERLEAVED_STORAGE",
            SetResources { .. } => "SET_RESOURCES",
            GmemAtomRed => "GMEM_ATOM_RED",
            ShmemOffsetRed => "SHMEM_OFFSET_RED",
            ShmemTotalRed => "SHMEM_TOTAL_RED",
            WarpTotalRed => "WARP_TOTAL_RED",
            WarpBitmapRed => "WARP_BITMAP_RED",
            WarpSegRed => "WARP_SEG_RED",
            ThreadTotalRed => "THREAD_TOTAL_RED",
            ThreadBitmapRed => "THREAD_BITMAP_RED",
        }
    }

    /// Human-designed formats the operator's strategy is derived from
    /// (the "Source" column of Table II); informational only.
    pub fn source_formats(&self) -> &'static [&'static str] {
        use Operator::*;
        match self {
            RowDiv { .. } | ColDiv { .. } => &["ESB", "scale-free SpMV"],
            Sort => &["SELL", "JAD"],
            SortSub => &["SELL-sigma", "BiELL"],
            Bin { .. } => &["ACSR", "auto-tuning SpMV"],
            Compress => &["cuSPARSE"],
            BmtbRowBlock { .. } | BmwRowBlock { .. } | BmtRowBlock { .. } => {
                &["SELL-C-sigma", "BiELL", "2D blocking"]
            }
            BmtColBlock { .. } => &["CSR-Vector", "AdELL"],
            BmtNnzBlock { .. } => &["CSR5", "yaSpMV", "merge-based CSR"],
            BmtbPad { .. } | BmwPad { .. } | BmtPad { .. } => &["ELLPACK", "SELL-P"],
            SortBmtb => &["SELL-C-sigma"],
            InterleavedStorage => &["ELLPACK", "SELL"],
            SetResources { .. } => &[],
            GmemAtomRed => &["row-grouped CSR", "SCOO"],
            ShmemOffsetRed => &["CSR-Adaptive", "CSR-Stream", "merge-based CSR"],
            ShmemTotalRed => &["CSR-Adaptive", "ACSR"],
            WarpTotalRed => &["CSR-Vector", "LightSpMV"],
            WarpBitmapRed => &["AdELL"],
            WarpSegRed => &["CSR5", "segmented scan SpMV"],
            ThreadTotalRed => &["ACSR", "AdELL", "CSR-scalar"],
            ThreadBitmapRed => &["CSR5", "yaSpMV"],
        }
    }

    /// The full catalogue with representative default parameters; this is the
    /// set the search engine's graph enumeration draws from.
    pub fn catalogue() -> Vec<Operator> {
        use Operator::*;
        vec![
            RowDiv { parts: 2 },
            ColDiv { parts: 2 },
            Sort,
            SortSub,
            Bin { bins: 4 },
            Compress,
            BmtbRowBlock { rows: 64 },
            BmwRowBlock { rows: 32 },
            BmtRowBlock { rows: 1 },
            BmtColBlock { threads_per_row: 4 },
            BmtNnzBlock { nnz: 8 },
            BmtbPad { multiple: 32 },
            BmwPad { multiple: 32 },
            BmtPad { multiple: 4 },
            SortBmtb,
            InterleavedStorage,
            SetResources {
                threads_per_block: 128,
            },
            GmemAtomRed,
            ShmemOffsetRed,
            ShmemTotalRed,
            WarpTotalRed,
            WarpBitmapRed,
            WarpSegRed,
            ThreadTotalRed,
            ThreadBitmapRed,
        ]
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use Operator::*;
        match self {
            RowDiv { parts } | ColDiv { parts } => write!(f, "{}(parts={})", self.name(), parts),
            Bin { bins } => write!(f, "{}(bins={})", self.name(), bins),
            BmtbRowBlock { rows } | BmwRowBlock { rows } | BmtRowBlock { rows } => {
                write!(f, "{}(rows={})", self.name(), rows)
            }
            BmtColBlock { threads_per_row } => {
                write!(f, "{}(threads_per_row={})", self.name(), threads_per_row)
            }
            BmtNnzBlock { nnz } => write!(f, "{}(nnz={})", self.name(), nnz),
            BmtbPad { multiple } | BmwPad { multiple } | BmtPad { multiple } => {
                write!(f, "{}(multiple={})", self.name(), multiple)
            }
            SetResources { threads_per_block } => {
                write!(f, "{}(tpb={})", self.name(), threads_per_block)
            }
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_all_paper_operators() {
        let catalogue = Operator::catalogue();
        // Table II lists 6 converting, 10 mapping (counting the three PADs and
        // three row/col blocks separately, plus NNZ block, SORT_BMTB and the
        // interleaved-storage layout used by Figure 14), and 9 implementing.
        assert_eq!(catalogue.len(), 25);
        let converting = catalogue
            .iter()
            .filter(|o| o.stage() == Stage::Converting)
            .count();
        let mapping = catalogue
            .iter()
            .filter(|o| o.stage() == Stage::Mapping)
            .count();
        let implementing = catalogue
            .iter()
            .filter(|o| o.stage() == Stage::Implementing)
            .count();
        assert_eq!(converting, 6);
        assert_eq!(mapping, 10);
        assert_eq!(implementing, 9);
        assert_eq!(converting + mapping + implementing, catalogue.len());
    }

    #[test]
    fn names_are_unique_and_uppercase() {
        let catalogue = Operator::catalogue();
        let mut names: Vec<_> = catalogue.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_uppercase() || c == '_')));
    }

    #[test]
    fn display_includes_parameters() {
        assert_eq!(
            Operator::BmtPad { multiple: 4 }.to_string(),
            "BMT_PAD(multiple=4)"
        );
        assert_eq!(Operator::Compress.to_string(), "COMPRESS");
        assert_eq!(
            Operator::SetResources {
                threads_per_block: 256
            }
            .to_string(),
            "SET_RESOURCES(tpb=256)"
        );
    }

    #[test]
    fn reduction_operators_cite_their_source_formats() {
        assert!(Operator::WarpSegRed.source_formats().contains(&"CSR5"));
        assert!(Operator::ShmemOffsetRed
            .source_formats()
            .contains(&"CSR-Adaptive"));
        assert!(Operator::GmemAtomRed
            .source_formats()
            .contains(&"row-grouped CSR"));
    }

    #[test]
    fn stages_partition_the_catalogue() {
        for op in Operator::catalogue() {
            // every operator belongs to exactly one stage (stage() is total)
            let _ = op.stage();
        }
    }
}
