//! `alpha-graph` — the Operator Graph IR, Matrix Metadata Set and Designer of
//! the AlphaSparse reproduction (paper Section IV and V-A).
//!
//! An SpMV program is modelled as an **Operator Graph**: a chain of
//! *converting* operators that reshape the matrix (sorting, binning,
//! partitioning), followed — per partition — by *mapping* operators that
//! distribute non-zeros over thread blocks, warps and threads, and
//! *implementing* operators that pick the reduction strategy and runtime
//! resources.  The catalogue of operators mirrors the paper's Table II.
//!
//! The [`designer`] executes an operator graph over a sparse matrix and
//! produces a [`metadata::MatrixMetadataSet`]: the fully-resolved description
//! of the machine-designed format from which the Format & Kernel Generator
//! (`alpha-codegen`) extracts arrays and builds the kernel.  A
//! [`Designer`] kept alive across the graphs of one search converts the
//! matrix once per distinct converting chain and shares the result.

pub mod designer;
pub mod graph;
pub mod metadata;
pub mod operator;
pub mod params;
pub mod presets;

pub use designer::{design, DesignError, Designer, DesignerStats};
pub use graph::{OperatorGraph, ValidationError};
pub use metadata::{
    BlockReduction, Mapping, MatrixMetadataSet, PadScope, Padding, PartitionPlan, Reduction,
    SimdLaneMapping, SimdPlan, ThreadReduction, WarpReduction,
};
pub use operator::{Operator, Stage};
