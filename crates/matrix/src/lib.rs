//! `alpha-matrix` — the sparse-matrix substrate of the AlphaSparse reproduction.
//!
//! The crate provides:
//!
//! * the four *root formats* the paper builds on — [`CooMatrix`], [`CsrMatrix`],
//!   [`EllMatrix`] and [`DiaMatrix`] — plus [`CscMatrix`] for column-oriented
//!   access,
//! * a Matrix Market (`.mtx`) reader/writer ([`mm`]),
//! * matrix statistics used throughout the paper's evaluation — average row
//!   length, row-length variance, the regular/irregular classification
//!   ([`stats`]),
//! * the workspace's fast content hash ([`hash`]), behind
//!   [`CsrMatrix::fingerprint`], and the BLAKE2b-256 behind
//!   [`CsrMatrix::digest`], for where a digest stands in for the content,
//! * synthetic matrix generators that stand in for the SuiteSparse Matrix
//!   Collection ([`gen`]) and the named corpus used by the evaluation
//!   ([`suite`]).
//!
//! All numeric values are single precision ([`Scalar`] = `f32`), matching the
//! experimental setup of the paper.

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
mod digest;
pub mod ell;
pub mod gen;
pub mod hash;
pub mod mm;
pub mod stats;
pub mod suite;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::{max_scaled_error, within_tolerance, DenseVector};
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use hash::ContentHasher;
pub use stats::MatrixStats;

/// Scalar element type used across the workspace.  The paper evaluates in
/// single precision, so we do too.
pub type Scalar = f32;

/// Threshold on the row-length variance above which the paper classifies a
/// matrix as *irregular* (Section I, Problem 2).
pub const IRREGULARITY_VARIANCE_THRESHOLD: f64 = 100.0;

/// Errors produced while constructing or parsing matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// An entry's row or column index is outside the declared dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        rows: usize,
        /// Number of columns in the matrix.
        cols: usize,
    },
    /// A CSR/CSC offset array is malformed (not monotone, wrong length, ...).
    MalformedOffsets(String),
    /// The Matrix Market header or body could not be parsed.
    Parse(String),
    /// A dimension mismatch between operands (e.g. SpMV with a wrong-sized x).
    DimensionMismatch(String),
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "entry ({row}, {col}) out of bounds for a {rows}x{cols} matrix"
            ),
            MatrixError::MalformedOffsets(msg) => write!(f, "malformed offsets: {msg}"),
            MatrixError::Parse(msg) => write!(f, "parse error: {msg}"),
            MatrixError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_mentions_indices() {
        let e = MatrixError::IndexOutOfBounds {
            row: 3,
            col: 7,
            rows: 2,
            cols: 2,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7') && s.contains("2x2"));
    }

    #[test]
    fn irregularity_threshold_matches_paper() {
        assert_eq!(IRREGULARITY_VARIANCE_THRESHOLD, 100.0);
    }
}
