//! COOrdinate (COO) root format: parallel arrays of `(row, col, value)`
//! triplets.  COO is the interchange format of the workspace — every other
//! format and the Matrix Market reader go through it.

use crate::{MatrixError, Result, Scalar};

/// A sparse matrix stored as coordinate triplets.
///
/// Entries are not required to be sorted or deduplicated;
/// [`CsrMatrix::from_coo`](crate::CsrMatrix::from_coo) sorts them and sums
/// duplicates.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<Scalar>,
}

impl CooMatrix {
    /// Creates an empty matrix with the given dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row_indices: Vec::new(),
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates a matrix from triplet arrays, validating index bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        row_indices: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<Scalar>,
    ) -> Result<Self> {
        if row_indices.len() != col_indices.len() || row_indices.len() != values.len() {
            return Err(MatrixError::Parse(format!(
                "triplet arrays have inconsistent lengths: {} rows, {} cols, {} values",
                row_indices.len(),
                col_indices.len(),
                values.len()
            )));
        }
        for (&r, &c) in row_indices.iter().zip(&col_indices) {
            if r as usize >= rows || c as usize >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r as usize,
                    col: c as usize,
                    rows,
                    cols,
                });
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        })
    }

    /// Appends one entry.  Panics if the entry is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: Scalar) {
        assert!(
            row < self.rows && col < self.cols,
            "entry ({row}, {col}) out of bounds"
        );
        self.row_indices.push(row as u32);
        self.col_indices.push(col as u32);
        self.values.push(value);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (including any duplicates).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row index array.
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Column index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Value array.
    pub fn values(&self) -> &[Scalar] {
        &self.values
    }

    /// Iterates over `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Scalar)> + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Reference sequential SpMV: `y = A * x`.  Used as the ground truth in
    /// tests of every generated kernel.
    pub fn spmv(&self, x: &[Scalar]) -> Result<Vec<Scalar>> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch(format!(
                "x has length {}, expected {}",
                x.len(),
                self.cols
            )));
        }
        let mut y = vec![0.0; self.rows];
        for ((&r, &c), &v) in self
            .row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
        {
            y[r as usize] += v * x[c as usize];
        }
        Ok(y)
    }

    /// Length (number of stored entries) of each row.
    pub fn row_lengths(&self) -> Vec<usize> {
        let mut lengths = vec![0usize; self.rows];
        for &r in &self.row_indices {
            lengths[r as usize] += 1;
        }
        lengths
    }

    /// Builds a dense representation; intended for tests on tiny matrices only.
    pub fn to_dense(&self) -> Vec<Vec<Scalar>> {
        let mut dense = vec![vec![0.0; self.cols]; self.rows];
        for (r, c, v) in self.iter() {
            dense[r][c] += v;
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        // 3x4 matrix:
        // [1 0 2 0]
        // [0 3 0 0]
        // [4 0 5 6]
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 0, 1.0);
        m.push(2, 3, 6.0);
        m.push(0, 2, 2.0);
        m.push(1, 1, 3.0);
        m.push(2, 0, 4.0);
        m.push(2, 2, 5.0);
        m
    }

    #[test]
    fn dimensions_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 6);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        let err = CooMatrix::from_triplets(2, 2, vec![0, 5], vec![0, 0], vec![1.0, 1.0]);
        assert!(matches!(err, Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_triplets_rejects_ragged_arrays() {
        let err = CooMatrix::from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(err, Err(MatrixError::Parse(_))));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = m.spmv(&x).unwrap();
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0 + 24.0]);
    }

    #[test]
    fn spmv_rejects_wrong_x() {
        let m = sample();
        assert!(m.spmv(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn row_lengths_counts_entries() {
        let m = sample();
        assert_eq!(m.row_lengths(), vec![2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut m = CooMatrix::new(1, 1);
        m.push(1, 0, 1.0);
    }
}
