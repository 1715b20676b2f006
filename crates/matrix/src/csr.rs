//! Compressed Sparse Row (CSR) root format.  CSR is the canonical input of
//! every baseline kernel and of the AlphaSparse Designer (whose `COMPRESS`
//! operator produces exactly the information CSR carries).

use crate::coo::CooMatrix;
use crate::{MatrixError, Result, Scalar};
use std::sync::{Arc, OnceLock};

/// A sparse matrix in CSR form: `row_offsets` (length `rows + 1`),
/// `col_indices` and `values` (length `nnz`), with entries of each row stored
/// contiguously and sorted by column.
///
/// Immutable after construction (there is no `&mut` accessor), which is what
/// lets [`CsrMatrix::fingerprint`], [`CsrMatrix::digest`] and
/// [`CsrMatrix::column_runs`] be computed once and remembered, and what lets
/// clones share one allocation: the streams move into an `Arc` when the
/// matrix is built and are never copied, so `clone` is O(1) and every clone
/// reads the same streams and the same memos.
#[derive(Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    streams: Arc<Streams>,
}

/// What every clone of one matrix shares.
struct Streams {
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<Scalar>,
    /// Memo of [`CsrMatrix::fingerprint`]: a cache of the answer, never part
    /// of the matrix's identity (`==` ignores it, clones share it).
    fingerprint: OnceLock<u64>,
    /// Memo of [`CsrMatrix::digest`], on the same terms.
    digest: OnceLock<[u8; 32]>,
    /// Memo of [`CsrMatrix::column_runs`], on the same terms.
    column_runs: OnceLock<Option<Box<[u32]>>>,
}

impl std::fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_offsets", &self.streams.row_offsets)
            .field("col_indices", &self.streams.col_indices)
            .field("values", &self.streams.values)
            .finish()
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        // Clones of one matrix share its streams: equal without a compare,
        // even where a NaN value would compare unequal element by element.
        if Arc::ptr_eq(&self.streams, &other.streams) {
            return true;
        }
        let (a, b) = (&*self.streams, &*other.streams);
        self.rows == other.rows
            && self.cols == other.cols
            && a.row_offsets == b.row_offsets
            && a.col_indices == b.col_indices
            && a.values == b.values
    }
}

impl CsrMatrix {
    /// Moves validated streams into a matrix's shared allocation.
    fn from_streams(
        rows: usize,
        cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<Scalar>,
    ) -> Self {
        CsrMatrix {
            rows,
            cols,
            streams: Arc::new(Streams {
                row_offsets,
                col_indices,
                values,
                fingerprint: OnceLock::new(),
                digest: OnceLock::new(),
                column_runs: OnceLock::new(),
            }),
        }
    }

    /// Builds a CSR matrix from raw arrays, validating their invariants.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<Scalar>,
    ) -> Result<Self> {
        if row_offsets.len() != rows + 1 {
            return Err(MatrixError::MalformedOffsets(format!(
                "row_offsets has length {}, expected {}",
                row_offsets.len(),
                rows + 1
            )));
        }
        if row_offsets.first() != Some(&0) {
            return Err(MatrixError::MalformedOffsets(
                "row_offsets must start at 0".into(),
            ));
        }
        if row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(MatrixError::MalformedOffsets(
                "row_offsets must be non-decreasing".into(),
            ));
        }
        let nnz = *row_offsets.last().expect("len >= 1") as usize;
        if col_indices.len() != nnz || values.len() != nnz {
            return Err(MatrixError::MalformedOffsets(format!(
                "nnz {} does not match col_indices {} / values {}",
                nnz,
                col_indices.len(),
                values.len()
            )));
        }
        if let Some(&c) = col_indices.iter().find(|&&c| c as usize >= cols) {
            return Err(MatrixError::IndexOutOfBounds {
                row: 0,
                col: c as usize,
                rows,
                cols,
            });
        }
        Ok(Self::from_streams(
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        ))
    }

    /// Converts from COO, sorting each row by column and summing duplicate
    /// entries.  O(nnz + rows), with no copy of the COO: one stable counting
    /// sort by row writes straight into the output arrays, a row is sorted by
    /// column (stably) only when it is not already strictly increasing, and
    /// duplicates are summed in place.  Duplicates add up in push order,
    /// first value first; f32 addition is order-sensitive, so that order is
    /// part of the result's bits.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let nnz = coo.nnz();
        let mut row_offsets = vec![0u32; rows + 1];
        for &r in coo.row_indices() {
            row_offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        let mut col_indices = vec![0u32; nnz];
        let mut values: Vec<Scalar> = vec![0.0; nnz];
        let mut next = row_offsets[..rows].to_vec();
        for ((&r, &c), &v) in coo
            .row_indices()
            .iter()
            .zip(coo.col_indices())
            .zip(coo.values())
        {
            let slot = &mut next[r as usize];
            col_indices[*slot as usize] = c;
            values[*slot as usize] = v;
            *slot += 1;
        }

        // Row by row, left to right: `start..end` is the row as scattered,
        // `write` the end of what is already compacted (never past `start`).
        let mut scratch: Vec<(u32, Scalar)> = Vec::new();
        let mut start = 0;
        let mut write = 0;
        for row in 0..rows {
            let end = row_offsets[row + 1] as usize;
            if col_indices[start..end].windows(2).all(|w| w[0] < w[1]) {
                if write < start {
                    col_indices.copy_within(start..end, write);
                    values.copy_within(start..end, write);
                }
                write += end - start;
            } else {
                scratch.clear();
                scratch.extend(
                    col_indices[start..end]
                        .iter()
                        .copied()
                        .zip(values[start..end].iter().copied()),
                );
                scratch.sort_by_key(|&(c, _)| c);
                let row_start = write;
                for &(c, v) in &scratch {
                    if write > row_start && col_indices[write - 1] == c {
                        values[write - 1] += v;
                    } else {
                        col_indices[write] = c;
                        values[write] = v;
                        write += 1;
                    }
                }
            }
            row_offsets[row + 1] = write as u32;
            start = end;
        }
        col_indices.truncate(write);
        col_indices.shrink_to_fit();
        values.truncate(write);
        values.shrink_to_fit();
        Self::from_streams(rows, coo.cols(), row_offsets, col_indices, values)
    }

    /// Converts back to COO triplets (row-major order).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for row in 0..self.rows {
            for idx in self.row_range(row) {
                coo.push(row, self.col_indices()[idx] as usize, self.values()[idx]);
            }
        }
        coo
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        *self.row_offsets().last().expect("offsets non-empty") as usize
    }

    /// Row offset array (`rows + 1` entries).
    pub fn row_offsets(&self) -> &[u32] {
        &self.streams.row_offsets
    }

    /// Column index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.streams.col_indices
    }

    /// Value array.
    pub fn values(&self) -> &[Scalar] {
        &self.streams.values
    }

    /// Index range of row `row` into `col_indices` / `values`.
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        let offsets = self.row_offsets();
        offsets[row] as usize..offsets[row + 1] as usize
    }

    /// Number of stored entries in row `row`.
    pub fn row_len(&self, row: usize) -> usize {
        let offsets = self.row_offsets();
        (offsets[row + 1] - offsets[row]) as usize
    }

    /// Length of each row.
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_len(r)).collect()
    }

    /// The longest row length (0 for an empty matrix).
    pub fn max_row_len(&self) -> usize {
        (0..self.rows).map(|r| self.row_len(r)).max().unwrap_or(0)
    }

    /// True if the matrix has at least one row with no stored entries.
    pub fn has_empty_rows(&self) -> bool {
        (0..self.rows).any(|r| self.row_len(r) == 0)
    }

    /// Reference sequential SpMV: `y = A * x`.
    pub fn spmv(&self, x: &[Scalar]) -> Result<Vec<Scalar>> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch(format!(
                "x has length {}, expected {}",
                x.len(),
                self.cols
            )));
        }
        let (col_indices, values) = (self.col_indices(), self.values());
        let mut y = vec![0.0; self.rows];
        for (row, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_range(row) {
                acc += values[idx] * x[col_indices[idx] as usize];
            }
            *out = acc;
        }
        Ok(y)
    }

    /// Extracts the sub-matrix consisting of the given rows, in the given
    /// order.  Used by the `ROW_DIV`, `SORT` and `BIN` operators.  Every
    /// row in its own place is the matrix itself: a clone, sharing the
    /// streams.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        if rows.len() == self.rows && rows.iter().enumerate().all(|(i, &r)| i == r) {
            return self.clone();
        }
        // One exact reservation, then one slice copy per row: the Designer
        // calls this on megabyte-sized matrices for every conversion.
        let nnz: usize = rows.iter().map(|&r| self.row_len(r)).sum();
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        row_offsets.push(0u32);
        let mut col_indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let range = self.row_range(r);
            col_indices.extend_from_slice(&self.col_indices()[range.clone()]);
            values.extend_from_slice(&self.values()[range]);
            row_offsets.push(col_indices.len() as u32);
        }
        Self::from_streams(rows.len(), self.cols, row_offsets, col_indices, values)
    }

    /// Memory footprint of the format arrays in bytes (used by the cost model
    /// when estimating memory traffic of format metadata).
    pub fn format_bytes(&self) -> usize {
        4 * (self.row_offsets().len() + self.col_indices().len() + self.values().len())
    }

    /// A 64-bit fingerprint of the full matrix content — dimensions, row
    /// offsets, column indices and value bits, in that order, through the
    /// workspace's [`ContentHasher`](crate::ContentHasher).  Two matrices
    /// with equal fingerprints are (up to hash collision) identical, so the
    /// fingerprint identifies the matrix in the search engine's evaluation
    /// cache — and, through the context keys built on it, in durable design
    /// stores, so its value changes only together with the store layout
    /// version (`alpha_serve::STORE_LAYOUT_VERSION`).  The same on every
    /// host and in every build.  One memory-speed pass on the first call;
    /// the result is memoised in the matrix (and shared by its clones).
    pub fn fingerprint(&self) -> u64 {
        *self
            .streams
            .fingerprint
            .get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        crate::hash::csr_fingerprint(
            self.rows,
            self.cols,
            self.row_offsets(),
            self.col_indices(),
            self.values(),
        )
    }

    /// The BLAKE2b-256 digest of the full matrix content — dimensions, row
    /// offsets, column indices and value bits.  Unlike the
    /// [fingerprint](CsrMatrix::fingerprint), which only identifies content
    /// where a collision costs time, the digest can stand in for the content
    /// itself: finding two matrices with one digest is as hard as a
    /// BLAKE2b-256 collision.  A client names a matrix to a daemon by it
    /// instead of sending it.  The same on every host and in every build;
    /// about 2 ms per megabyte on the first call, then memoised in the
    /// matrix (and shared by its clones).
    pub fn digest(&self) -> [u8; 32] {
        *self.streams.digest.get_or_init(|| {
            crate::digest::csr_digest(
                self.rows,
                self.cols,
                self.row_offsets(),
                self.col_indices(),
                self.values(),
            )
        })
    }

    /// When every row's columns are one contiguous run `s, s + 1, …` (an
    /// empty row is one), the start column `s` of each row, 0 for an empty
    /// row; `None` otherwise.  A duplicate, an unsorted pair or a gap in any
    /// row makes it `None`, and the scan stops at the first such row.  This
    /// is Model-Driven Format Compression applied to the column stream: a
    /// kernel that reads the starts needs no column index per non-zero.  One
    /// pass over the column indices on the first call; the result is memoised
    /// in the matrix (and shared by its clones), so every kernel lowered on
    /// one allocation reads one table.
    pub fn column_runs(&self) -> Option<&[u32]> {
        self.streams
            .column_runs
            .get_or_init(|| {
                let mut starts = Vec::with_capacity(self.rows);
                for row in 0..self.rows {
                    let cols = &self.col_indices()[self.row_range(row)];
                    let start = cols.first().copied().unwrap_or(0);
                    let run = cols
                        .iter()
                        .enumerate()
                        .all(|(k, &c)| c as usize == start as usize + k);
                    if !run {
                        return None;
                    }
                    starts.push(start);
                }
                Some(starts.into_boxed_slice())
            })
            .as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        let mut m = CooMatrix::new(4, 5);
        m.push(0, 0, 1.0);
        m.push(0, 4, 2.0);
        m.push(1, 2, 3.0);
        m.push(3, 0, 4.0);
        m.push(3, 1, 5.0);
        m.push(3, 4, 6.0);
        m
    }

    #[test]
    fn from_coo_roundtrip() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.row_offsets(), &[0, 2, 3, 3, 6]);
        let back = csr.to_coo();
        assert_eq!(back.to_dense(), coo.to_dense());
    }

    #[test]
    fn spmv_matches_coo() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<Scalar> = (1..=5).map(|v| v as Scalar).collect();
        assert_eq!(csr.spmv(&x).unwrap(), coo.spmv(&x).unwrap());
    }

    #[test]
    fn row_metadata() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.row_lengths(), vec![2, 1, 0, 3]);
        assert_eq!(csr.max_row_len(), 3);
        assert!(csr.has_empty_rows());
        assert_eq!(csr.row_range(3), 3..6);
    }

    #[test]
    fn select_rows_reorders() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let sub = csr.select_rows(&[3, 0]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row_lengths(), vec![3, 2]);
        let x = vec![1.0; 5];
        let full = csr.spmv(&x).unwrap();
        let part = sub.spmv(&x).unwrap();
        assert_eq!(part, vec![full[3], full[0]]);
    }

    #[test]
    fn select_rows_matches_a_coo_built_reference() {
        // Row 2 is empty; the selections repeat rows, reverse the matrix,
        // keep only the empty row, and keep nothing.
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let selections: [&[usize]; 5] = [&[3, 2, 1, 0], &[0, 0, 3, 2, 2, 3], &[2], &[], &[1, 3]];
        for rows in selections {
            let mut reference = CooMatrix::new(rows.len(), coo.cols());
            for (local, &row) in rows.iter().enumerate() {
                for idx in csr.row_range(row) {
                    reference.push(local, csr.col_indices()[idx] as usize, csr.values()[idx]);
                }
            }
            let selected = csr.select_rows(rows);
            assert_eq!(selected, CsrMatrix::from_coo(&reference), "{rows:?}");
            // The reservation was exact.
            assert_eq!(
                selected.streams.col_indices.capacity(),
                selected.nnz(),
                "{rows:?}"
            );
            assert_eq!(
                selected.streams.values.capacity(),
                selected.nnz(),
                "{rows:?}"
            );
        }
    }

    #[test]
    fn select_rows_of_every_row_in_place_shares_and_any_other_order_copies() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let same = csr.select_rows(&[0, 1, 2, 3]);
        assert!(Arc::ptr_eq(&same.streams, &csr.streams));
        let selections: [&[usize]; 4] = [&[0, 1, 3, 2], &[0, 1, 2], &[0, 1, 2, 3, 3], &[]];
        for rows in selections {
            let selected = csr.select_rows(rows);
            assert!(!Arc::ptr_eq(&selected.streams, &csr.streams), "{rows:?}");
            assert_ne!(selected.row_offsets().as_ptr(), csr.row_offsets().as_ptr());
        }
        // A matrix with no rows is its own identity selection.
        let empty = CsrMatrix::from_coo(&CooMatrix::new(0, 3));
        assert!(Arc::ptr_eq(&empty.select_rows(&[]).streams, &empty.streams));
    }

    #[test]
    fn a_clone_shares_its_streams_and_its_memos() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<CsrMatrix>();
        let csr = CsrMatrix::from_coo(&sample_coo());
        let clone = csr.clone();
        assert_eq!(clone.values().as_ptr(), csr.values().as_ptr());
        assert_eq!(clone.col_indices().as_ptr(), csr.col_indices().as_ptr());
        assert_eq!(clone.row_offsets().as_ptr(), csr.row_offsets().as_ptr());
        // A memo computed through one clone is the other's too.
        assert!(csr.streams.digest.get().is_none());
        let digest = clone.digest();
        assert_eq!(csr.streams.digest.get(), Some(&digest));
        clone.column_runs();
        assert!(csr.streams.column_runs.get().is_some());
        assert_eq!(
            csr.fingerprint(),
            clone.streams.fingerprint.get().copied().unwrap()
        );
    }

    #[test]
    fn from_raw_validates_offsets() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![1, 1, 1], vec![], vec![]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1, 0], vec![1.0; 3]).is_err());
        assert!(CsrMatrix::from_raw(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn duplicates_are_summed_via_coo() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 4.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.values(), &[5.0]);
    }

    #[test]
    fn from_coo_sorts_each_row_by_column() {
        // Pushed out of order across and within rows.
        let mut coo = CooMatrix::new(3, 4);
        for (r, c, v) in [
            (0, 0, 1.0),
            (2, 3, 6.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(r, c, v);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.row_offsets(), &[0, 2, 3, 6]);
        assert_eq!(csr.col_indices(), &[0, 2, 1, 0, 2, 3]);
        assert_eq!(csr.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(csr.spmv(&[1.0; 4]).unwrap(), coo.spmv(&[1.0; 4]).unwrap());
    }

    #[test]
    fn from_coo_sums_duplicates_in_push_order() {
        // (1e8 + 1) - 1e8 is 0 in f32 and (1e8 - 1e8) + 1 is 1: only the
        // push order gives 0.  Row 1's entries are interleaved with row 0's.
        let mut coo = CooMatrix::new(2, 3);
        for (r, c, v) in [
            (0, 2, 1e8),
            (1, 1, 1.0),
            (0, 2, 1.0),
            (0, 0, 7.0),
            (1, 1, 2.5),
            (0, 2, -1e8),
        ] {
            coo.push(r, c, v);
        }
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.row_offsets(), &[0, 2, 3]);
        assert_eq!(csr.col_indices(), &[0, 2, 1]);
        assert_eq!(csr.values(), &[7.0, 0.0, 3.5]);
    }

    /// What `from_coo` must equal, bit for bit: a stable sort by
    /// `(row, col)`, then each run of one position summed in push order.
    fn reference_from_coo(coo: &CooMatrix) -> Vec<(usize, usize, u32)> {
        let mut entries: Vec<_> = coo.iter().collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut summed: Vec<(usize, usize, Scalar)> = Vec::new();
        for (r, c, v) in entries {
            match summed.last_mut() {
                Some(last) if (last.0, last.1) == (r, c) => last.2 += v,
                _ => summed.push((r, c, v)),
            }
        }
        summed
            .into_iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    fn assert_matches_reference(coo: &CooMatrix, what: &str) {
        let csr = CsrMatrix::from_coo(coo);
        assert_eq!((csr.rows(), csr.cols()), (coo.rows(), coo.cols()), "{what}");
        let triplets: Vec<_> = csr
            .to_coo()
            .iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect();
        assert_eq!(triplets, reference_from_coo(coo), "{what}");
    }

    #[test]
    fn from_coo_is_bitwise_a_stable_sort_then_a_push_order_sum() {
        use crate::gen::rng::SplitMix64;
        let specials = [
            -0.0,
            0.0,
            Scalar::NAN,
            -Scalar::NAN,
            Scalar::INFINITY,
            -Scalar::INFINITY,
        ];
        let mut rng = SplitMix64::new(59);
        let random = |rows: usize, cols: usize, nnz: usize, rng: &mut SplitMix64| {
            let mut coo = CooMatrix::new(rows, cols);
            for _ in 0..nnz {
                let value = match rng.next_below(8) {
                    0 => specials[rng.next_below(specials.len())],
                    _ => rng.next_value(),
                };
                coo.push(rng.next_below(rows), rng.next_below(cols), value);
            }
            coo
        };
        // Small shapes collide often: unsorted rows, duplicates, empty rows.
        for (rows, cols, nnz) in [
            (1, 1, 9),
            (5, 3, 40),
            (40, 40, 60),
            (300, 7, 2_000),
            (64, 1_000, 500),
        ] {
            for trial in 0..4 {
                let coo = random(rows, cols, nnz, &mut rng);
                assert_matches_reference(&coo, &format!("{rows}x{cols} nnz {nnz} #{trial}"));
            }
        }
        // Degenerate shapes.
        for (rows, cols) in [(0, 5), (5, 0), (0, 0), (6, 6)] {
            assert_matches_reference(&CooMatrix::new(rows, cols), &format!("empty {rows}x{cols}"));
        }
        // One row of 12,000 entries amid short ones, unsorted with duplicates.
        let mut coo = random(50, 4_000, 400, &mut rng);
        for _ in 0..12_000 {
            let col = rng.next_below(4_000);
            coo.push(17, col, rng.next_value());
        }
        assert_matches_reference(&coo, "long row");
        // A symmetric Matrix Market file whose entry (2, 1) is listed twice:
        // the mirrored entries collide too.
        let file = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 5\n1 1 1.5\n2 1 2.0\n3 3 -0.0\n2 1 0.25\n3 2 -4.0\n";
        let coo = crate::mm::read_matrix_market(file.as_bytes()).unwrap();
        assert_matches_reference(&coo, "symmetric mtx");
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.col_indices(), &[0, 1, 0, 2, 1, 2]);
        assert_eq!(csr.values(), &[1.5, 2.25, 2.25, -4.0, -4.0, -0.0]);
    }

    #[test]
    fn fingerprint_is_pinned_by_a_golden_value() {
        // The fingerprint is the root of every durable store key: a change
        // to its value orphans every stored design, so it travels with a
        // `STORE_LAYOUT_VERSION` bump.  The constant was computed outside
        // this crate; the arithmetic below spells the construction out for
        // this matrix, whose streams are all shorter than a stripe: words
        // fold into lane 0, and every stream ends by scrambling all lanes.
        fn fold(state: u64, word: u64) -> u64 {
            let product = ((state ^ word) as u128) * 0x9E3779B97F4A7C15;
            product as u64 ^ (product >> 64) as u64
        }
        // The initial lanes: the first eight SplitMix64 outputs.
        let mut lanes = [0u64; 8];
        let mut state: u64 = 0x243F6A8885A308D3;
        for lane in &mut lanes {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            *lane = z ^ (z >> 31);
        }
        let values = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0].map(|v| u64::from(v.to_bits()));
        let streams: [&[u64]; 3] = [&[0, 2, 3, 3, 6], &[0, 4, 2, 0, 1, 4], &values];
        for word in [4, 5] {
            lanes[0] = fold(lanes[0], word); // rows, cols
        }
        for stream in streams {
            lanes[0] = fold(lanes[0], stream.len() as u64);
            for &element in stream {
                lanes[0] = fold(lanes[0], element);
            }
            lanes = lanes.map(|lane| fold(lane, 0));
        }
        let spelled = lanes.iter().fold(8, |acc, &lane| fold(acc, lane));
        assert_eq!(spelled, 0xf3a4_af38_59e1_51d6);

        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.fingerprint(), 0xf3a4_af38_59e1_51d6);
        assert_eq!(csr.fingerprint(), csr.compute_fingerprint());
    }

    #[test]
    fn fingerprint_memo_survives_clone_and_is_invisible_to_equality() {
        let hashed = CsrMatrix::from_coo(&sample_coo());
        let fresh = hashed.clone();
        assert!(fresh.streams.fingerprint.get().is_none());
        let fp = hashed.fingerprint();
        assert_eq!(hashed.streams.fingerprint.get(), Some(&fp));
        // A memoised matrix equals an unmemoised one with the same content.
        assert_eq!(hashed, fresh);
        // Clones carry the memo and agree with a from-scratch hash.
        let carried = hashed.clone();
        assert_eq!(carried.streams.fingerprint.get(), Some(&fp));
        assert_eq!(fresh.fingerprint(), fp);
        // Different content still hashes (and compares) differently.
        let other = hashed.select_rows(&[0, 1]);
        assert_ne!(other, hashed);
        assert_ne!(other.fingerprint(), fp);
    }

    #[test]
    fn digest_is_pinned_by_a_golden_value() {
        // BLAKE2b-256 of the encoding spelled out byte by byte, computed
        // outside this crate: a client and a daemon built apart must agree.
        let mut encoding = Vec::new();
        for word in [4u64, 5, 5] {
            encoding.extend_from_slice(&word.to_le_bytes()); // rows, cols, offsets
        }
        for offset in [0u32, 2, 3, 3, 6] {
            encoding.extend_from_slice(&offset.to_le_bytes());
        }
        encoding.extend_from_slice(&6u64.to_le_bytes());
        for column in [0u32, 4, 2, 0, 1, 4] {
            encoding.extend_from_slice(&column.to_le_bytes());
        }
        encoding.extend_from_slice(&6u64.to_le_bytes());
        for value in [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0] {
            encoding.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        assert_eq!(encoding.len(), 108);
        let mut hash = crate::digest::Blake2b256::new();
        hash.update(&encoding);
        let spelled = hash.finish();

        let golden: [u8; 32] = [
            0xb7, 0xcc, 0x2c, 0xaa, 0x73, 0xc1, 0x3c, 0x44, 0x9b, 0x36, 0xb3, 0xeb, 0xb1, 0x0d,
            0x02, 0x0c, 0x5d, 0xba, 0xfb, 0xf7, 0xba, 0x76, 0x04, 0xe9, 0x7b, 0xcd, 0xe3, 0x82,
            0xa7, 0xb2, 0x6c, 0x7e,
        ];
        assert_eq!(spelled, golden);
        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.digest(), golden);
        // Its own memo, carried by clones; equality ignores it.
        assert_eq!(csr.streams.digest.get(), Some(&golden));
        assert!(csr.streams.fingerprint.get().is_none());
        assert_eq!(csr.clone().streams.digest.get(), Some(&golden));
        assert_eq!(csr, CsrMatrix::from_coo(&sample_coo()));
    }

    #[test]
    fn column_runs_name_each_rows_start_only_when_every_row_is_one_run() {
        let runs = |offsets: Vec<u32>, cols: Vec<u32>| {
            let values = vec![1.0; cols.len()];
            let m = CsrMatrix::from_raw(offsets.len() - 1, 8, offsets, cols, values).unwrap();
            m.column_runs().map(<[u32]>::to_vec)
        };
        // Runs of lengths 3, 0, 1 and 4; the last ends at the last column.
        assert_eq!(
            runs(vec![0, 3, 3, 4, 8], vec![2, 3, 4, 0, 4, 5, 6, 7]),
            Some(vec![2, 0, 0, 4])
        );
        assert_eq!(runs(vec![0], vec![]), Some(vec![]));
        assert_eq!(runs(vec![0, 0, 0], vec![]), Some(vec![0, 0]));
        // A gap in the last row, a duplicate, an unsorted pair.
        assert_eq!(runs(vec![0, 2, 4], vec![0, 1, 3, 5]), None);
        assert_eq!(runs(vec![0, 2], vec![3, 3]), None);
        assert_eq!(runs(vec![0, 2], vec![4, 3]), None);
        // `sample_coo` has gaps.
        let gapped = CsrMatrix::from_coo(&sample_coo());
        assert!(gapped.column_runs().is_none());
    }

    #[test]
    fn column_runs_memo_is_shared_carried_by_clones_and_invisible_to_equality() {
        let mut coo = CooMatrix::new(3, 6);
        for (row, cols) in [(0, 1..4), (1, 2..6), (2, 0..1)] {
            for col in cols {
                coo.push(row, col, row as Scalar + 0.5);
            }
        }
        let m = CsrMatrix::from_coo(&coo);
        let fresh = CsrMatrix::from_coo(&coo);
        let starts = m.column_runs().expect("every row is a run");
        assert_eq!(starts, &[1, 2, 0]);
        // One table per allocation, read twice.
        assert_eq!(m.column_runs().unwrap().as_ptr(), starts.as_ptr());
        assert!(fresh.streams.column_runs.get().is_none());
        assert_eq!(m, fresh);
        assert_eq!(m.clone().column_runs().unwrap().as_ptr(), starts.as_ptr());
        assert!(m.streams.fingerprint.get().is_none() && m.streams.digest.get().is_none());
    }

    #[test]
    fn format_bytes_counts_arrays() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        assert_eq!(csr.format_bytes(), 5 * 4 + 6 * 4 + 6 * 4);
    }
}
