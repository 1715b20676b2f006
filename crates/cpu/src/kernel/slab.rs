//! The slab a row-lane loop runs on: a zero-padding SELL-`C`-σ copy of one
//! partition's streams.
//!
//! Rows are sorted by length (descending, stable) inside fixed windows of
//! [`SLAB_WINDOW`] rows.  Each group of `C` consecutive sorted rows (`C` the
//! loop's lane count) stores its first `common` terms of every row
//! column-major — `common` the group's shortest row, so nothing is padded —
//! and then each row's remaining terms row-major.  Lane `l` of a group is
//! one row: it accumulates the common part with the other lanes (values and
//! column indices are contiguous vectors, only `x` is gathered) and then its
//! own tail, in stream order from `0.0`, so every row is bitwise the scalar
//! loop's.  A group of fewer than `C` rows (a partition whose row count is
//! not a multiple of `C` ends in one) is all tail.
//!
//! The rows a slab sorts, windows and writes are *output* rows wherever the
//! partition's `origin_rows` maps its rows one to one onto a block of `y`
//! (a pure offset, or the permutation of a SORT, SORT_SUB or BIN design):
//! slab row `o` holds the terms of the local row that lands on the block's
//! row `o`, so the design's permutation is folded into the copy and the loop
//! writes its slice of `y` in place ([`Slab::output_base`]).  Rows scattered
//! over `y` (a global sort split into row bands) stay local rows, staged and
//! scattered through the origin.
//!
//! A window's rows are permuted inside the window only, so worker shares cut
//! at window boundaries ([`Slab::cuts`]) write inside their own share of
//! `y` (or of the staged partials).  The slab is built when a partition
//! binds a row-lane loop and is owned by that partition; a kernel whose
//! loops are not row lanes holds none.

use super::{BalancedRowCuts, IndexFn};
use crate::simd::MAX_LANES;
use crate::specialized::SlabArgs;
use alpha_matrix::{CsrMatrix, Scalar};
use std::borrow::Cow;
use std::ops::Range;

/// Rows per sorting window, a multiple of every lane count.  Wide enough
/// that a window sorts like its whole share (256 rows up to a full share
/// read the same on the reference host), narrow enough that a partition of
/// a few thousand rows still splits across workers.
pub(crate) const SLAB_WINDOW: usize = 1024;

/// One partition's streams as a row-lane loop reads them (module docs).
#[derive(Debug)]
pub(crate) struct Slab {
    /// Rows per lane group.
    lanes: usize,
    values: Vec<Scalar>,
    col_indices: Vec<u32>,
    /// The row of each slab position (an output row of the block, or a
    /// local row: module docs).
    rows: Vec<u32>,
    /// The non-zero count of each slab position's row.
    lens: Vec<u32>,
    /// Where each lane group starts in the streams, and the end.
    starts: Vec<u32>,
    /// Non-zeros before each window boundary (`windows + 1` entries).
    window_nnz: Vec<u32>,
    /// Nnz-balanced worker cuts at window boundaries.
    cuts: BalancedRowCuts,
    /// The first row of the block of `y` whose rows `rows` names, or `None`
    /// when they are local rows (module docs).
    output_base: Option<usize>,
}

/// The first row of the block `[base, base + rows)` of `y` that `origin`
/// maps a partition's `rows` rows onto one to one, and the inverse map
/// (output row − `base` → local row), or `None` for rows scattered over `y`.
fn block_inverse(origin: &IndexFn, rows: usize) -> Option<(usize, Vec<u32>)> {
    let base = (0..rows).map(|row| origin.get(row)).min()? as usize;
    let mut inverse = vec![u32::MAX; rows];
    for row in 0..rows {
        let slot = inverse.get_mut(origin.get(row) as usize - base)?;
        if *slot != u32::MAX {
            return None;
        }
        *slot = row as u32;
    }
    Some((base, inverse))
}

impl Slab {
    /// The slab of `matrix`, whose local row `r` is row `origin(r)` of `y`,
    /// for `lanes`-row groups: over output rows where `origin` maps onto a
    /// block of `y`, over local rows otherwise.  The inverse map lives only
    /// while the slab is built.
    pub(crate) fn new(lanes: usize, matrix: &CsrMatrix, origin: &IndexFn) -> Slab {
        let rows = matrix.rows();
        let (output_base, inverse) = match origin.contiguous_base() {
            Some(base) => (Some(base), None),
            None => block_inverse(origin, rows).unzip(),
        };
        let local = |row: usize| {
            inverse
                .as_ref()
                .map_or(row, |inverse| inverse[row] as usize)
        };
        Slab {
            output_base,
            ..Slab::build(
                lanes,
                SLAB_WINDOW,
                rows,
                |row| matrix.row_range(local(row)),
                matrix.values(),
                matrix.col_indices(),
            )
        }
    }

    /// The slab of `rows` rows whose terms sit at `range(row)` of the two
    /// streams, sorted in windows of `window` rows.
    pub(crate) fn build(
        lanes: usize,
        window: usize,
        rows: usize,
        range: impl Fn(usize) -> Range<usize>,
        values: &[Scalar],
        col_indices: &[u32],
    ) -> Slab {
        assert!(
            (1..=MAX_LANES).contains(&lanes) && window.is_multiple_of(lanes),
            "{lanes} lanes in windows of {window} rows"
        );
        let mut order: Vec<u32> = (0..rows as u32).collect();
        for sorted in order.chunks_mut(window) {
            sorted.sort_by_key(|&row| std::cmp::Reverse(range(row as usize).len()));
        }
        let lens: Vec<u32> = order
            .iter()
            .map(|&row| range(row as usize).len() as u32)
            .collect();
        let nnz = lens.iter().map(|&len| len as usize).sum();
        let mut slab_values = Vec::with_capacity(nnz);
        let mut slab_cols = Vec::with_capacity(nnz);
        let mut starts = Vec::with_capacity(rows.div_ceil(lanes) + 1);
        for (group, members) in order.chunks(lanes).enumerate() {
            starts.push(slab_values.len() as u32);
            let common = if members.len() == lanes {
                lens[group * lanes + lanes - 1] as usize
            } else {
                0
            };
            let mut firsts = [0usize; MAX_LANES];
            for (first, &row) in firsts.iter_mut().zip(members) {
                *first = range(row as usize).start;
            }
            for k in 0..common {
                for &first in &firsts[..lanes] {
                    slab_values.push(values[first + k]);
                    slab_cols.push(col_indices[first + k]);
                }
            }
            for &row in members {
                let tail = range(row as usize);
                let tail = tail.start + common..tail.end;
                slab_values.extend_from_slice(&values[tail.clone()]);
                slab_cols.extend_from_slice(&col_indices[tail]);
            }
        }
        starts.push(slab_values.len() as u32);
        let mut window_nnz = vec![0u32];
        for sorted in lens.chunks(window) {
            let before = *window_nnz.last().expect("starts at 0");
            window_nnz.push(before + sorted.iter().sum::<u32>());
        }
        let cuts = BalancedRowCuts::build(&window_nnz, window, rows);
        Slab {
            lanes,
            values: slab_values,
            col_indices: slab_cols,
            rows: order,
            lens,
            starts,
            window_nnz,
            cuts,
            output_base: None,
        }
    }

    /// The first row of the block of `y` the slab's rows are rows of, when
    /// they are output rows: its loop then writes that block in place.
    pub(crate) fn output_base(&self) -> Option<usize> {
        self.output_base
    }

    /// Rows per lane group: the lane count of the loop it was built for.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bytes of the streams, permutation, lengths and group starts.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.values.len()
            + self.col_indices.len()
            + self.rows.len()
            + self.lens.len()
            + self.starts.len())
    }

    /// The slab as the row-lane loops read it.
    pub(crate) fn args(&self) -> SlabArgs<'_> {
        SlabArgs {
            values: &self.values,
            col_indices: &self.col_indices,
            rows: &self.rows,
            lens: &self.lens,
            starts: &self.starts,
        }
    }

    /// Worker cuts for `workers` shares at window boundaries, balanced by
    /// non-zeros.
    pub(crate) fn cuts(&self, workers: usize) -> Cow<'_, [usize]> {
        self.cuts.get(&self.window_nnz, workers)
    }
}
