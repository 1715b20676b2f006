//! The monomorphized kernel library: branch-free specialized SpMV loops —
//! the **only** code that executes a [`NativeKernel`](crate::NativeKernel).
//!
//! `emit_rust` prints the exact straight-line loop for a chosen design; this
//! module is where an equivalent loop actually *runs*.  The library is
//! generated at build time by the compiler's monomorphizer: every reachable
//! combination of
//!
//! * partition strategy ([`PartitionKind::Rows`] / [`PartitionKind::Nnz`]),
//! * row-bounds index-fn kind (stored table vs affine/identity arithmetic),
//! * column coding (a column index per non-zero, or one start per row when
//!   every row's columns are one run — [`IndexKind::Run`]),
//! * SIMD variant ([`SimdClass`]: scalar, portable/AVX2/NEON nnz lanes ×4 and
//!   ×8, portable/AVX2 row lanes ×8)
//!
//! is instantiated as one dedicated function (`chunk_nnz::<TB, D>`,
//! `chunk_slab::<L, D>`, `span_nnz::<D>`, `scatter_to::<TB>`) in
//! which the index arithmetic is inlined as constants/affine expressions and
//! every enum match is hoisted entirely out of the loop.  `rows_loop`,
//! `nnz_loop` and `scatter_loop` are the shape-matchers: they map the
//! [`KernelShape`] computed at kernel build to the library entry's function
//! pointers.  This is also the one place a SIMD backend is selected — through
//! the `Dot` impls — so no run-time backend dispatch exists anywhere.  A shape
//! outside the library is a typed build rejection
//! ([`KernelBuildError::UnsupportedShape`]); there is no second executor to
//! fall back to.  None is designer-reachable: the only misses are lane/backend
//! combinations the resolve step cannot produce.
//!
//! **The loop is the unit of compilation, not the row.**  The loop functions
//! and every `Dot` are `#[inline(always)]` down to the intrinsics, so the
//! function a pointer names holds the whole row / segment loop and a row
//! costs its loads, its horizontal add and one store.  A `#[target_feature]`
//! function never inlines into a caller compiled without the feature, so for
//! the hardware shapes the attribute sits on a loop *entry*
//! (`hw::chunk_entry` / `hw::run_entry` / `hw::slab_entry` /
//! `hw::span_entry`, which the generic loop inlines into) and on nothing
//! inside it: a dot behind the attribute would be an
//! opaque call per row.
//!
//! Non-affine compressions ([`IndexKind::Model`] — step/periodic models or
//! models with patched exceptions) take the table instantiations: lowering
//! ([`IndexFn::from_array`](crate::IndexFn::from_array)) evaluates the fitted
//! model over its whole domain into a lookup table once, trading build-time
//! memory for a branch-free hot loop.
//!
//! Row-lane loops run on the partition's slab (`kernel/slab.rs`): rows
//! length-sorted inside windows, 8-row groups stored column-major up to
//! their shortest row, one row per lane, only `x` gathered.  They ignore the
//! bounds kind (the slab holds each row's length).
//!
//! Scalar and row-lane loops accumulate each row in stream order, so they are
//! bitwise-equal to one another; nnz-lane loops reorder the reduction through
//! the fixed `hsum_tree` and are held to the per-row bound the differential
//! suite (`tests/kernel_differential.rs`) states.  A run loop is bitwise the
//! gathering loop of its [`SimdClass`]: it loads the same `x` entries
//! contiguously into the same lanes.

use crate::kernel::KernelBuildError;
use crate::simd::{self, Backend, ResolvedSimd};
use alpha_graph::SimdLaneMapping;
use alpha_matrix::Scalar;

/// The lowered kind of one format index array — the dimension of the shape
/// lattice that decides how the specialized loop addresses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// `f(i) = i` (compressed identity).
    Identity,
    /// `f(i) = base + slope * i` (fitted linear model, no exceptions).
    Affine,
    /// A stored array; loads are real.
    Table,
    /// Any other fitted model (step/periodic or patched exceptions),
    /// materialised into its lookup table at lowering — runs the table
    /// instantiations.
    Model,
    /// Column coding only: every row's columns are one contiguous run, so
    /// the loop reads one start column per row
    /// ([`CsrMatrix::column_runs`](alpha_matrix::CsrMatrix::column_runs))
    /// and loads `x` contiguously instead of gathering it.
    Run,
}

impl IndexKind {
    /// Classifies a lowered [`crate::IndexFn`].
    pub fn of(f: &crate::IndexFn) -> IndexKind {
        match f {
            crate::IndexFn::Identity => IndexKind::Identity,
            crate::IndexFn::Affine { .. } => IndexKind::Affine,
            crate::IndexFn::Model(_) => IndexKind::Model,
            crate::IndexFn::Table(_) => IndexKind::Table,
        }
    }

    fn label(self) -> &'static str {
        match self {
            IndexKind::Identity => "id",
            IndexKind::Affine => "affine",
            IndexKind::Table => "table",
            IndexKind::Model => "model",
            IndexKind::Run => "run",
        }
    }
}

/// Partition strategy dimension of the shape lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// Row-partition loop (`BMT_ROW_BLOCK` / `BMT_COL_BLOCK` designs).
    Rows,
    /// Nnz-partition loop (`BMT_NNZ_BLOCK` designs).
    Nnz,
}

/// The SIMD variant dimension: which inner-loop dot kernel the shape runs.
/// This is the *executed* variant, post-resolution — a row-lane plan on an
/// nnz partition runs its segments scalar (row lanes need whole rows), so it
/// classifies as [`SimdClass::Scalar`] here even though the kernel's SIMD
/// label still names the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdClass {
    /// Plain scalar accumulation.
    Scalar,
    /// Portable nnz-lane dot with `lanes` accumulators.
    NnzPortable {
        /// Lane count (4 or 8).
        lanes: u8,
    },
    /// AVX2 hardware-gather nnz-lane dot (x86_64, 4 or 8 lanes).
    NnzAvx2 {
        /// Lane count (4 or 8).
        lanes: u8,
    },
    /// NEON nnz-lane dot with emulated gathers (aarch64, 4 or 8 lanes).
    NnzNeon {
        /// Lane count (4 or 8).
        lanes: u8,
    },
    /// Portable row lanes: the `lanes` rows of a slab group advance
    /// together (see `kernel/slab.rs`).
    RowLanes {
        /// Lane count (8; the resolve step runs any other width scalar).
        lanes: u8,
    },
    /// AVX2 row lanes: a slab group's `x` entries are gathered
    /// (x86_64, 8 lanes).
    RowAvx2 {
        /// Lane count (8).
        lanes: u8,
    },
}

impl SimdClass {
    /// The loop a resolved vectorization decision for one partition
    /// executes as.  `rows_path` says whether the partition executes the
    /// row-partition loop (row-lane kernels only exist there).
    pub fn classify(rs: &ResolvedSimd, rows_path: bool) -> SimdClass {
        if !rs.is_vectorized() {
            return SimdClass::Scalar;
        }
        let lanes = rs.lanes as u8;
        match rs.mapping {
            SimdLaneMapping::Rows if rows_path => match rs.backend {
                Backend::Avx2 => SimdClass::RowAvx2 { lanes },
                _ => SimdClass::RowLanes { lanes },
            },
            // Nnz partitions execute row-lane plans scalar.
            SimdLaneMapping::Rows => SimdClass::Scalar,
            SimdLaneMapping::Nnz => match rs.backend {
                Backend::Avx2 => SimdClass::NnzAvx2 { lanes },
                Backend::Neon => SimdClass::NnzNeon { lanes },
                Backend::Portable => SimdClass::NnzPortable { lanes },
            },
        }
    }

    /// Non-zeros (or rows) the executed loop advances per step: 1 for the
    /// scalar loop.
    pub fn lanes(self) -> usize {
        match self {
            SimdClass::Scalar => 1,
            SimdClass::NnzPortable { lanes }
            | SimdClass::NnzAvx2 { lanes }
            | SimdClass::NnzNeon { lanes }
            | SimdClass::RowLanes { lanes }
            | SimdClass::RowAvx2 { lanes } => lanes as usize,
        }
    }

    /// True for the row-lane classes, whose loops run on a slab.
    pub fn is_row_lanes(self) -> bool {
        matches!(self, SimdClass::RowLanes { .. } | SimdClass::RowAvx2 { .. })
    }

    /// `avx2-nnz-x8`, `row-x8`, `scalar`: see [`KernelShape::loop_label`].
    pub(crate) fn label(self) -> String {
        match self {
            SimdClass::Scalar => "scalar".to_string(),
            SimdClass::NnzPortable { lanes } => format!("portable-nnz-x{lanes}"),
            SimdClass::NnzAvx2 { lanes } => format!("avx2-nnz-x{lanes}"),
            SimdClass::NnzNeon { lanes } => format!("neon-nnz-x{lanes}"),
            SimdClass::RowLanes { lanes } => format!("row-x{lanes}"),
            SimdClass::RowAvx2 { lanes } => format!("avx2-row-x{lanes}"),
        }
    }
}

/// The shape descriptor of one lowered partition: the coordinates in the
/// shape lattice that pick a monomorphized library kernel.  Two kernels with
/// equal shapes run byte-identical inner loops regardless of which matrix
/// they were designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelShape {
    /// Partition strategy.
    pub partition: PartitionKind,
    /// Kind of the row-bounds map: `row_offsets` for row partitions,
    /// `bmt_row_starts` for nnz partitions (where it is resolved once per
    /// worker span, so a [`IndexKind::Model`] here does not disqualify the
    /// shape).
    pub bounds: IndexKind,
    /// Kind of the `origin_rows` map (output placement).
    pub origin: IndexKind,
    /// Column coding: [`IndexKind::Run`] when the partition's rows are all
    /// column runs and the loop has a run twin ([`has_run_twin`]), decided
    /// from the sub-matrix at lowering, never by a plan; otherwise
    /// [`IndexKind::Table`], the raw column stream.
    pub col_index: IndexKind,
    /// Executed SIMD variant.
    pub simd: SimdClass,
}

impl KernelShape {
    /// Stable, compact label, e.g.
    /// `rows[off:table,org:id,col:table]:avx2-nnz-x8`.  This string is
    /// what travels through search results, the design store and bench
    /// records.
    pub fn label(&self) -> String {
        let partition = match self.partition {
            PartitionKind::Rows => "rows",
            PartitionKind::Nnz => "nnz",
        };
        format!(
            "{partition}[off:{},org:{},col:{}]:{}",
            self.bounds.label(),
            self.origin.label(),
            self.col_index.label(),
            self.loop_label()
        )
    }

    /// The inner-loop half of [`KernelShape::label`] (after the `:`), e.g.
    /// `avx2-nnz-x8` or `scalar`: the part the host chooses by measurement
    /// (a design never names it), and the only part a recorded label is
    /// trusted for.
    pub fn loop_label(&self) -> String {
        self.simd.label()
    }
}

/// True when the row-partition loop of `simd` has a run twin (`run_loop`
/// resolves one): the scalar loop and the portable and AVX2 nnz lanes ×4
/// and ×8.  Row lanes, NEON and nnz partitions keep the column stream.
pub fn has_run_twin(simd: SimdClass) -> bool {
    run_loop(simd, false).is_some()
}

// ---------------------------------------------------------------------------
// Runtime arguments of a specialized loop
// ---------------------------------------------------------------------------

/// One index map as a monomorphized loop reads it: the stored table *or* the
/// affine form — which of the two is read is baked into the instantiation
/// (`TB`), never decided at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexArgs<'a> {
    /// Stored map (empty unless the kind is `Table`/`Model`).
    pub table: &'a [u32],
    /// Affine base (identity is `base 0, slope 1`).
    pub base: i64,
    /// Affine slope.
    pub slope: i64,
}

impl IndexArgs<'static> {
    /// `f(i) = i`: no table, `base 0, slope 1`.
    pub const IDENTITY: Self = IndexArgs {
        table: &[],
        base: 0,
        slope: 1,
    };
}

/// The runtime parameters of one partition's specialized loops.  Everything
/// *structural* (which fields are read, how bounds are computed, which dot
/// kernel runs) is baked into the monomorphized function; this struct only
/// carries the data the chosen instantiation reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartitionArgs<'a> {
    /// Value stream of the partition's sub-matrix.
    pub values: &'a [Scalar],
    /// Column-index stream (unread by run loops).
    pub col_indices: &'a [u32],
    /// Each row's first column under [`IndexKind::Run`] (empty otherwise).
    pub col_starts: &'a [u32],
    /// Input vector.
    pub x: &'a [Scalar],
    /// Column offset of a `COL_DIV` branch.
    pub col_offset: usize,
    /// Row bounds of a row partition (`row_offsets`).  Unread by nnz spans,
    /// which walk the sub-matrix's real CSR offsets instead.
    pub bounds: IndexArgs<'a>,
    /// The slab a row-lane loop reads ([`SlabArgs::EMPTY`] otherwise).
    pub slab: SlabArgs<'a>,
}

/// A partition's slab as the row-lane loops read it (the layout is
/// `kernel/slab.rs`'s): slab position `p` holds row `rows[p]` (of the
/// output block, or local) of `lens[p]` non-zeros, and lane group `g`
/// (positions `g·L..g·L + L`) starts at `starts[g]` of the two streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlabArgs<'a> {
    /// Value stream, group by group.
    pub values: &'a [Scalar],
    /// Column-index stream, parallel to `values`.
    pub col_indices: &'a [u32],
    /// Row of each slab position: the one its sum is added to.
    pub rows: &'a [u32],
    /// Non-zero count of each slab position's row.
    pub lens: &'a [u32],
    /// Stream offset of each lane group, then the streams' length.
    pub starts: &'a [u32],
}

impl SlabArgs<'static> {
    /// No slab: what every loop but a row-lane one is handed.
    pub const EMPTY: Self = SlabArgs {
        values: &[],
        col_indices: &[],
        rows: &[],
        lens: &[],
        starts: &[],
    };
}

/// One worker chunk of a row partition: accumulate rows
/// `[first, first + out.len())` into `out`.
pub(crate) type ChunkFn = fn(&PartitionArgs<'_>, usize, &mut [Scalar]);

/// One worker span of an nnz partition: emit one partial per row segment of
/// `[start, end)`, starting at `row0` (the span's pre-resolved first row).
pub(crate) type SpanFn = fn(&PartitionArgs<'_>, &[u32], usize, usize, usize) -> Vec<Scalar>;

/// Merge partial sums into `y` through the origin map (`+=` semantics, which
/// is what makes worker-boundary rows and `COL_DIV` siblings correct).
pub(crate) type ScatterFn = fn(&IndexArgs<'_>, usize, &[Scalar], &mut [Scalar]);

// ---------------------------------------------------------------------------
// The monomorphized loop bodies
// ---------------------------------------------------------------------------

/// Row bounds, monomorphized on storage kind: `TB = true` reads the stored
/// offsets table (two adjacent loads), `TB = false` computes the affine form
/// (identity is `base 0, slope 1`) — pure arithmetic, no enum in sight.
#[inline(always)]
fn row_range<const TB: bool>(a: &PartitionArgs<'_>, row: usize) -> (usize, usize) {
    let b = &a.bounds;
    if TB {
        (b.table[row] as usize, b.table[row + 1] as usize)
    } else {
        let start = b.base + b.slope * row as i64;
        (start as usize, (start + b.slope) as usize)
    }
}

/// The inner dot product of one row (or row segment), monomorphized on the
/// SIMD variant and the column coding.  Every impl is `#[inline(always)]`
/// down to the intrinsics, so the dot becomes part of the row loop that
/// names it; picking an impl in
/// [`rows_loop`]/[`nnz_loop`] is the only SIMD selection there is.
trait Dot {
    /// Dot of stream positions `[start, end)` of row `row` against `x`.
    fn dot(a: &PartitionArgs<'_>, row: usize, start: usize, end: usize) -> Scalar;
}

/// Row `row`'s run of `x`, as long as the row: `x[s + col_offset..]` with
/// `s` its start column.  The slice is checked, and never fails on a
/// partition `NativePartition::new` accepted: only a partition with a
/// non-zero lowers to a run shape, so `ColumnsOutOfRange` bounded its
/// `col_offset + cols` by `original_cols`, the length of `x`, and every
/// row's run ends at or below `cols` (an empty row starts at 0).
#[inline(always)]
fn run_of<'a>(a: &PartitionArgs<'a>, row: usize, len: usize) -> &'a [Scalar] {
    let first = a.col_starts[row] as usize + a.col_offset;
    &a.x[first..first + len]
}

/// Scalar accumulation in stream order — the order the row-lane loops keep
/// per lane, hence bitwise-equal to them.
struct DotScalar;

impl Dot for DotScalar {
    #[inline(always)]
    fn dot(a: &PartitionArgs<'_>, _: usize, start: usize, end: usize) -> Scalar {
        let (values, col_indices) = (&a.values[start..end], &a.col_indices[start..end]);
        simd::row_dot_serial(0.0, values, col_indices, a.x, a.col_offset)
    }
}

/// Portable nnz-lane dot with `L` accumulators.
struct DotNnzPortable<const L: usize>;

impl<const L: usize> Dot for DotNnzPortable<L> {
    #[inline(always)]
    fn dot(a: &PartitionArgs<'_>, _: usize, start: usize, end: usize) -> Scalar {
        simd::row_dot_nnz_portable::<L>(a.values, a.col_indices, a.x, a.col_offset, start, end)
    }
}

/// [`DotScalar`] on a run row: the same products in the same order.
struct RunScalar;

impl Dot for RunScalar {
    #[inline(always)]
    fn dot(a: &PartitionArgs<'_>, row: usize, start: usize, end: usize) -> Scalar {
        simd::run_dot_serial(0.0, &a.values[start..end], run_of(a, row, end - start))
    }
}

/// [`DotNnzPortable`] on a run row: the same lanes, tail and tree.
struct RunNnzPortable<const L: usize>;

impl<const L: usize> Dot for RunNnzPortable<L> {
    #[inline(always)]
    fn dot(a: &PartitionArgs<'_>, row: usize, start: usize, end: usize) -> Scalar {
        simd::run_dot_nnz_lanes::<L>(&a.values[start..end], run_of(a, row, end - start))
    }
}

/// The common part of one slab lane group, monomorphized on the backend:
/// lane `l` sums the first `common` terms of the group's row `l`, stored
/// column-major from stream offset `start`.  `#[inline(always)]` down to the
/// intrinsics, like [`Dot`].
trait SlabDot<const L: usize> {
    /// The `L` lane sums of the group starting at `start`.
    fn common(a: &PartitionArgs<'_>, start: usize, common: usize) -> [Scalar; L];
}

/// Portable slab lanes.
struct SlabPortable;

impl<const L: usize> SlabDot<L> for SlabPortable {
    #[inline(always)]
    fn common(a: &PartitionArgs<'_>, start: usize, common: usize) -> [Scalar; L] {
        let s = &a.slab;
        simd::slab_dot_lanes::<L>(
            &s.values[start..],
            &s.col_indices[start..],
            a.x,
            a.col_offset,
            common,
        )
    }
}

/// The hardware dots and the loop entries that carry their
/// `#[target_feature]` (see the module docs for why the attribute encloses
/// the loop, not the dot).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod hw {
    #[cfg(target_arch = "x86_64")]
    use super::{run_of, SlabDot};
    use super::{Dot, PartitionArgs, Scalar};
    use crate::simd;

    /// 8-lane dot of the host's vector extension (AVX2 gathers / NEON).
    /// Only reachable through shapes whose [`super::SimdClass::NnzAvx2`] /
    /// [`super::SimdClass::NnzNeon`] came from a resolve that verified the
    /// extension at run time.
    pub(super) struct Dot8;

    /// 4-lane dot (same reachability argument as [`Dot8`]).
    pub(super) struct Dot4;

    #[cfg(target_arch = "x86_64")]
    use simd::avx2 as backend;
    #[cfg(target_arch = "aarch64")]
    use simd::neon as backend;

    impl Dot for Dot8 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, _: usize, start: usize, end: usize) -> Scalar {
            // SAFETY: shapes classify as NnzAvx2 / NnzNeon only when
            // ResolvedSimd carried that backend, which requires a positive
            // runtime probe (`cpu_features::detect_hardware`).  The column
            // indices are the partition's own, each below its sub-matrix's
            // `cols`, and `NativePartition::new` rejected (with
            // `KernelBuildError::ColumnsOutOfRange`) any partition whose
            // `col_offset + cols` exceeds `original_cols` or 2^31, and every
            // `x` a partition runs on is `original_cols` long (`run_into`
            // checks it; loop selection builds its own).  So each gathered
            // `x[col + col_offset]` is in bounds and fits the gather's `i32`.
            unsafe { backend::row_dot8(a.values, a.col_indices, a.x, a.col_offset, start, end) }
        }
    }

    impl Dot for Dot4 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, _: usize, start: usize, end: usize) -> Scalar {
            // SAFETY: as for `Dot8`: the runtime probe, and
            // `NativePartition::new`'s `ColumnsOutOfRange` check keeping
            // every gathered column inside `x` and the `i32` range.
            unsafe { backend::row_dot4(a.values, a.col_indices, a.x, a.col_offset, start, end) }
        }
    }

    /// 8-lane AVX2 dot of a run row: plain loads of `x` where [`Dot8`]
    /// gathers (same reachability argument as [`Dot8`]).
    #[cfg(target_arch = "x86_64")]
    pub(super) struct Run8;

    /// 4-lane AVX2 dot of a run row (see [`Run8`]).
    #[cfg(target_arch = "x86_64")]
    pub(super) struct Run4;

    #[cfg(target_arch = "x86_64")]
    impl Dot for Run8 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, row: usize, start: usize, end: usize) -> Scalar {
            let (values, x) = (&a.values[start..end], run_of(a, row, end - start));
            // SAFETY: shapes classify as NnzAvx2 only when ResolvedSimd
            // carried that backend, which requires a positive runtime probe
            // (`cpu_features::detect_hardware`).  The loads read `values` and
            // `x` up to the row's length, and both slices have it: `values`
            // by the checked range, `x` by `run_of` (the run's last column is
            // below the sub-matrix's `cols`, and a run partition has a
            // non-zero, so `ColumnsOutOfRange` bounded `col_offset + cols` by
            // `original_cols = x.len()`).
            unsafe { simd::avx2::run_dot8(values, x) }
        }
    }

    #[cfg(target_arch = "x86_64")]
    impl Dot for Run4 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, row: usize, start: usize, end: usize) -> Scalar {
            let (values, x) = (&a.values[start..end], run_of(a, row, end - start));
            // SAFETY: as for `Run8`: the runtime probe, and two slices the
            // row's length long (`run_of` stays inside `x` by
            // `ColumnsOutOfRange`).
            unsafe { simd::avx2::run_dot4(values, x) }
        }
    }

    /// 8-lane AVX2 slab group: the common part's `x` entries gathered
    /// (same reachability argument as [`Dot8`], for `RowAvx2` shapes).
    #[cfg(target_arch = "x86_64")]
    pub(super) struct Slab8;

    #[cfg(target_arch = "x86_64")]
    impl SlabDot<8> for Slab8 {
        #[inline(always)]
        fn common(a: &PartitionArgs<'_>, start: usize, common: usize) -> [Scalar; 8] {
            let s = &a.slab;
            // SAFETY: shapes classify as RowAvx2 only when ResolvedSimd
            // carried the AVX2 backend, which requires a positive runtime
            // probe (`cpu_features::detect_hardware`).  The slab's column
            // indices are the partition's own, reordered (the partition
            // builds its slab from its sub-matrix at the bind), each below
            // the sub-matrix's `cols`; a partition with a non-zero passed
            // `NativePartition::new`'s `ColumnsOutOfRange` check
            // (`col_offset + cols` within `original_cols = x.len()` and
            // 2^31), and one without any has `common == 0` in every group,
            // so nothing is gathered — not even for an empty `COL_DIV` band
            // whose `col_offset` lies past the end of `x`.
            unsafe {
                simd::avx2::slab_dot8(
                    &s.values[start..],
                    &s.col_indices[start..],
                    a.x,
                    a.col_offset,
                    common,
                )
            }
        }
    }

    /// [`super::chunk_nnz`] compiled with the vector extension enabled: the
    /// row loop, the dot and its intrinsics are one function.
    ///
    /// # Safety
    /// The host must support the extension.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "neon"))]
    unsafe fn chunk_entry<const TB: bool, D: Dot>(
        a: &PartitionArgs<'_>,
        first: usize,
        out: &mut [Scalar],
    ) {
        // SAFETY: the body is safe code; the contract is the attribute's,
        // which `chunk_nnz` below upholds (the host has the extension), and
        // on which the hardware dots inlined here rely.
        super::chunk_nnz::<TB, D>(a, first, out)
    }

    /// [`super::chunk_nnz`] over a run dot, compiled with AVX2 enabled: a
    /// run loop of its own name, so a disassembly can tell it from the
    /// gathering loops.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_entry<const TB: bool, D: Dot>(
        a: &PartitionArgs<'_>,
        first: usize,
        out: &mut [Scalar],
    ) {
        // SAFETY: as in `chunk_entry`, upheld by `chunk_run` below.
        super::chunk_nnz::<TB, D>(a, first, out)
    }

    /// [`super::chunk_slab`] over an AVX2 slab group, compiled with AVX2
    /// enabled: the row-lane loop of its own name, whose gathers a
    /// disassembly can find.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn slab_entry<const L: usize, D: SlabDot<L>>(
        a: &PartitionArgs<'_>,
        first: usize,
        out: &mut [Scalar],
    ) {
        // SAFETY: as in `chunk_entry`, upheld by `chunk_slab` below.
        super::chunk_slab::<L, D>(a, first, out)
    }

    /// [`super::span_nnz`] compiled with the vector extension enabled.
    ///
    /// # Safety
    /// The host must support the extension.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "neon"))]
    unsafe fn span_entry<D: Dot>(
        a: &PartitionArgs<'_>,
        offsets: &[u32],
        row0: usize,
        start: usize,
        end: usize,
    ) -> Vec<Scalar> {
        // SAFETY: as in `chunk_entry`, upheld by `span_nnz` below.
        super::span_nnz::<D>(a, offsets, row0, start, end)
    }

    /// The [`super::ChunkFn`] of a hardware shape: one jump into
    /// [`chunk_entry`] per worker chunk.
    pub(super) fn chunk_nnz<const TB: bool, D: Dot>(
        a: &PartitionArgs<'_>,
        first: usize,
        out: &mut [Scalar],
    ) {
        // SAFETY: `rows_loop` hands this pointer out for NnzAvx2 / NnzNeon
        // shapes only, and a shape classifies as one only after
        // `cpu_features::detect_hardware` probed the extension on this host.
        unsafe { chunk_entry::<TB, D>(a, first, out) }
    }

    /// The [`super::ChunkFn`] of an AVX2 run shape: one jump into
    /// [`run_entry`] per worker chunk.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn chunk_run<const TB: bool, D: Dot>(
        a: &PartitionArgs<'_>,
        first: usize,
        out: &mut [Scalar],
    ) {
        // SAFETY: as for `chunk_nnz`: `rows_loop` hands this pointer out for
        // NnzAvx2 run shapes only.
        unsafe { run_entry::<TB, D>(a, first, out) }
    }

    /// The [`super::ChunkFn`] of an AVX2 row-lane shape: one jump into
    /// [`slab_entry`] per worker chunk.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn chunk_slab<const L: usize, D: SlabDot<L>>(
        a: &PartitionArgs<'_>,
        first: usize,
        out: &mut [Scalar],
    ) {
        // SAFETY: `rows_loop` hands this pointer out for RowAvx2 shapes
        // only, and a shape classifies as one only after
        // `cpu_features::detect_hardware` probed AVX2 on this host.
        unsafe { slab_entry::<L, D>(a, first, out) }
    }

    /// The [`super::SpanFn`] of a hardware shape: one jump into
    /// [`span_entry`] per worker span.
    pub(super) fn span_nnz<D: Dot>(
        a: &PartitionArgs<'_>,
        offsets: &[u32],
        row0: usize,
        start: usize,
        end: usize,
    ) -> Vec<Scalar> {
        // SAFETY: as for `chunk_nnz`, through `nnz_loop`.
        unsafe { span_entry::<D>(a, offsets, row0, start, end) }
    }
}

/// Row-partition chunk loop, monomorphized over bounds storage and dot
/// kernel: the whole inner loop is branch-free straight-line
/// code after inlining.  The scalar and portable shapes' [`ChunkFn`] is an
/// instantiation of this function itself; a hardware shape's is its [`hw`]
/// entry, which this loop inlines into.
#[inline(always)]
fn chunk_nnz<const TB: bool, D: Dot>(a: &PartitionArgs<'_>, first: usize, out: &mut [Scalar]) {
    for (i, slot) in out.iter_mut().enumerate() {
        let (start, end) = row_range::<TB>(a, first + i);
        *slot += D::dot(a, first + i, start, end);
    }
}

/// Row-lane chunk loop over the partition's slab: rows `[first, first +
/// out.len())` are whole sorting windows (worker cuts sit at window
/// boundaries), so every lane group lies inside them and every row a group
/// holds is a row of `out`.  Lane `l` of a group sums its row's common part
/// with the other lanes ([`SlabDot`]), continues over its own tail serially
/// and adds the sum to its row's slot: every row in stream order from `0.0`,
/// bitwise the scalar loop.  A group of fewer than `L` rows is all tail.  The
/// portable shapes' [`ChunkFn`] is an instantiation of this function, an
/// AVX2 shape's its [`hw`] entry.
#[inline(always)]
fn chunk_slab<const L: usize, D: SlabDot<L>>(
    a: &PartitionArgs<'_>,
    first: usize,
    out: &mut [Scalar],
) {
    debug_assert_eq!(first % L, 0, "a share starts at a window boundary");
    let s = &a.slab;
    let end = first + out.len();
    let (rows, lens) = (&s.rows[first..end], &s.lens[first..end]);
    for (group, (rows, lens)) in rows.chunks(L).zip(lens.chunks(L)).enumerate() {
        let start = s.starts[first / L + group] as usize;
        // Sorted by length, the group's last row is its shortest.
        let common = if lens.len() == L {
            lens[L - 1] as usize
        } else {
            0
        };
        let mut sums = D::common(a, start, common);
        if lens[0] as usize == common {
            // Rows of one length, the common case in a sorted window: no
            // tails.
            for (&row, sum) in rows.iter().zip(sums) {
                out[row as usize - first] += sum;
            }
            continue;
        }
        let mut tail = start + common * L;
        for ((&row, &len), sum) in rows.iter().zip(lens).zip(&mut sums) {
            let own = tail..tail + (len as usize - common);
            tail = own.end;
            *sum = simd::row_dot_serial(
                *sum,
                &s.values[own.clone()],
                &s.col_indices[own],
                a.x,
                a.col_offset,
            );
            out[row as usize - first] += *sum;
        }
    }
}

/// Nnz-partition span loop: walk `[start, end)` of the stream emitting one
/// partial per row segment (row boundaries from the partition's real CSR
/// offsets), the segment dot monomorphized.  `row0` is the span's first row,
/// resolved by the caller from the chunk descriptor.  A [`SpanFn`] is an
/// instantiation of this function or, for a hardware shape, the [`hw`] entry
/// it inlines into.
#[inline(always)]
fn span_nnz<D: Dot>(
    a: &PartitionArgs<'_>,
    offsets: &[u32],
    row0: usize,
    start: usize,
    end: usize,
) -> Vec<Scalar> {
    let mut row = row0;
    let mut sums = Vec::new();
    let mut cursor = start;
    loop {
        let seg_end = (offsets[row + 1] as usize).min(end);
        sums.push(D::dot(a, row, cursor, seg_end));
        cursor = seg_end;
        if cursor >= end {
            break;
        }
        row += 1;
    }
    sums
}

/// Specialized scatter: merge partials into `y` through a stored table
/// (`TB = true`) or affine arithmetic (`TB = false`; identity is
/// `base 0, slope 1`).
fn scatter_to<const TB: bool>(
    a: &IndexArgs<'_>,
    base_row: usize,
    sums: &[Scalar],
    y: &mut [Scalar],
) {
    if TB {
        for (j, &v) in sums.iter().enumerate() {
            y[a.table[base_row + j] as usize] += v;
        }
    } else {
        for (j, &v) in sums.iter().enumerate() {
            y[(a.base + a.slope * (base_row + j) as i64) as usize] += v;
        }
    }
}

// ---------------------------------------------------------------------------
// The shape matcher
// ---------------------------------------------------------------------------

/// Picks the `$f::<TB, ..>` instantiation for a bounds kind.
macro_rules! chunk_for {
    ($tb:expr, $($f:ident)::+, $($g:tt)+) => {
        if $tb {
            $($f)::+::<true, $($g)+> as ChunkFn
        } else {
            $($f)::+::<false, $($g)+>
        }
    };
}

/// True when an index kind reads a stored table (a materialised
/// [`IndexKind::Model`] is one); false when it computes the affine form.
fn reads_table(kind: IndexKind) -> bool {
    matches!(kind, IndexKind::Table | IndexKind::Model)
}

/// Resolves a row-partition shape to its chunk loop.  A miss is the typed
/// [`KernelBuildError::UnsupportedShape`]; the only misses are lane/backend
/// combinations the resolve step cannot produce.
pub(crate) fn rows_loop(shape: &KernelShape) -> Result<ChunkFn, KernelBuildError> {
    debug_assert_eq!(shape.partition, PartitionKind::Rows);
    let tb = reads_table(shape.bounds);
    if shape.col_index == IndexKind::Run {
        return run_loop(shape.simd, tb).ok_or(KernelBuildError::UnsupportedShape(*shape));
    }
    Ok(match shape.simd {
        SimdClass::Scalar => chunk_for!(tb, chunk_nnz, DotScalar),
        SimdClass::NnzPortable { lanes: 4 } => chunk_for!(tb, chunk_nnz, DotNnzPortable<4>),
        SimdClass::NnzPortable { lanes: 8 } => chunk_for!(tb, chunk_nnz, DotNnzPortable<8>),
        #[cfg(target_arch = "x86_64")]
        SimdClass::NnzAvx2 { lanes: 4 } => chunk_for!(tb, hw::chunk_nnz, hw::Dot4),
        #[cfg(target_arch = "x86_64")]
        SimdClass::NnzAvx2 { lanes: 8 } => chunk_for!(tb, hw::chunk_nnz, hw::Dot8),
        #[cfg(target_arch = "aarch64")]
        SimdClass::NnzNeon { lanes: 4 } => chunk_for!(tb, hw::chunk_nnz, hw::Dot4),
        #[cfg(target_arch = "aarch64")]
        SimdClass::NnzNeon { lanes: 8 } => chunk_for!(tb, hw::chunk_nnz, hw::Dot8),
        // Row lanes read the slab, not the bounds.
        SimdClass::RowLanes { lanes: 8 } => chunk_slab::<8, SlabPortable>,
        #[cfg(target_arch = "x86_64")]
        SimdClass::RowAvx2 { lanes: 8 } => hw::chunk_slab::<8, hw::Slab8>,
        _ => return Err(KernelBuildError::UnsupportedShape(*shape)),
    })
}

/// The run twin of the row-partition loop of `simd`, for a bounds kind
/// (`tb`): the gathering loop over a run dot.  `None` outside the run
/// lattice ([`has_run_twin`]).
fn run_loop(simd: SimdClass, tb: bool) -> Option<ChunkFn> {
    Some(match simd {
        SimdClass::Scalar => chunk_for!(tb, chunk_nnz, RunScalar),
        SimdClass::NnzPortable { lanes: 4 } => chunk_for!(tb, chunk_nnz, RunNnzPortable<4>),
        SimdClass::NnzPortable { lanes: 8 } => chunk_for!(tb, chunk_nnz, RunNnzPortable<8>),
        #[cfg(target_arch = "x86_64")]
        SimdClass::NnzAvx2 { lanes: 4 } => chunk_for!(tb, hw::chunk_run, hw::Run4),
        #[cfg(target_arch = "x86_64")]
        SimdClass::NnzAvx2 { lanes: 8 } => chunk_for!(tb, hw::chunk_run, hw::Run8),
        _ => return None,
    })
}

/// Resolves an nnz-partition shape to its span loop.  The chunk descriptor
/// (`bmt_row_starts`) resolves once per worker span outside the hot loop, so
/// its kind never disqualifies the shape.
pub(crate) fn nnz_loop(shape: &KernelShape) -> Result<SpanFn, KernelBuildError> {
    debug_assert_eq!(shape.partition, PartitionKind::Nnz);
    Ok(match shape.simd {
        SimdClass::Scalar => span_nnz::<DotScalar> as SpanFn,
        SimdClass::NnzPortable { lanes: 4 } => span_nnz::<DotNnzPortable<4>>,
        SimdClass::NnzPortable { lanes: 8 } => span_nnz::<DotNnzPortable<8>>,
        #[cfg(target_arch = "x86_64")]
        SimdClass::NnzAvx2 { lanes: 4 } => hw::span_nnz::<hw::Dot4>,
        #[cfg(target_arch = "x86_64")]
        SimdClass::NnzAvx2 { lanes: 8 } => hw::span_nnz::<hw::Dot8>,
        #[cfg(target_arch = "aarch64")]
        SimdClass::NnzNeon { lanes: 4 } => hw::span_nnz::<hw::Dot4>,
        #[cfg(target_arch = "aarch64")]
        SimdClass::NnzNeon { lanes: 8 } => hw::span_nnz::<hw::Dot8>,
        _ => return Err(KernelBuildError::UnsupportedShape(*shape)),
    })
}

/// Output placement for an origin kind: contiguous origins compute,
/// everything else reads the table.  (Origins that are a pure offset bypass
/// the scatter entirely at run time and accumulate in place.)
pub(crate) fn scatter_loop(origin: IndexKind) -> ScatterFn {
    if reads_table(origin) {
        scatter_to::<true>
    } else {
        scatter_to::<false>
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_features;
    use crate::kernel::slab::Slab;

    fn shape(partition: PartitionKind, bounds: IndexKind, simd: SimdClass) -> KernelShape {
        KernelShape {
            partition,
            bounds,
            origin: IndexKind::Identity,
            col_index: IndexKind::Table,
            simd,
        }
    }

    fn in_library(shape: &KernelShape) -> bool {
        match shape.partition {
            PartitionKind::Rows => rows_loop(shape).is_ok(),
            PartitionKind::Nnz => nnz_loop(shape).is_ok(),
        }
    }

    #[test]
    fn every_designer_reachable_shape_is_in_the_library() {
        // The cross product the designer can actually produce: both
        // partition strategies × both bounds storages × every SIMD variant
        // the resolve step emits on this host.
        let mut simd_classes = vec![
            SimdClass::Scalar,
            SimdClass::NnzPortable { lanes: 4 },
            SimdClass::NnzPortable { lanes: 8 },
        ];
        #[cfg(target_arch = "x86_64")]
        simd_classes.extend([
            SimdClass::NnzAvx2 { lanes: 4 },
            SimdClass::NnzAvx2 { lanes: 8 },
        ]);
        #[cfg(target_arch = "aarch64")]
        simd_classes.extend([
            SimdClass::NnzNeon { lanes: 4 },
            SimdClass::NnzNeon { lanes: 8 },
        ]);
        for &bounds in &[
            IndexKind::Identity,
            IndexKind::Affine,
            IndexKind::Table,
            IndexKind::Model,
        ] {
            for &sc in &simd_classes {
                assert!(
                    in_library(&shape(PartitionKind::Rows, bounds, sc)),
                    "rows/{bounds:?}/{sc:?} must be in the library"
                );
                assert!(
                    in_library(&shape(PartitionKind::Nnz, bounds, sc)),
                    "nnz/{bounds:?}/{sc:?} must be in the library"
                );
            }
            for simd in runnable_row_classes() {
                assert!(
                    in_library(&shape(PartitionKind::Rows, bounds, simd)),
                    "rows/{bounds:?}/{simd:?} must be in the library"
                );
            }
        }
    }

    #[test]
    fn the_run_twins_are_scalar_and_the_nnz_lanes_x4_x8() {
        let mut twins = Vec::new();
        for lanes in [2u8, 3, 4, 8] {
            for simd in [
                SimdClass::Scalar,
                SimdClass::NnzPortable { lanes },
                SimdClass::NnzAvx2 { lanes },
                SimdClass::NnzNeon { lanes },
                SimdClass::RowLanes { lanes },
                SimdClass::RowAvx2 { lanes },
            ] {
                if has_run_twin(simd) {
                    twins.push(simd.label());
                }
            }
        }
        twins.sort();
        twins.dedup();
        let mut expected = vec!["scalar", "portable-nnz-x4", "portable-nnz-x8"];
        #[cfg(target_arch = "x86_64")]
        expected.extend(["avx2-nnz-x4", "avx2-nnz-x8"]);
        expected.sort();
        assert_eq!(twins, expected);
    }

    #[test]
    fn model_shapes_hit_the_library_via_materialised_tables() {
        // Model bounds and origins resolve to the table instantiations —
        // lowering materialises the fitted model into a lookup table, so no
        // designer-reachable shape is ever rejected.
        assert!(in_library(&shape(
            PartitionKind::Rows,
            IndexKind::Model,
            SimdClass::Scalar
        )));
        assert!(reads_table(IndexKind::Model));
        // An nnz partition's bounds (row_starts) may be a model — resolved
        // once per span, it never disqualifies the shape.
        assert!(in_library(&shape(
            PartitionKind::Nnz,
            IndexKind::Model,
            SimdClass::Scalar
        )));
    }

    #[test]
    fn out_of_library_shapes_are_a_typed_rejection() {
        // Lane widths the resolve step cannot produce (2 and 3):
        // no silent fallback, the error names the shape that missed.
        for lanes in [2, 3] {
            let odd = SimdClass::NnzPortable { lanes };
            let rows = shape(PartitionKind::Rows, IndexKind::Table, odd);
            assert_eq!(
                rows_loop(&rows).unwrap_err(),
                KernelBuildError::UnsupportedShape(rows)
            );
            let nnz = shape(PartitionKind::Nnz, IndexKind::Table, odd);
            let err = nnz_loop(&nnz).unwrap_err();
            assert_eq!(err, KernelBuildError::UnsupportedShape(nnz));
            assert!(
                err.to_string().contains(&format!("portable-nnz-x{lanes}")),
                "{err}"
            );
        }
        // The only row-lane loops are 8 wide.
        for lanes in [2, 3, 4] {
            for simd in [SimdClass::RowLanes { lanes }, SimdClass::RowAvx2 { lanes }] {
                let row_lanes = shape(PartitionKind::Rows, IndexKind::Table, simd);
                assert!(rows_loop(&row_lanes).is_err(), "{}", simd.label());
            }
        }
        // Row lanes only exist on row partitions.
        let lanes_on_nnz = shape(
            PartitionKind::Nnz,
            IndexKind::Table,
            SimdClass::RowLanes { lanes: 8 },
        );
        assert!(nnz_loop(&lanes_on_nnz).is_err());
    }

    #[test]
    fn labels_are_stable_and_compact() {
        let s = KernelShape {
            partition: PartitionKind::Rows,
            bounds: IndexKind::Table,
            origin: IndexKind::Identity,
            col_index: IndexKind::Table,
            simd: SimdClass::NnzAvx2 { lanes: 8 },
        };
        assert_eq!(s.label(), "rows[off:table,org:id,col:table]:avx2-nnz-x8");
        let n = KernelShape {
            partition: PartitionKind::Nnz,
            bounds: IndexKind::Affine,
            origin: IndexKind::Table,
            col_index: IndexKind::Table,
            simd: SimdClass::Scalar,
        };
        assert_eq!(n.label(), "nnz[off:affine,org:table,col:table]:scalar");
        let r = KernelShape {
            col_index: IndexKind::Run,
            ..s
        };
        assert_eq!(r.label(), "rows[off:table,org:id,col:run]:avx2-nnz-x8");
        assert_eq!(r.loop_label(), s.loop_label());
    }

    #[test]
    fn row_range_affine_matches_table() {
        let offsets: Vec<u32> = (0..=64u32).map(|i| i * 3).collect();
        let a = PartitionArgs {
            values: &[],
            col_indices: &[],
            col_starts: &[],
            x: &[],
            col_offset: 0,
            bounds: IndexArgs {
                table: &offsets,
                base: 0,
                slope: 3,
            },
            slab: SlabArgs::EMPTY,
        };
        for row in 0..64 {
            assert_eq!(row_range::<true>(&a, row), row_range::<false>(&a, row));
        }
    }

    // -----------------------------------------------------------------------
    // Loop level: every instantiation, called through its function pointer
    // -----------------------------------------------------------------------

    /// Column count of the synthetic partitions; `x` has room for the largest
    /// `col_offset` on top.
    const COLS: usize = 61;
    const MAX_COL_OFFSET: usize = 5;

    /// Pseudo-random value / column-index streams of `nnz` positions and an
    /// `x` to gather from.
    struct Streams {
        values: Vec<Scalar>,
        col_indices: Vec<u32>,
        /// Empty unless the streams are [`run_streams`].
        col_starts: Vec<u32>,
        x: Vec<Scalar>,
    }

    fn streams(nnz: usize) -> Streams {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        Streams {
            values: (0..nnz)
                .map(|_| (next() % 2000) as Scalar / 700.0 - 1.4)
                .collect(),
            col_indices: (0..nnz).map(|_| (next() % COLS as u64) as u32).collect(),
            col_starts: Vec::new(),
            x: (0..COLS + MAX_COL_OFFSET)
                .map(|_| (next() % 2000) as Scalar / 300.0 - 3.3)
                .collect(),
        }
    }

    /// [`streams`] whose rows of `lengths` are each one column run, with
    /// the starts a run loop reads: row `r` starts at column `7r` (wrapped
    /// to fit), and every third row ends at the last column.
    fn run_streams(lengths: &[usize]) -> Streams {
        let mut s = streams(lengths.iter().sum());
        s.col_indices.clear();
        for (row, &len) in lengths.iter().enumerate() {
            let room = COLS - len;
            let start = if row % 3 == 2 {
                room
            } else {
                (7 * row) % (room + 1)
            };
            s.col_starts.push(start as u32);
            s.col_indices.extend((start..start + len).map(|c| c as u32));
        }
        s
    }

    /// Prefix sums of `lengths`: a `row_offsets` table.
    fn offsets_of(lengths: &[usize]) -> Vec<u32> {
        let mut offsets = vec![0u32];
        for &len in lengths {
            offsets.push(offsets.last().unwrap() + len as u32);
        }
        offsets
    }

    fn args<'a>(s: &'a Streams, col_offset: usize, bounds: IndexArgs<'a>) -> PartitionArgs<'a> {
        PartitionArgs {
            values: &s.values,
            col_indices: &s.col_indices,
            col_starts: &s.col_starts,
            x: &s.x,
            col_offset,
            bounds,
            slab: SlabArgs::EMPTY,
        }
    }

    /// The row-lane variants this host can execute: the portable ones
    /// anywhere, the AVX2 ones after a positive probe.
    fn runnable_row_classes() -> Vec<SimdClass> {
        let mut classes = vec![SimdClass::RowLanes { lanes: 8 }];
        #[cfg(target_arch = "x86_64")]
        if cpu_features::detect_hardware() == cpu_features::SimdSupport::Avx2 {
            classes.push(SimdClass::RowAvx2 { lanes: 8 });
        }
        classes
    }

    /// The nnz-lane variants whose loops this host can *execute*: the
    /// portable ones anywhere, the hardware ones after a positive probe.
    fn runnable_nnz_classes() -> Vec<SimdClass> {
        let mut classes: Vec<SimdClass> =
            [4, 8].map(|lanes| SimdClass::NnzPortable { lanes }).into();
        match cpu_features::detect_hardware() {
            #[cfg(target_arch = "x86_64")]
            cpu_features::SimdSupport::Avx2 => {
                classes.extend([4, 8].map(|lanes| SimdClass::NnzAvx2 { lanes }))
            }
            #[cfg(target_arch = "aarch64")]
            cpu_features::SimdSupport::Neon => {
                classes.extend([4, 8].map(|lanes| SimdClass::NnzNeon { lanes }))
            }
            _ => {}
        }
        classes
    }

    /// What stream positions `[start, end)` must sum to under `simd`, bit for
    /// bit: the serial sum by position for the scalar and row-lane loops, the
    /// portable lane code of the same width for every nnz-lane loop.
    fn reference(
        simd: SimdClass,
        s: &Streams,
        col_offset: usize,
        start: usize,
        end: usize,
    ) -> Scalar {
        let portable = |lanes| {
            let dot = match lanes {
                4 => simd::row_dot_nnz_portable::<4>,
                _ => simd::row_dot_nnz_portable::<8>,
            };
            dot(&s.values, &s.col_indices, &s.x, col_offset, start, end)
        };
        match simd {
            SimdClass::Scalar | SimdClass::RowLanes { .. } | SimdClass::RowAvx2 { .. } => {
                let mut acc = 0.0;
                for i in start..end {
                    acc += s.values[i] * s.x[s.col_indices[i] as usize + col_offset];
                }
                acc
            }
            lanes => portable(lanes.lanes()),
        }
    }

    fn bits(values: &[Scalar]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Calls the chunk loop `shape` resolves to on rows `[first, first +
    /// rows)` of `a`, into an `out` that already holds non-zeros (the loops
    /// are `+=`), and requires `prefill + reference` in every slot, bit for
    /// bit.
    fn check_chunk(
        shape: &KernelShape,
        a: &PartitionArgs<'_>,
        s: &Streams,
        first: usize,
        rows: usize,
    ) {
        let prefill: Vec<Scalar> = (0..rows).map(|i| 0.25 + i as Scalar).collect();
        let expected: Vec<Scalar> = (0..rows)
            .map(|i| {
                let (start, end) = if reads_table(shape.bounds) {
                    row_range::<true>(a, first + i)
                } else {
                    row_range::<false>(a, first + i)
                };
                prefill[i] + reference(shape.simd, s, a.col_offset, start, end)
            })
            .collect();
        let mut out = prefill;
        rows_loop(shape).unwrap()(a, first, &mut out);
        assert_eq!(
            bits(&out),
            bits(&expected),
            "{} on rows {first}..{} (col_offset {})",
            shape.label(),
            first + rows,
            a.col_offset
        );
    }

    #[test]
    fn every_chunk_loop_is_bitwise_its_per_row_reference() {
        // Two leading rows, so the chunk under test does not start at row 0,
        // then every length around the 4- and 8-lane boundaries.
        let lengths = [4, 2, 0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100];
        let table = offsets_of(&lengths);
        // Row lanes read a slab: `every_slab_loop_is_bitwise_the_scalar_loop`.
        let mut simd_classes = vec![SimdClass::Scalar];
        simd_classes.extend(runnable_nnz_classes());
        let s = streams(*table.last().unwrap() as usize);
        let bounds = IndexArgs {
            table: &table,
            base: 0,
            slope: 0,
        };
        for simd in simd_classes {
            for col_offset in [0, MAX_COL_OFFSET] {
                let table_shape = shape(PartitionKind::Rows, IndexKind::Table, simd);
                let a = args(&s, col_offset, bounds);
                check_chunk(&table_shape, &a, &s, 2, lengths.len() - 2);
                check_chunk(&table_shape, &a, &s, 0, 2);
                check_chunk(&table_shape, &a, &s, 5, 0);

                // Affine bounds: uniform rows behind 3 stream positions no
                // row owns; 11 rows from row 2 leave every lane width a
                // remainder.
                for len in [0, 1, 8, 16, 17] {
                    let s = streams(3 + 13 * len);
                    let bounds = IndexArgs {
                        table: &[],
                        base: 3,
                        slope: len as i64,
                    };
                    let affine = shape(PartitionKind::Rows, IndexKind::Affine, simd);
                    check_chunk(&affine, &args(&s, col_offset, bounds), &s, 2, 11);
                }
            }
        }
    }

    #[test]
    fn every_run_loop_is_bitwise_the_gathering_loop_of_its_class() {
        // Every length around the 4- and 8-lane boundaries, one row as wide
        // as the partition; every third row ends at the last column.
        let lengths = [4, 2, 0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, COLS, 0, 6];
        let table = offsets_of(&lengths);
        let s = run_streams(&lengths);
        let bounds = IndexArgs {
            table: &table,
            base: 0,
            slope: 0,
        };
        let mut classes = vec![SimdClass::Scalar];
        classes.extend(runnable_nnz_classes());
        classes.retain(|&simd| has_run_twin(simd));
        assert!(classes.len() >= 3, "{classes:?}");
        for simd in classes {
            for col_offset in [0, MAX_COL_OFFSET] {
                let a = args(&s, col_offset, bounds);
                let table_shape = shape(PartitionKind::Rows, IndexKind::Table, simd);
                let run_shape = KernelShape {
                    col_index: IndexKind::Run,
                    ..table_shape
                };
                for (first, rows) in [(0, lengths.len()), (2, 9), (5, 0), (14, 3)] {
                    let prefill: Vec<Scalar> = (0..rows).map(|i| 0.5 - i as Scalar).collect();
                    let [gathered, loaded] = [table_shape, run_shape].map(|shape| {
                        let mut out = prefill.clone();
                        rows_loop(&shape).unwrap()(&a, first, &mut out);
                        bits(&out)
                    });
                    assert_eq!(
                        loaded,
                        gathered,
                        "{} on rows {first}..{} (col_offset {col_offset})",
                        run_shape.label(),
                        first + rows
                    );
                }
                // ...which is the per-row reference, bit for bit.
                check_chunk(&run_shape, &a, &s, 0, lengths.len());
            }
        }
    }

    #[test]
    fn every_slab_loop_is_bitwise_the_scalar_loop() {
        // 37 rows in windows of 16 (neither a multiple of 8 nor of the
        // window): empty rows, every length around the lane widths, and in
        // the second window one row longer than the rest of it combined.
        let mut lengths = vec![4, 2, 0, 1, 3, 7, 8, 9, 15, 16, 17, 0, 5, 5, 5, 1];
        lengths.extend([2, 3, 200, 1, 0, 4, 6, 8, 3, 2, 1, 9, 0, 7, 5, 3]);
        lengths.extend([3, 0, 11, 4, 2]);
        let table = offsets_of(&lengths);
        let s = streams(*table.last().unwrap() as usize);
        let bounds = IndexArgs {
            table: &table,
            base: 0,
            slope: 0,
        };
        for simd in runnable_row_classes() {
            let slab = Slab::build(
                simd.lanes(),
                16,
                lengths.len(),
                |row| table[row] as usize..table[row + 1] as usize,
                &s.values,
                &s.col_indices,
            );
            for col_offset in [0, MAX_COL_OFFSET] {
                let a = PartitionArgs {
                    slab: slab.args(),
                    ..args(&s, col_offset, bounds)
                };
                let shape = shape(PartitionKind::Rows, IndexKind::Table, simd);
                for workers in [1, 2, 3, 5] {
                    let cuts = slab.cuts(workers);
                    assert!(cuts
                        .iter()
                        .all(|&cut| cut % 16 == 0 || cut == lengths.len()));
                    for share in cuts.windows(2) {
                        check_chunk(&shape, &a, &s, share[0], share[1] - share[0]);
                    }
                }
            }
        }
        // A slab without non-zeros (an empty `COL_DIV` band past the end of
        // `x`) reads nothing: every row gets exactly its prefill.
        for simd in runnable_row_classes() {
            let slab = Slab::build(simd.lanes(), 16, 21, |_| 0..0, &[], &[]);
            let a = PartitionArgs {
                values: &[],
                col_indices: &[],
                col_starts: &[],
                x: &[],
                col_offset: 6,
                bounds: IndexArgs::IDENTITY,
                slab: slab.args(),
            };
            let mut out = vec![0.5; 21];
            rows_loop(&shape(PartitionKind::Rows, IndexKind::Table, simd)).unwrap()(
                &a, 0, &mut out,
            );
            assert_eq!(out, vec![0.5; 21], "{simd:?}");
        }
    }

    #[test]
    fn every_span_loop_is_bitwise_its_per_segment_reference() {
        let lengths = [4, 2, 0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 0, 6];
        let offsets = offsets_of(&lengths);
        let nnz = *offsets.last().unwrap() as usize;
        let s = streams(nnz);
        let at = |row: usize| offsets[row] as usize;
        // Whole stream; begins and ends mid-row; inside one row; begins at a
        // row start and ends at one; across an empty row; the last non-zero
        // of a row up to the end, over a trailing empty row.
        let spans = [
            (0, nnz),
            (at(5) + 3, at(13) + 20),
            (at(14) + 10, at(14) + 59),
            (at(6), at(9)),
            (at(1) + 1, at(3) + 1),
            (at(14) + 99, nnz),
        ];
        let mut simd_classes = vec![SimdClass::Scalar];
        simd_classes.extend(runnable_nnz_classes());
        for simd in simd_classes {
            for col_offset in [0, MAX_COL_OFFSET] {
                let span_shape = shape(PartitionKind::Nnz, IndexKind::Table, simd);
                let a = args(&s, col_offset, IndexArgs::IDENTITY);
                for (start, end) in spans {
                    // The span's first row, as `run_nnz` resolves it.
                    let row0 = offsets.partition_point(|&o| o as usize <= start) - 1;
                    let mut expected = Vec::new();
                    let (mut row, mut cursor) = (row0, start);
                    loop {
                        let seg_end = at(row + 1).min(end);
                        expected.push(reference(simd, &s, col_offset, cursor, seg_end));
                        cursor = seg_end;
                        if cursor >= end {
                            break;
                        }
                        row += 1;
                    }
                    let sums = nnz_loop(&span_shape).unwrap()(&a, &offsets, row0, start, end);
                    assert_eq!(
                        bits(&sums),
                        bits(&expected),
                        "{} on span {start}..{end} (col_offset {col_offset})",
                        span_shape.label()
                    );
                }
            }
        }
    }

    #[test]
    fn every_resolvable_loop_is_in_the_library() {
        // Every loop the resolve step can produce on this host — all plans,
        // both partition strategies — is in the library, and a row loop sums
        // every row to its reference, bit for bit.
        let lengths = [5, 0, 1, 8, 9, 16, 23, 40, 64, 3, 3, 3];
        let table = offsets_of(&lengths);
        let s = streams(*table.last().unwrap() as usize);
        let bounds = IndexArgs {
            table: &table,
            base: 0,
            slope: 0,
        };
        let slab = Slab::build(
            8,
            16,
            lengths.len(),
            |row| table[row] as usize..table[row + 1] as usize,
            &s.values,
            &s.col_indices,
        );
        for lanes in [1, 2, 3, 4, 8, 16] {
            for lane_mapping in [SimdLaneMapping::Nnz, SimdLaneMapping::Rows] {
                let plan = alpha_graph::SimdPlan {
                    lanes,
                    lane_mapping,
                };
                let rs = ResolvedSimd::resolve(&plan, simd::SimdMode::Auto);
                let simd = SimdClass::classify(&rs, true);
                let mut a = args(&s, 0, bounds);
                if simd.is_row_lanes() {
                    assert_eq!(simd.lanes(), slab.lanes(), "{}", simd.label());
                    a.slab = slab.args();
                }
                let rows = shape(PartitionKind::Rows, IndexKind::Table, simd);
                check_chunk(&rows, &a, &s, 0, lengths.len());
                let nnz = shape(
                    PartitionKind::Nnz,
                    IndexKind::Table,
                    SimdClass::classify(&rs, false),
                );
                assert!(nnz_loop(&nnz).is_ok(), "{}", nnz.label());
            }
        }
    }
}
