//! Lowering a machine-designed format to executable, threaded CPU loops.
//!
//! A [`NativeKernel`] is built from the same inputs as the simulator kernel —
//! the Designer's [`MatrixMetadataSet`] and the extracted [`MachineFormat`] —
//! but instead of charging modelled costs it runs the SpMV.  There is exactly
//! **one execution path**: every partition's [`KernelShape`] is resolved at
//! build time against the monomorphized library in [`crate::specialized`],
//! and runs dispatch the resulting straight-line loops on a persistent
//! [`Pool`].  A shape outside the library is a build error
//! ([`KernelBuildError::UnsupportedShape`]), never a slower fallback.
//!
//! * **row-partition loops** for `BMT_ROW_BLOCK` / `BMT_COL_BLOCK` designs:
//!   contiguous local-row ranges are split across workers at **nnz-balanced**
//!   boundaries cached at build time (so skewed, power-law matrices keep
//!   their workers evenly loaded); each worker accumulates one dot product
//!   per row;
//! * **nnz-partition loops** for `BMT_NNZ_BLOCK` designs: the design's
//!   fixed-size non-zero chunks are grouped across workers, each worker walks
//!   its span emitting one partial per row segment (the merge/CSR5 layout);
//!   boundary rows are merged by accumulation during the scatter phase;
//! * **closed-form index functions**: an index array that Model-Driven Format
//!   Compression replaced with an identity/affine model is *computed*, not
//!   loaded; any other fitted model is materialised into a lookup table once,
//!   at lowering ([`IndexFn::from_array`]), so the hot loops only ever see
//!   "affine arithmetic" or "table";
//! * **column runs**: a row partition whose every row's columns are one
//!   contiguous run reads one start column per row
//!   ([`CsrMatrix::column_runs`]) and loads `x` contiguously — decided from
//!   the sub-matrix, like an affine map, never by a plan
//!   ([`IndexKind::Run`]);
//! * **row-lane slabs**: a row partition bound to a row-lane loop runs on a
//!   length-sorted, column-major copy of its streams (`kernel/slab.rs`),
//!   built at the bind and owned by the partition, with worker cuts at the
//!   slab's window boundaries.  When `origin_rows` permutes a block of `y`
//!   (a SORT, SORT_SUB or BIN design) the slab is built over output rows, so
//!   the permutation is folded into the copy and the loop writes `y` in
//!   place.
//!
//! A worker writes its own slice of `y` in place where the origin is a pure
//! offset, or a slab absorbed the permutation; otherwise workers communicate
//! only through their return values (per-range partial sums), and the serial
//! scatter applies the `origin_rows` permutation and merges rows shared
//! between workers or `COL_DIV` sibling partitions by `+=`.
//! [`NativeKernel::run`] / [`NativeKernel::run_into`] use the process-wide
//! shared pool, the `_with_pool` variants an explicit one; no run ever spawns
//! a thread.

use crate::simd::{ResolvedSimd, SimdMode};
use crate::specialized::{
    self, ChunkFn, IndexArgs, IndexKind, KernelShape, PartitionArgs, PartitionKind, ScatterFn,
    SimdClass, SlabArgs, SpanFn,
};
use alpha_codegen::compress::CompressedArray;
use alpha_codegen::{CompressionModel, FormatArray, MachineFormat, PartitionFormat};
use alpha_graph::{Mapping, MatrixMetadataSet, PartitionPlan};
use alpha_matrix::{CsrMatrix, Scalar};
use alpha_parallel::Pool;
use alpha_telemetry::Histogram;
use slab::Slab;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

mod identity;
mod select;
pub(crate) mod slab;

pub use identity::Program;
pub use select::{plans_from_label, LoopChoice};

/// Non-zeros one scalar worker should own, at minimum, before another pooled
/// worker is worth engaging.
///
/// The arithmetic, from the repo benchmark on its reference host (2 vCPUs;
/// `parallel.dispatch_us` owns the dispatch figures, `cpu.small_1t_us` and
/// `cpu.large_1t_ns_per_nnz` the loop rate; re-measured after the dots were
/// inlined into their row loops):
///
/// * One thread retires a non-zero in 0.5-0.75 ns (L2-resident) to 0.8 ns
///   (streaming), so a 16 384-nnz share is 8-13 µs of work.
/// * **Hot** (the kernel is called in a loop and the worker is still polling
///   from the previous call): a fork-join costs 0.9 µs, 7-11 % of that share.
///   Break-even is near 1 400 nnz per worker; the constant is 12x above it.
/// * **Parked** (calls more than 60 µs apart): the submitter pays one `futex`
///   wake, about 6 µs, and the woken worker needs about 35 µs to get on a
///   core.  A job that is over by then is finished by the caller at serial
///   speed (its worker slot is retracted, never waited for), so the smallest
///   two-worker job (2 x 16 384 nnz, 21 µs serial) loses at most 6 µs (28 %)
///   and jobs above roughly 54 000 nnz start to gain.
///
/// A lower constant would let the parked overhead exceed the job itself
/// (4 096: 6 µs on a 5.3 µs job); a higher one would run the 32k-90k nnz
/// jobs serially and forfeit their hot gain (the benchmark's small class,
/// 65 536 nnz, runs 43 µs on one thread and 36 µs on two).  The faster loops
/// moved every figure by about a fifth and none across its threshold, so
/// 16 384 stays.
pub const MIN_NNZ_PER_WORKER: usize = 16_384;

/// Columns of `x` a vector loop can address: its gathers take signed 32-bit
/// indices (`col + col_offset` computed in `i32`).
const GATHER_EXTENT: usize = 1 << 31;

/// Resolves a requested thread count: `0` means "automatic" — one worker per
/// available core, but never more than [`MIN_NNZ_PER_WORKER`] would justify
/// for `nnz` non-zeros.  A kernel whose loop advances `lanes > 1` non-zeros
/// per step doubles that minimum: every loop selection measures the
/// vector-to-scalar ratio, and on gather-bound SpMV it reads 1.0-2.1x (median
/// 1.26x over 90 single-thread readings; the three above 2.0 are L2-resident
/// regular 16-nnz rows at 2.01-2.14x, inside the timing noise of the bound),
/// never `lanes`x — so the point where another worker pays shifts out by at most 2
/// (the count has to follow from the kernel's shape alone, not from a
/// measurement, or a design lowered from its recorded label would split its
/// work differently from the one that was measured).  Scalar kernels and the
/// baselines pass `lanes = 1`.  Explicit counts are honoured verbatim.
pub fn effective_workers(threads: usize, nnz: usize, lanes: usize) -> usize {
    if threads == 0 {
        let per_worker = MIN_NNZ_PER_WORKER * if lanes > 1 { 2 } else { 1 };
        alpha_parallel::default_threads()
            .min(nnz.div_ceil(per_worker))
            .max(1)
    } else {
        threads
    }
}

/// A format index array as the native kernel reads it: a closed-form
/// function Model-Driven Format Compression fitted, or a lookup table.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexFn {
    /// `f(i) = i` — the compressed identity permutation.
    Identity,
    /// `f(i) = base + slope * i` — a fitted linear model with no exceptions.
    Affine {
        /// Value at index 0.
        base: i64,
        /// Increment per index.
        slope: i64,
    },
    /// Any other fitted model (step, periodic, or one with patched
    /// exceptions), evaluated over its whole domain into a lookup table at
    /// lowering.  The *format* still stores no array — the table is a
    /// build-time cache that keeps per-element model dispatch out of the hot
    /// loop — so the design's compression accounting is unchanged.
    Model(Vec<u32>),
    /// The raw array — compression did not apply, the loads are real.
    Table(Vec<u32>),
}

/// Evaluates a fitted model over `[0, len)`: the bare model first, then the
/// exception patches on top (first patch of an index wins, as in
/// [`CompressedArray::evaluate`]) — linear in `len`, not `len × exceptions`.
fn materialise(compressed: &CompressedArray, len: usize) -> Vec<u32> {
    let bare = CompressedArray {
        model: compressed.model.clone(),
        exceptions: Vec::new(),
    };
    let mut table: Vec<u32> = (0..len).map(|i| bare.evaluate(i)).collect();
    for &(i, v) in compressed.exceptions.iter().rev() {
        if let Some(slot) = table.get_mut(i) {
            *slot = v;
        }
    }
    table
}

impl IndexFn {
    /// Lowers a format array into its access function.
    pub fn from_array(array: &FormatArray) -> IndexFn {
        let Some(c) = &array.compressed else {
            return IndexFn::Table(array.data.clone());
        };
        match (&c.model, c.exceptions.is_empty()) {
            (CompressionModel::Linear { base: 0, slope: 1 }, true) => IndexFn::Identity,
            (&CompressionModel::Linear { base, slope }, true) => IndexFn::Affine { base, slope },
            _ => IndexFn::Model(materialise(c, array.data.len())),
        }
    }

    /// Reads entry `i`.
    ///
    /// An affine map that computes a negative value is a corrupt design, not
    /// index 0: kernel builds reject it up front with
    /// [`KernelBuildError::NegativeIndex`], and this accessor only debug-asserts
    /// the invariant instead of silently clamping.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            IndexFn::Identity => i as u32,
            IndexFn::Affine { base, slope } => {
                let v = base + slope * i as i64;
                debug_assert!(
                    v >= 0,
                    "affine index map produced negative index f({i}) = {v}; \
                     corrupt designs must be rejected at kernel build"
                );
                v as u32
            }
            IndexFn::Model(table) | IndexFn::Table(table) => table[i],
        }
    }

    /// The map as a monomorphized loop reads it (see [`IndexArgs`]).
    pub(crate) fn args(&self) -> IndexArgs<'_> {
        match self {
            IndexFn::Model(table) | IndexFn::Table(table) => IndexArgs {
                table,
                base: 0,
                slope: 0,
            },
            IndexFn::Identity => IndexArgs::IDENTITY,
            IndexFn::Affine { base, slope } => IndexArgs {
                table: &[],
                base: *base,
                slope: *slope,
            },
        }
    }

    /// Validates that an affine map stays non-negative over `[0, domain)` —
    /// the build-time guard behind the debug assertion in [`IndexFn::get`].
    /// Non-affine kinds are vacuously valid (tables hold `u32`s; identity
    /// cannot go negative).
    fn validate_domain(
        &self,
        domain: usize,
        partition: usize,
        array: &'static str,
    ) -> Result<(), KernelBuildError> {
        if let IndexFn::Affine { base, slope } = self {
            if domain == 0 {
                return Ok(());
            }
            let at_start = *base;
            let at_end = base + slope * (domain as i64 - 1);
            let (index, value) = if at_start <= at_end {
                (0, at_start)
            } else {
                (domain - 1, at_end)
            };
            if value < 0 {
                return Err(KernelBuildError::NegativeIndex {
                    partition,
                    array,
                    index,
                    value,
                });
            }
        }
        Ok(())
    }

    /// True when the design eliminated the array — the format stores a model,
    /// not the data (a [`IndexFn::Model`]'s table is a build-time cache).
    pub fn is_closed_form(&self) -> bool {
        !matches!(self, IndexFn::Table(_))
    }

    /// When this map is `f(i) = base + i` (no reordering, only an offset),
    /// returns `base`: consumers can then address a contiguous output range
    /// directly instead of scattering through the map.
    pub fn contiguous_base(&self) -> Option<usize> {
        match self {
            IndexFn::Identity => Some(0),
            IndexFn::Affine { base, slope: 1 } if *base >= 0 => Some(*base as usize),
            _ => None,
        }
    }
}

/// A design that cannot be lowered into a valid native kernel.  These are
/// build-time rejections — a well-formed design from the generator never
/// triggers them — surfaced as typed errors so the evaluator can mark the
/// candidate infeasible instead of executing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelBuildError {
    /// Metadata and format describe different partition counts.
    PartitionMismatch {
        /// Partitions in the designed metadata.
        metadata: usize,
        /// Partitions in the extracted format.
        format: usize,
    },
    /// An affine index map computes a negative index somewhere in its
    /// domain — a corrupt compression model, not a request for index 0.
    NegativeIndex {
        /// Partition the corrupt array belongs to.
        partition: usize,
        /// Which index array is corrupt.
        array: &'static str,
        /// First domain position where the map goes negative.
        index: usize,
        /// The negative value the map computes there.
        value: i64,
    },
    /// The partition's shape has no entry in the monomorphized kernel
    /// library, and there is no other executor to fall back to.
    UnsupportedShape(KernelShape),
    /// A partition with non-zeros reads columns
    /// `col_offset..col_offset + cols` of `x`, which must lie inside the
    /// matrix's `original_cols` — and inside the `i32` range the vector
    /// loops' gathers index with.  The scalar loop would panic on such a
    /// partition; a gather would read outside `x`.
    ColumnsOutOfRange {
        /// Partition that reads outside `x`.
        partition: usize,
        /// Its first column in the original matrix.
        col_offset: usize,
        /// Its sub-matrix's column count.
        cols: usize,
        /// Columns of the original matrix (the length of `x`).
        original_cols: usize,
    },
}

impl std::fmt::Display for KernelBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelBuildError::PartitionMismatch { metadata, format } => write!(
                f,
                "metadata describes {metadata} partition(s) but the format has {format}"
            ),
            KernelBuildError::NegativeIndex {
                partition,
                array,
                index,
                value,
            } => write!(
                f,
                "partition {partition}: affine {array} map computes negative index \
                 f({index}) = {value} — corrupt design"
            ),
            KernelBuildError::UnsupportedShape(shape) => write!(
                f,
                "kernel shape {} is not in the monomorphized library",
                shape.label()
            ),
            KernelBuildError::ColumnsOutOfRange {
                partition,
                col_offset,
                cols,
                original_cols,
            } => write!(
                f,
                "partition {partition}: columns {col_offset}..{} lie outside the \
                 matrix's {original_cols} columns — corrupt design",
                col_offset.saturating_add(*cols)
            ),
        }
    }
}

impl std::error::Error for KernelBuildError {}

/// Row boundaries (length `workers + 1`, first entry 0, last entry `rows`)
/// splitting the rows of a partition so every piece owns ≈
/// `total_nnz / workers` non-zeros.  Computed from the CSR prefix sums: the
/// boundary for worker `w` is the first row whose cumulative non-zero count
/// reaches `w / workers` of the total.
fn balanced_row_cuts(offsets: &[u32], workers: usize) -> Vec<usize> {
    let rows = offsets.len().saturating_sub(1);
    let workers = workers.clamp(1, rows.max(1));
    let total = offsets.last().copied().unwrap_or(0) as usize;
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(0);
    for w in 1..workers {
        let target = (total * w) / workers;
        // First row boundary at or above the target...
        let above = offsets.partition_point(|&o| (o as usize) < target);
        // ...but the boundary just below may sit closer (rows are atomic, so
        // the best reachable split is whichever side of the target is
        // nearer).
        let cut = if above > 0
            && target - offsets[above - 1] as usize
                <= offsets.get(above).map_or(usize::MAX, |&o| o as usize) - target
        {
            above - 1
        } else {
            above
        };
        cuts.push(cut.clamp(*cuts.last().expect("cuts start at 0"), rows));
    }
    cuts.push(rows);
    cuts
}

/// Nnz-balanced row boundaries for every worker count up to the host's core
/// count, computed **once** at kernel build time from prefix sums of
/// non-zeros per split unit: the partition's row offsets (a unit is a row),
/// or a row-lane slab's window totals (a unit is a window, so every cut is a
/// window boundary).
///
/// Equal-*row* splitting serialises skewed matrices — a power-law partition
/// puts most of its non-zeros in a few rows, so one worker owns almost all
/// the work while the rest finish instantly and wait.  Splitting at
/// equal-*nnz* boundaries keeps per-worker work even regardless of the
/// row-length distribution; caching the boundaries keeps the binary searches
/// off the per-run hot path.
#[derive(Debug, Clone)]
struct BalancedRowCuts {
    /// Rows per split unit.
    unit: usize,
    /// Rows of the partition.
    rows: usize,
    /// `per_count[w - 1]` holds the boundaries for `w` workers.
    per_count: Vec<Vec<usize>>,
}

impl BalancedRowCuts {
    /// The cuts over units of `unit` rows, `bounds[u]` the non-zeros before
    /// unit `u` (the last unit may be short of `unit` rows).
    fn build(bounds: &[u32], unit: usize, rows: usize) -> Self {
        let max_workers = alpha_parallel::default_threads().max(1);
        let mut cuts = BalancedRowCuts {
            unit,
            rows,
            per_count: Vec::new(),
        };
        cuts.per_count = (1..=max_workers)
            .map(|workers| cuts.compute(bounds, workers))
            .collect();
        cuts
    }

    fn compute(&self, bounds: &[u32], workers: usize) -> Vec<usize> {
        let mut cuts = balanced_row_cuts(bounds, workers);
        for cut in &mut cuts {
            *cut = (*cut * self.unit).min(self.rows);
        }
        cuts
    }

    /// The boundaries for `workers`: cached within the host's core count,
    /// computed from the same `bounds` above it.
    fn get(&self, bounds: &[u32], workers: usize) -> Cow<'_, [usize]> {
        match self.per_count.get(workers.wrapping_sub(1)) {
            Some(cached) => Cow::Borrowed(cached),
            None => Cow::Owned(self.compute(bounds, workers)),
        }
    }
}

/// How one partition executes: the loop its [`KernelShape`] resolved to in
/// the monomorphized library — a plain function pointer, called once per
/// worker chunk/span, never per row or per non-zero — plus the state that
/// loop's work split needs.
#[derive(Debug, Clone)]
enum PartitionExec {
    /// Row-partition loop (`BMT_ROW_BLOCK` / `BMT_COL_BLOCK` designs).
    Rows {
        chunk: ChunkFn,
        /// Row addressing (the `row_offsets` array, closed-form for regular
        /// matrices whose rows all have the same length).
        row_offsets: IndexFn,
        /// Build-time nnz-balanced worker boundaries (a row-lane loop cuts
        /// at its slab's windows instead).
        cuts: BalancedRowCuts,
    },
    /// Nnz-partition loop (`BMT_NNZ_BLOCK` designs).
    Nnz {
        span: SpanFn,
        /// Non-zeros per design chunk (workers own groups of whole chunks).
        nnz_per_thread: usize,
        /// First row of each chunk (`bmt_row_starts`).  Resolved once per
        /// worker span, never per element.
        row_starts: IndexFn,
    },
}

#[derive(Debug)]
struct NativePartition {
    /// The partition's permuted sub-matrix (value and column-index streams):
    /// the allocation the Designer built, shared with the plan it came from.
    matrix: Arc<CsrMatrix>,
    /// Column offset of a `COL_DIV` branch in the original matrix.
    col_offset: usize,
    /// Local row → original row (the `origin_rows` array, often closed-form).
    origin: IndexFn,
    exec: PartitionExec,
    /// The output merge through `origin` (unused where a partition runs in
    /// place, [`NativePartition::in_place_base`]).
    scatter: ScatterFn,
    /// Vectorization decision resolved from the partition's `SimdPlan`, the
    /// build [`SimdMode`] and the host's feature probe.
    simd: ResolvedSimd,
    /// This partition's coordinates in the shape lattice.
    shape: KernelShape,
    /// The slab a row-lane loop runs on, built when one is bound (and kept
    /// while loop selection rebinds other candidates; a finished kernel
    /// whose loop is not row lanes holds none).
    slab: Option<Slab>,
    /// Index arrays of this partition the design replaced with fitted models.
    closed_form_arrays: usize,
}

/// One partition's coordinates in the shape lattice under a vectorization
/// decision: everything but `simd` is fixed by the format and the sub-matrix
/// (`matrix`: a row partition reads column runs when it has a non-zero —
/// only then has `ColumnsOutOfRange` bounded the columns it reads — and
/// every row's columns are one run, [`CsrMatrix::column_runs`]).
fn shape_for(
    partition: PartitionKind,
    bounds: &IndexFn,
    origin: &IndexFn,
    matrix: &CsrMatrix,
    simd: &ResolvedSimd,
) -> KernelShape {
    let simd = SimdClass::classify(simd, partition == PartitionKind::Rows);
    let run = partition == PartitionKind::Rows
        && matrix.nnz() > 0
        && specialized::has_run_twin(simd)
        && matrix.column_runs().is_some();
    KernelShape {
        partition,
        bounds: IndexKind::of(bounds),
        origin: IndexKind::of(origin),
        col_index: if run {
            IndexKind::Run
        } else {
            IndexKind::Table
        },
        simd,
    }
}

impl NativePartition {
    /// Lowers everything of one partition that the format fixes — streams,
    /// index maps (validated over their domains, so the hot loops need no
    /// clamp), the columns of `x` it reads (inside `original_cols`, which
    /// run validates `x` against, so no loop reads outside `x`), work split —
    /// with the scalar loop bound; [`NativePartition::bind`] picks the loop
    /// that runs.
    fn new(
        index: usize,
        plan: &PartitionPlan,
        pf: &PartitionFormat,
        original_cols: usize,
    ) -> Result<Self, KernelBuildError> {
        // Every column index is below the sub-matrix's `cols` (a `CsrMatrix`
        // invariant); an empty partition reads no column at all.
        let read_end = plan.col_offset.checked_add(plan.matrix.cols());
        if plan.matrix.nnz() > 0
            && !read_end.is_some_and(|end| end <= original_cols && end <= GATHER_EXTENT)
        {
            return Err(KernelBuildError::ColumnsOutOfRange {
                partition: index,
                col_offset: plan.col_offset,
                cols: plan.matrix.cols(),
                original_cols,
            });
        }
        let mut closed_form_arrays = 0;
        let mut lookup = |name: &'static str, domain: usize| -> Result<IndexFn, KernelBuildError> {
            let f = pf
                .array(name)
                .map(IndexFn::from_array)
                .unwrap_or(IndexFn::Identity);
            f.validate_domain(domain, index, name)?;
            closed_form_arrays += f.is_closed_form() as usize;
            Ok(f)
        };
        let rows = plan.matrix.rows();
        let origin = lookup("origin_rows", rows)?;
        let row_offsets = lookup("row_offsets", rows + 1)?;
        let simd = ResolvedSimd::scalar();
        let (shape, exec) = match plan.mapping {
            Mapping::RowPerThread { .. } | Mapping::VectorPerRow { .. } => {
                let shape = shape_for(
                    PartitionKind::Rows,
                    &row_offsets,
                    &origin,
                    &plan.matrix,
                    &simd,
                );
                let exec = PartitionExec::Rows {
                    chunk: specialized::rows_loop(&shape)?,
                    row_offsets,
                    cuts: BalancedRowCuts::build(plan.matrix.row_offsets(), 1, rows),
                };
                (shape, exec)
            }
            Mapping::NnzSplit { nnz_per_thread } => {
                let nnz_per_thread = nnz_per_thread.max(1);
                let chunks = plan.matrix.nnz().div_ceil(nnz_per_thread).max(1);
                let row_starts = lookup("bmt_row_starts", chunks)?;
                let shape = shape_for(
                    PartitionKind::Nnz,
                    &row_starts,
                    &origin,
                    &plan.matrix,
                    &simd,
                );
                let exec = PartitionExec::Nnz {
                    span: specialized::nnz_loop(&shape)?,
                    nnz_per_thread,
                    row_starts,
                };
                (shape, exec)
            }
        };
        Ok(NativePartition {
            matrix: plan.matrix.clone(),
            col_offset: plan.col_offset,
            scatter: specialized::scatter_loop(shape.origin),
            origin,
            exec,
            simd,
            shape,
            slab: None,
            closed_form_arrays,
        })
    }

    /// Binds the partition's inner loop: computes its [`KernelShape`] under
    /// `simd` and resolves it against the library, which pre-resolves every
    /// inner-loop decision into a monomorphized function pointer.
    fn bind(&mut self, simd: ResolvedSimd) -> Result<(), KernelBuildError> {
        match &mut self.exec {
            PartitionExec::Rows {
                chunk, row_offsets, ..
            } => {
                self.shape = shape_for(
                    PartitionKind::Rows,
                    row_offsets,
                    &self.origin,
                    &self.matrix,
                    &simd,
                );
                *chunk = specialized::rows_loop(&self.shape)?;
                let lanes = self.shape.simd.lanes();
                if self.shape.simd.is_row_lanes()
                    && self.slab.as_ref().map(Slab::lanes) != Some(lanes)
                {
                    self.slab = Some(Slab::new(lanes, &self.matrix, &self.origin));
                }
            }
            PartitionExec::Nnz {
                span, row_starts, ..
            } => {
                self.shape = shape_for(
                    PartitionKind::Nnz,
                    row_starts,
                    &self.origin,
                    &self.matrix,
                    &simd,
                );
                *span = specialized::nnz_loop(&self.shape)?;
            }
        }
        self.simd = simd;
        Ok(())
    }

    /// The slab the bound loop runs on: `Some` exactly when it is a row-lane
    /// loop.
    fn slab(&self) -> Option<&Slab> {
        self.slab
            .as_ref()
            .filter(|_| self.shape.simd.is_row_lanes())
    }

    /// The first row of the slice of `y` this partition's row loop writes in
    /// place: a pure offset's, or a block's whose permutation the bound slab
    /// absorbed.  `None` means the loop stages partials and scatters them.
    fn in_place_base(&self) -> Option<usize> {
        match self.slab() {
            Some(slab) => slab.output_base(),
            None => self.origin.contiguous_base(),
        }
    }

    /// The runtime arguments of this partition's loops, borrowing the
    /// streams for one execution.
    fn args<'a>(&'a self, x: &'a [Scalar], bounds: IndexArgs<'a>) -> PartitionArgs<'a> {
        PartitionArgs {
            slab: self.slab().map_or(SlabArgs::EMPTY, Slab::args),
            values: self.matrix.values(),
            col_indices: self.matrix.col_indices(),
            col_starts: match self.shape.col_index {
                IndexKind::Run => self.matrix.column_runs().unwrap_or_default(),
                _ => &[],
            },
            x,
            col_offset: self.col_offset,
            bounds,
        }
    }

    /// Accumulates this partition's share of `y += A·x`, split `workers`
    /// ways.  `only` narrows the run to one worker's share of that split,
    /// executed inline (loop selection times shares one by one); returns how
    /// many shares the split has.
    fn run(
        &self,
        x: &[Scalar],
        y: &mut [Scalar],
        workers: usize,
        pool: &Pool,
        only: Option<usize>,
    ) -> usize {
        match &self.exec {
            PartitionExec::Rows {
                chunk,
                row_offsets,
                cuts,
            } => run_rows(self, *chunk, row_offsets, cuts, x, y, workers, pool, only),
            PartitionExec::Nnz {
                span,
                nnz_per_thread,
                row_starts,
            } => run_nnz(
                self,
                *span,
                *nnz_per_thread,
                row_starts,
                x,
                y,
                workers,
                pool,
                only,
            ),
        }
    }
}

/// All worker shares of a split, or just share `only` of it (which the pool
/// then runs inline: a one-element job is never dispatched).
fn narrow<T>(shares: Vec<T>, only: Option<usize>) -> Vec<T> {
    match only {
        None => shares,
        Some(share) => shares.into_iter().skip(share).take(1).collect(),
    }
}

/// Deduplicates adjacent per-partition labels and joins them with `|`
/// (branched designs whose partitions differ); `empty` names a kernel with
/// no partitions.
fn joined_labels(labels: impl Iterator<Item = String>, empty: &str) -> String {
    let mut labels: Vec<String> = labels.collect();
    labels.dedup();
    if labels.is_empty() {
        empty.to_string()
    } else {
        labels.join("|")
    }
}

/// A machine-designed SpMV program lowered to native threaded CPU loops.
pub struct NativeKernel {
    partitions: Vec<NativePartition>,
    rows: usize,
    cols: usize,
    nnz: usize,
    format_bytes: usize,
    name: String,
    /// Widest lane count across partitions (1 = fully scalar); feeds the
    /// lane-aware worker threshold.
    max_lanes: usize,
    /// Index arrays the design replaced with fitted models.
    closed_form_arrays: usize,
    simd_label: String,
    /// `cpu_kernel_run_us{simd=..., path=...}` — the run-latency histogram,
    /// resolved **once** at build so the hot path pays two clock reads and a
    /// few relaxed atomics.  `None` on a [`NativeKernel::without_telemetry`]
    /// twin (the overhead-measurement baseline).
    run_hist: Option<Histogram>,
}

impl NativeKernel {
    /// Lowers the designed metadata plus extracted format into executable
    /// loops — the same two inputs the simulator kernel is built from.
    /// Vectorization follows each partition's `SimdPlan` and the host probe
    /// ([`SimdMode::Auto`]); use [`NativeKernel::with_simd_mode`] to force
    /// scalar execution.  Panics on corrupt inputs — use
    /// [`NativeKernel::try_new`] where a typed rejection is wanted.
    pub fn new(metadata: &MatrixMetadataSet, format: &MachineFormat) -> Self {
        Self::with_simd_mode(metadata, format, SimdMode::Auto)
    }

    /// [`NativeKernel::new`], rejecting corrupt designs and shapes outside
    /// the kernel library with a typed [`KernelBuildError`] instead of
    /// panicking.
    pub fn try_new(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
    ) -> Result<Self, KernelBuildError> {
        Self::lower(metadata, format, SimdMode::Auto)
    }

    /// [`NativeKernel::new`] with an explicit [`SimdMode`] — benches build a
    /// [`SimdMode::ForceScalar`] twin of a vectorized kernel this way to
    /// measure the SIMD win without mutating the process environment.
    pub fn with_simd_mode(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
        mode: SimdMode,
    ) -> Self {
        Self::lower(metadata, format, mode)
            .expect("designs from the generator lower to valid kernels")
    }

    /// The complete lowering as designed: every partition's loop follows
    /// its plan's [`SimdPlan`](alpha_graph::SimdPlan), the build
    /// [`SimdMode`] and the host probe.
    fn lower(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
        simd_mode: SimdMode,
    ) -> Result<Self, KernelBuildError> {
        Self::lower_with(metadata, format, |plan, partition| {
            partition.bind(ResolvedSimd::resolve(&plan.simd, simd_mode))
        })
    }

    /// The one lowering path: validates every index map's domain, lowers
    /// each partition's streams and work split, lets `bind` pick its inner
    /// loop (a [`NativePartition::bind`] call — the loop always comes out of
    /// the monomorphized library), and assembles the kernel.
    fn lower_with(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
        mut bind: impl FnMut(&PartitionPlan, &mut NativePartition) -> Result<(), KernelBuildError>,
    ) -> Result<Self, KernelBuildError> {
        if metadata.partitions.len() != format.partitions.len() {
            return Err(KernelBuildError::PartitionMismatch {
                metadata: metadata.partitions.len(),
                format: format.partitions.len(),
            });
        }
        let mut partitions = Vec::with_capacity(metadata.partitions.len());
        for (index, (plan, pf)) in metadata
            .partitions
            .iter()
            .zip(&format.partitions)
            .enumerate()
        {
            let mut partition = NativePartition::new(index, plan, pf, metadata.original_cols)?;
            bind(plan, &mut partition)?;
            partitions.push(partition);
        }
        Ok(Self::assemble(partitions, metadata, format))
    }

    /// Wraps bound partitions into a kernel: the figures and labels every
    /// run and report reads are derived here, once, from the loops that
    /// were actually bound.
    fn assemble(
        mut partitions: Vec<NativePartition>,
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
    ) -> Self {
        for p in &mut partitions {
            if !p.shape.simd.is_row_lanes() {
                p.slab = None;
            }
        }
        let max_lanes = partitions
            .iter()
            .map(|p| p.shape.simd.lanes())
            .max()
            .unwrap_or(1);
        let name = format!(
            "alpha-cpu[{}]",
            metadata
                .partitions
                .first()
                .map(|p| p.describe())
                .unwrap_or_else(|| "empty".to_string())
        );
        // Resolve the run-latency histogram handle now, not per run: the
        // labels (resolved SIMD backend + partition strategy) are fixed for
        // the kernel's lifetime, so runs touch only atomics.
        let simd_label = joined_labels(partitions.iter().map(|p| p.simd.label()), "scalar");
        let has = |kind| partitions.iter().any(|p| p.shape.partition == kind);
        let path_label = match (has(PartitionKind::Rows), has(PartitionKind::Nnz)) {
            (true, true) => "mixed",
            (false, true) => "nnz",
            _ => "rows",
        };
        let run_hist = Some(alpha_telemetry::global().histogram(
            "cpu_kernel_run_us",
            &[("simd", &simd_label), ("path", path_label)],
        ));
        // A run partition reads 4 bytes of start column per row in place of
        // its 4-byte column stream; a row-lane partition reads its slab in
        // place of both streams.
        let (streams, read) = partitions.iter().zip(&format.partitions).fold(
            (0, 0),
            |(streams, read), (p, pf)| match (&p.slab, p.shape.col_index) {
                (Some(slab), _) => (streams + 8 * pf.padded_nnz, read + slab.bytes()),
                (None, IndexKind::Run) => (streams + 4 * pf.padded_nnz, read + 4 * p.matrix.rows()),
                (None, _) => (streams, read),
            },
        );
        NativeKernel {
            closed_form_arrays: partitions.iter().map(|p| p.closed_form_arrays).sum(),
            partitions,
            rows: metadata.original_rows,
            cols: metadata.original_cols,
            nnz: metadata.original_nnz,
            format_bytes: format.bytes() - streams + read,
            name,
            max_lanes,
            simd_label,
            run_hist,
        }
    }

    /// Returns this kernel with run-latency telemetry detached: runs skip
    /// the clock reads and histogram updates entirely.  This is the twin
    /// the repo benchmark measures against to report
    /// `telemetry.kernel_overhead_pct`.
    pub fn without_telemetry(mut self) -> Self {
        self.run_hist = None;
        self
    }

    /// True when at least one partition runs a multi-lane kernel.
    pub fn is_vectorized(&self) -> bool {
        self.max_lanes > 1
    }

    /// Widest lane count across partitions (1 = fully scalar).
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// Label of the resolved vectorization, e.g. `avx2-nnz-x8` or
    /// `scalar`; branched designs with differing decisions join them with
    /// `|`.  Recorded in bench results next to the host's CPU feature
    /// summary.
    pub fn simd_label(&self) -> &str {
        &self.simd_label
    }

    /// Label of each partition's [`KernelShape`] (deduped, joined with `|`),
    /// e.g. `rows[off:affine,org:id,col:table]:avx2-nnz-x8`.  Persisted
    /// with design-store winners and recorded in bench results.
    pub fn shape_label(&self) -> String {
        joined_labels(self.partitions.iter().map(|p| p.shape.label()), "none")
    }

    /// Output dimension (`y.len()`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension (`x.len()`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zeros of the original matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Useful floating-point operations of one execution (`2 * nnz`).
    pub fn useful_flops(&self) -> u64 {
        2 * self.nnz as u64
    }

    /// Bytes of the machine-designed format as this kernel reads it:
    /// compressed arrays counted at their model size, a run partition's
    /// column stream at 4 bytes per row of start columns, and a row-lane
    /// partition's value and column streams as its slab (the streams
    /// reordered, plus 8 bytes per row and 4 per lane group).
    pub fn format_bytes(&self) -> usize {
        self.format_bytes
    }

    /// Kernel display name (mirrors the simulator kernel's).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of index arrays across partitions that the design replaced
    /// with closed-form functions instead of stored data.
    pub fn closed_form_arrays(&self) -> usize {
        self.closed_form_arrays
    }

    /// The worker count a run with this `threads` request actually uses:
    /// `0` scales with this kernel's non-zeros and lane width (see
    /// [`effective_workers`]), explicit counts are honoured verbatim.  The
    /// run path and every report that echoes a thread count share this.
    pub fn workers_for(&self, threads: usize) -> usize {
        effective_workers(threads, self.nnz, self.max_lanes)
    }

    /// Runs `y = A·x`, allocating the output.  `threads == 0` means one
    /// worker per available CPU core (scaled down for small matrices), `1`
    /// runs serially.
    ///
    /// Executes on the process-wide shared [`Pool`] — repeated runs reuse
    /// the same parked workers and **never spawn threads**.
    pub fn run(&self, x: &[Scalar], threads: usize) -> Result<Vec<Scalar>, String> {
        self.run_with_pool(x, threads, Pool::shared())
    }

    /// Runs `y = A·x` into a caller-provided buffer (zeroed here first) —
    /// the allocation-free path the timing harness drives.  Pooled, like
    /// [`NativeKernel::run`].
    pub fn run_into(&self, x: &[Scalar], y: &mut [Scalar], threads: usize) -> Result<(), String> {
        self.run_into_with_pool(x, y, threads, Pool::shared())
    }

    /// [`NativeKernel::run`] on an explicit persistent [`Pool`] (e.g. a
    /// daemon's dedicated execution pool or an evaluator's private pool).
    /// The pool decides how many of the [`NativeKernel::workers_for`] shares
    /// run at once, never the shares themselves: `y` is bitwise the same on
    /// every pool.
    pub fn run_with_pool(
        &self,
        x: &[Scalar],
        threads: usize,
        pool: &Pool,
    ) -> Result<Vec<Scalar>, String> {
        let mut y = vec![0.0; self.rows];
        self.run_into_with_pool(x, &mut y, threads, pool)?;
        Ok(y)
    }

    /// [`NativeKernel::run_into`] on an explicit persistent [`Pool`]:
    /// validates dimensions and executes every partition with
    /// [`NativeKernel::workers_for`]-way partitioning.
    pub fn run_into_with_pool(
        &self,
        x: &[Scalar],
        y: &mut [Scalar],
        threads: usize,
        pool: &Pool,
    ) -> Result<(), String> {
        if x.len() != self.cols {
            return Err(format!(
                "input vector has length {}, matrix has {} columns",
                x.len(),
                self.cols
            ));
        }
        if y.len() != self.rows {
            return Err(format!(
                "output vector has length {}, matrix has {} rows",
                y.len(),
                self.rows
            ));
        }
        let workers = self.workers_for(threads);
        y.fill(0.0);
        let started = self.run_hist.as_ref().map(|_| Instant::now());
        // Partitions run one after another (their outputs may overlap under
        // COL_DIV); the parallelism lives inside each partition.
        for p in &self.partitions {
            p.run(x, y, workers, pool, None);
        }
        if let (Some(hist), Some(started)) = (self.run_hist.as_ref(), started) {
            hist.observe_duration(started.elapsed());
        }
        Ok(())
    }
}

impl std::fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeKernel")
            .field("name", &self.name)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.nnz)
            .field("partitions", &self.partitions.len())
            .field("closed_form_arrays", &self.closed_form_arrays)
            .finish()
    }
}

/// Row-partition loop: contiguous local-row ranges across workers, one dot
/// product per row, the worker-chunk body a pre-resolved function pointer
/// whose bounds arithmetic, column coding and SIMD backend were compiled
/// into straight-line code.  Worker boundaries are **nnz-balanced** (see
/// [`BalancedRowCuts`]): each worker owns roughly the same number of
/// non-zeros, not the same number of rows, so skewed matrices stop
/// serialising behind their heaviest worker.
///
/// When the origin map is contiguous (no reordering — the common case for
/// unsorted designs, whose `origin_rows` compressed to identity/affine), or
/// a row-lane slab was built over the output rows of a block the origin
/// permutes (SORT, SORT_SUB, BIN), each worker owns a disjoint slice of `y`
/// and accumulates **in place**: no staging buffers, no scatter pass, no
/// per-run allocation.  Other loops on a permuted origin, and slabs whose
/// rows are scattered over `y` (a global sort split into row bands), stage
/// per-worker partials and pay a permuted scatter.
#[allow(clippy::too_many_arguments)]
fn run_rows(
    p: &NativePartition,
    chunk: ChunkFn,
    row_offsets: &IndexFn,
    cuts: &BalancedRowCuts,
    x: &[Scalar],
    y: &mut [Scalar],
    workers: usize,
    pool: &Pool,
    only: Option<usize>,
) -> usize {
    let rows = p.matrix.rows();
    if rows == 0 {
        return 0;
    }
    let args = p.args(x, row_offsets.args());
    // Nnz-balanced worker boundaries: from the build-time cache when the
    // count is within the host's core range, recomputed otherwise; a slab's
    // at its window boundaries, so a share's permuted rows stay in it.
    let workers = workers.clamp(1, rows);
    let cuts = match p.slab() {
        Some(slab) => slab.cuts(workers),
        None => cuts.get(p.matrix.row_offsets(), workers),
    };
    let cuts: &[usize] = &cuts;

    if let Some(base) = p.in_place_base() {
        let chunks = alpha_parallel::split_mut_at(&mut y[base..base + rows], cuts);
        let shares = chunks.len();
        pool.run_over_chunks(narrow(chunks, only), |first, out| chunk(&args, first, out));
        return shares;
    }

    let ranges: Vec<(usize, usize)> = cuts
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|&(first, last)| first < last)
        .collect();
    let shares = ranges.len();
    let ranges = narrow(ranges, only);
    let sums: Vec<Vec<Scalar>> = pool.parallel_map(&ranges, |&(first, last)| {
        let mut out = vec![0.0; last - first];
        chunk(&args, first, &mut out);
        out
    });
    let origin = p.origin.args();
    for (&(first, _), partial) in ranges.iter().zip(&sums) {
        (p.scatter)(&origin, first, partial, y);
    }
    shares
}

/// Nnz-partition loop: workers own groups of whole design chunks and walk
/// their non-zero span emitting one partial per row segment (a pre-resolved
/// function pointer); boundary rows merge by accumulation in the scatter.
#[allow(clippy::too_many_arguments)]
fn run_nnz(
    p: &NativePartition,
    span: SpanFn,
    nnz_per_thread: usize,
    row_starts: &IndexFn,
    x: &[Scalar],
    y: &mut [Scalar],
    workers: usize,
    pool: &Pool,
    only: Option<usize>,
) -> usize {
    let nnz = p.matrix.nnz();
    if nnz == 0 {
        return 0;
    }
    let total_chunks = nnz.div_ceil(nnz_per_thread).max(1);
    let workers = workers.min(total_chunks).max(1);
    let chunks_per_worker = total_chunks.div_ceil(workers);
    // (first design chunk, nnz start, nnz end) per worker span.
    let spans: Vec<(usize, usize, usize)> = (0..workers)
        .map(|w| {
            let first_chunk = w * chunks_per_worker;
            let start = (first_chunk * nnz_per_thread).min(nnz);
            let end = ((first_chunk + chunks_per_worker) * nnz_per_thread).min(nnz);
            (first_chunk, start, end)
        })
        .filter(|&(_, start, end)| start < end)
        .collect();
    let shares = spans.len();
    let spans = narrow(spans, only);

    // Spans walk the sub-matrix's real CSR offsets, not a bounds map.
    let args = p.args(x, IndexArgs::IDENTITY);
    let offsets = p.matrix.row_offsets();
    let last_row = p.matrix.rows().saturating_sub(1);
    let partials: Vec<(usize, Vec<Scalar>)> =
        pool.parallel_map(&spans, |&(first_chunk, start, end)| {
            // The chunk descriptor gives the first row (closed-form when the
            // row structure is regular); skip any empty rows before `start`.
            let mut row = (row_starts.get(first_chunk) as usize).min(last_row);
            while row < last_row && offsets[row + 1] as usize <= start {
                row += 1;
            }
            (row, span(&args, offsets, row, start, end))
        });
    let origin = p.origin.args();
    for (base_row, sums) in &partials {
        (p.scatter)(&origin, *base_row, sums, y);
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::{gen, DenseVector};

    fn native_for(
        graph: &alpha_graph::OperatorGraph,
        matrix: &CsrMatrix,
        compression: bool,
    ) -> NativeKernel {
        let generated = generate(
            graph,
            matrix,
            GeneratorOptions {
                model_compression: compression,
            },
        )
        .expect("generation succeeds");
        NativeKernel::new(generated.kernel.metadata(), &generated.format)
    }

    fn check(graph: &alpha_graph::OperatorGraph, matrix: &CsrMatrix, threads: usize) {
        let kernel = native_for(graph, matrix, true);
        let x = DenseVector::random(matrix.cols(), 11);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let y = kernel.run(x.as_slice(), threads).expect("kernel runs");
        assert!(
            DenseVector::from_vec(y).approx_eq(&expected, 1e-3),
            "{}: wrong result at {threads} threads",
            kernel.name()
        );
    }

    #[test]
    fn every_preset_is_correct_on_every_pattern_family() {
        for family in gen::PatternFamily::ALL {
            let matrix = family.generate(256, 6, 33);
            for (_, graph) in presets::all_presets() {
                check(&graph, &matrix, 1);
                check(&graph, &matrix, 4);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results_materially() {
        let matrix = gen::powerlaw(1_024, 1_024, 12, 1.9, 5);
        let x = DenseVector::random(1_024, 3);
        for (_, graph) in presets::all_presets() {
            let kernel = native_for(&graph, &matrix, true);
            let serial = kernel.run(x.as_slice(), 1).unwrap();
            for threads in [2, 3, 8] {
                let parallel = kernel.run(x.as_slice(), threads).unwrap();
                assert!(
                    DenseVector::from_vec(parallel).approx_eq(&serial, 1e-4),
                    "{}: thread count changed the result",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn compression_toggles_closed_form_execution_not_results() {
        let matrix = gen::uniform_random(512, 512, 8, 7);
        let x = DenseVector::random(512, 9);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let with = native_for(&presets::csr_scalar(), &matrix, true);
        let without = native_for(&presets::csr_scalar(), &matrix, false);
        assert!(
            with.closed_form_arrays() > 0,
            "identity origin must compress"
        );
        assert_eq!(without.closed_form_arrays(), 0);
        for kernel in [&with, &without] {
            let y = kernel.run(x.as_slice(), 2).unwrap();
            assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        }
    }

    #[test]
    fn nnz_split_handles_rows_spanning_worker_boundaries() {
        // One long row dominates: every worker span cuts through it, so the
        // scatter's accumulation is load-bearing.
        let mut coo = alpha_matrix::CooMatrix::new(4, 512);
        for c in 0..512 {
            coo.push(0, c, 0.5);
        }
        for r in 1..4 {
            coo.push(r, r, 1.0);
        }
        let matrix = CsrMatrix::from_coo(&coo);
        check(&presets::csr5_like(16), &matrix, 8);
    }

    #[test]
    fn col_div_partitions_accumulate_shared_rows() {
        let matrix = gen::uniform_random(200, 200, 12, 3);
        check(&presets::col_split_atomic(2), &matrix, 4);
    }

    #[test]
    fn empty_rows_are_preserved_as_zeros() {
        let mut coo = alpha_matrix::CooMatrix::new(64, 64);
        for r in (0..64).step_by(3) {
            coo.push(r, (r * 7) % 64, 1.0 + r as Scalar);
        }
        let matrix = CsrMatrix::from_coo(&coo);
        for (_, graph) in presets::all_presets() {
            check(&graph, &matrix, 2);
        }
    }

    #[test]
    fn a_partition_reading_past_x_is_a_typed_build_error() {
        // `PartitionPlan`'s fields are public: a hand-built metadata set can
        // shift a partition's columns past the end of `x`.
        let matrix = gen::uniform_random(64, 32, 4, 1);
        let generated = generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default())
            .expect("generation succeeds");
        let mut metadata = generated.kernel.metadata().clone();
        metadata.partitions[0].col_offset = 1;
        let expected = KernelBuildError::ColumnsOutOfRange {
            partition: 0,
            col_offset: 1,
            cols: 32,
            original_cols: 32,
        };
        for mode in [SimdMode::Auto, SimdMode::ForceScalar] {
            let built = NativeKernel::lower(&metadata, &generated.format, mode);
            assert_eq!(built.err(), Some(expected.clone()));
        }
        metadata.partitions[0].col_offset = usize::MAX;
        assert!(matches!(
            NativeKernel::try_new(&metadata, &generated.format),
            Err(KernelBuildError::ColumnsOutOfRange { .. })
        ));
        // A narrower `x` than the sub-matrix is the same error.
        metadata.partitions[0].col_offset = 0;
        metadata.original_cols = 31;
        assert!(NativeKernel::try_new(&metadata, &generated.format).is_err());
        metadata.original_cols = 32;
        assert!(NativeKernel::try_new(&metadata, &generated.format).is_ok());
    }

    #[test]
    fn run_rejects_wrong_dimensions() {
        let matrix = gen::uniform_random(64, 32, 4, 1);
        let kernel = native_for(&presets::csr_scalar(), &matrix, true);
        assert!(kernel.run(&[1.0; 31], 1).is_err());
        let mut y = vec![0.0; 63];
        assert!(kernel.run_into(&[1.0; 32], &mut y, 1).is_err());
    }

    #[test]
    fn kernel_reports_its_shape() {
        let matrix = gen::powerlaw(300, 300, 8, 2.0, 5);
        let kernel = native_for(&presets::sell_like(), &matrix, true);
        assert_eq!(kernel.rows(), 300);
        assert_eq!(kernel.cols(), 300);
        assert_eq!(kernel.nnz(), matrix.nnz());
        assert_eq!(kernel.useful_flops(), 2 * matrix.nnz() as u64);
        assert!(kernel.format_bytes() > 0);
        assert!(kernel.name().contains("alpha-cpu"));
    }

    #[test]
    fn balanced_cuts_cover_rows_and_balance_nnz() {
        // An adversarially skewed matrix: the first rows carry almost all
        // the work (descending row lengths), so an equal-ROW split loads its
        // first worker with nearly everything.
        let rows = 512usize;
        let mut coo = alpha_matrix::CooMatrix::new(rows, rows);
        for r in 0..rows {
            let len = (rows / (r + 1)).max(1);
            for k in 0..len {
                coo.push(r, (r + k * 7) % rows, 1.0);
            }
        }
        let matrix = CsrMatrix::from_coo(&coo);
        let offsets = matrix.row_offsets();
        let total = matrix.nnz();
        let max_row = (0..rows)
            .map(|r| (offsets[r + 1] - offsets[r]) as usize)
            .max()
            .unwrap();
        let nnz_of = |first: usize, last: usize| offsets[last] as usize - offsets[first] as usize;

        for workers in [1usize, 2, 3, 4, 8] {
            let cuts = balanced_row_cuts(offsets, workers);
            assert_eq!(*cuts.first().unwrap(), 0);
            assert_eq!(*cuts.last().unwrap(), rows);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must ascend");

            // Rows are atomic, so the best reachable balance is the ideal
            // share plus at most one row's worth of slack.
            let balanced_max = cuts
                .windows(2)
                .map(|w| nnz_of(w[0], w[1]))
                .max()
                .unwrap_or(0);
            let ideal = total.div_ceil(workers);
            assert!(
                balanced_max <= ideal + max_row,
                "{workers} workers: balanced max {balanced_max} > ideal {ideal} + max row {max_row}"
            );
            // And on this skew the equal-rows split is strictly worse.
            if workers > 1 {
                let rows_per = rows.div_ceil(workers);
                let equal_max = (0..workers)
                    .map(|w| nnz_of((w * rows_per).min(rows), ((w + 1) * rows_per).min(rows)))
                    .max()
                    .unwrap_or(total);
                assert!(
                    balanced_max < equal_max,
                    "{workers} workers: balanced {balanced_max} should beat equal-rows {equal_max}"
                );
            }
        }
    }

    #[test]
    fn balanced_cuts_handle_degenerate_shapes() {
        // Empty matrix, single row, more workers than rows.
        assert_eq!(balanced_row_cuts(&[0], 4), vec![0, 0]);
        assert_eq!(balanced_row_cuts(&[0, 5], 4), vec![0, 1]);
        let cuts = balanced_row_cuts(&[0, 1, 2, 3], 8);
        assert_eq!(*cuts.first().unwrap(), 0);
        assert_eq!(*cuts.last().unwrap(), 3);
    }

    #[test]
    fn pooled_and_serial_runs_agree_on_every_family() {
        // Same partitioning semantics at every worker count: a 4-way run on
        // an explicit pool against the serial run of the same kernel.
        let pool = alpha_parallel::Pool::new(4);
        for family in gen::PatternFamily::ALL {
            let matrix = family.generate(192, 6, 21);
            let x = DenseVector::random(matrix.cols(), 13);
            for (name, graph) in presets::all_presets() {
                let kernel = native_for(&graph, &matrix, true);
                let serial = kernel.run(x.as_slice(), 1).unwrap();
                let pooled = kernel.run_with_pool(x.as_slice(), 4, &pool).unwrap();
                assert!(
                    DenseVector::from_vec(pooled).approx_eq(&serial, 1e-4),
                    "{name} on {}: pooled diverged from serial",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn automatic_worker_count_scales_with_nnz_and_lane_width() {
        let cores = alpha_parallel::default_threads();
        // A 100k-nnz matrix is worth several scalar workers (given the
        // cores), half as many vector workers whatever the lane count, and
        // anything tiny stays serial.
        let nnz = 100_000;
        assert_eq!(
            effective_workers(0, nnz, 1),
            cores.min(nnz.div_ceil(MIN_NNZ_PER_WORKER))
        );
        for lanes in [4, 8] {
            assert_eq!(
                effective_workers(0, nnz, lanes),
                cores.min(nnz.div_ceil(2 * MIN_NNZ_PER_WORKER))
            );
        }
        assert_eq!(effective_workers(0, 20_000, 8), 1);
        assert_eq!(effective_workers(0, 100, 1), 1);
        assert_eq!(effective_workers(0, 0, 1), 1);
        // Explicit counts are honoured verbatim.
        assert_eq!(effective_workers(3, nnz, 1), 3);
        assert_eq!(effective_workers(3, nnz, 8), 3);
    }

    #[test]
    fn worker_count_follows_the_executed_loop_not_the_planned_lanes() {
        // A row-lane plan on an nnz partition: row lanes need whole rows, so
        // the partition runs its segments scalar.  The plan still names the
        // lanes; the worker threshold must not.
        let matrix = gen::uniform_random(4_096, 4_096, 16, 5);
        let generated = generate(
            &presets::csr5_like(64),
            &matrix,
            GeneratorOptions::default(),
        )
        .expect("generation succeeds");
        let mut metadata = generated.kernel.metadata().clone();
        for partition in &mut metadata.partitions {
            partition.simd = alpha_graph::SimdPlan {
                lanes: 8,
                lane_mapping: alpha_graph::SimdLaneMapping::Rows,
            };
        }
        let kernel = NativeKernel::new(&metadata, &generated.format);
        assert!(
            kernel.shape_label().ends_with(":scalar"),
            "{}",
            kernel.shape_label()
        );
        assert_eq!(kernel.max_lanes(), 1);
        assert!(!kernel.is_vectorized());
        assert_eq!(kernel.workers_for(0), effective_workers(0, matrix.nnz(), 1));
        if !crate::cpu_features::force_scalar() {
            // `avx2-row-x8` on an AVX2 host, `portable-row-x8` elsewhere.
            assert!(
                kernel.simd_label().ends_with("-row-x8"),
                "the label names the plan: {}",
                kernel.simd_label()
            );
        }
    }

    #[test]
    fn kernels_lowered_on_one_conversion_read_one_start_table() {
        // `csr_scalar` and `csr_vector` share their only conversion; one
        // Designer hands both the same allocation, and the run starts are
        // memoised on it: two lowerings, one scan, one table.
        let matrix = gen::banded(512, 4, 3);
        let designer = alpha_graph::Designer::new(&matrix);
        let kernels: Vec<NativeKernel> = [presets::csr_scalar(), presets::csr_vector()]
            .iter()
            .map(|graph| {
                let generated =
                    alpha_codegen::generate_with(&designer, graph, GeneratorOptions::default())
                        .expect("generation succeeds");
                NativeKernel::new(generated.kernel.metadata(), &generated.format)
            })
            .collect();
        let x = vec![1.0; matrix.cols()];
        let starts: Vec<*const u32> = kernels
            .iter()
            .map(|kernel| {
                let p = &kernel.partitions[0];
                assert_eq!(
                    p.shape.col_index,
                    IndexKind::Run,
                    "{}",
                    kernel.shape_label()
                );
                let starts = p.args(&x, IndexArgs::IDENTITY).col_starts;
                assert_eq!(starts.len(), matrix.rows());
                starts.as_ptr()
            })
            .collect();
        assert!(Arc::ptr_eq(
            &kernels[0].partitions[0].matrix,
            &kernels[1].partitions[0].matrix
        ));
        assert_eq!(starts[0], starts[1]);
    }

    #[test]
    fn a_run_partition_prices_its_starts_in_place_of_its_column_stream() {
        let matrix = gen::banded(512, 4, 3);
        let generated = generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default())
            .expect("generation succeeds");
        let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        assert!(kernel.shape_label().contains("col:run"));
        let padded = generated.format.partitions[0].padded_nnz;
        assert_eq!(
            kernel.format_bytes(),
            generated.format.bytes() - 4 * padded + 4 * matrix.rows()
        );
        // A gathering partition is priced as the format is.
        let gapped = gen::uniform_random(512, 512, 9, 3);
        let generated = generate(&presets::csr_scalar(), &gapped, GeneratorOptions::default())
            .expect("generation succeeds");
        let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        assert!(kernel.shape_label().contains("col:table"));
        assert_eq!(kernel.format_bytes(), generated.format.bytes());
    }

    /// A global length sort split into two nnz-balanced row bands: each
    /// band's rows are scattered over `y`.
    fn sorted_bands() -> alpha_graph::OperatorGraph {
        use alpha_graph::Operator;
        let mut graph = presets::csr_scalar();
        graph.converting = vec![
            Operator::Compress,
            Operator::Sort,
            Operator::RowDiv { parts: 2 },
        ];
        graph.branches = vec![graph.branches[0].clone(); 2];
        graph
    }

    #[test]
    fn a_block_origin_on_row_lanes_writes_y_in_place_and_scattered_rows_stage() {
        let matrix = gen::powerlaw(3_000, 3_000, 6, 1.8, 5);
        let x = DenseVector::random(matrix.cols(), 7);
        let row_x8 = ResolvedSimd::resolve(
            &alpha_graph::SimdPlan {
                lanes: 8,
                lane_mapping: alpha_graph::SimdLaneMapping::Rows,
            },
            SimdMode::Auto,
        );
        // SORT and BIN each permute the block of all rows; a sorted row
        // split's bands are no block.
        let designs = [
            (presets::sell_like(), true),
            (presets::acsr_like(4), true),
            (sorted_bands(), false),
        ];
        for (graph, block) in designs {
            let generated = generate(&graph, &matrix, GeneratorOptions::default())
                .expect("generation succeeds");
            let metadata = generated.kernel.metadata();
            let kernel =
                NativeKernel::lower_with(metadata, &generated.format, |_, p| p.bind(row_x8))
                    .unwrap();
            let scalar =
                NativeKernel::with_simd_mode(metadata, &generated.format, SimdMode::ForceScalar);
            let pairs = kernel.partitions.iter().zip(&scalar.partitions);
            for (p, twin) in pairs.filter(|(p, _)| p.matrix.rows() > 0) {
                let label = p.shape.label();
                assert_eq!(p.origin.contiguous_base(), None, "{label}");
                assert_eq!(p.slab.is_some(), row_x8.is_vectorized(), "{label}");
                let in_place = block && row_x8.is_vectorized();
                assert_eq!(p.in_place_base().is_some(), in_place, "{label}");
                // A scalar loop on the same origin stages.
                assert_eq!(twin.in_place_base(), None, "{label}");
            }
            let bits = |y: Vec<Scalar>| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            for threads in [1, 2, 3] {
                assert_eq!(
                    bits(kernel.run(x.as_slice(), threads).unwrap()),
                    bits(scalar.run(x.as_slice(), 1).unwrap()),
                    "{} at {threads} thread(s)",
                    kernel.shape_label()
                );
            }
        }
    }

    #[test]
    fn materialised_models_reproduce_the_array_and_keep_the_compression_label() {
        // A step model with one patched exception: lowered to a table that
        // reproduces the data exactly, still reported as closed-form.
        let mut data: Vec<u32> = (0..200).map(|i| 16 * (i / 8)).collect();
        data[77] = 5;
        let array = FormatArray {
            name: "row_offsets".into(),
            compressed: alpha_codegen::compress_array(&data),
            data: data.clone(),
        };
        let compressed = array.compressed.as_ref().expect("step model fits");
        assert!(!compressed.exceptions.is_empty());
        let f = IndexFn::from_array(&array);
        assert!(matches!(&f, IndexFn::Model(table) if *table == data));
        assert!(f.is_closed_form());
        assert_eq!(IndexKind::of(&f), IndexKind::Model);
        assert_eq!(f.args().table, &data[..]);
    }

    #[test]
    fn index_fn_lowers_compression_models() {
        let linear = FormatArray {
            name: "origin_rows".into(),
            data: (0..100).collect(),
            compressed: alpha_codegen::compress_array(&(0..100).collect::<Vec<u32>>()),
        };
        assert!(matches!(IndexFn::from_array(&linear), IndexFn::Identity));

        let stepped: Vec<u32> = (0..100).map(|i| 16 * (i / 8)).collect();
        let step = FormatArray {
            name: "row_offsets".into(),
            data: stepped.clone(),
            compressed: alpha_codegen::compress_array(&stepped),
        };
        let f = IndexFn::from_array(&step);
        assert!(f.is_closed_form());
        for (i, &v) in stepped.iter().enumerate() {
            assert_eq!(f.get(i), v);
        }

        let irregular: Vec<u32> = (0..100u32)
            .map(|i| i.wrapping_mul(2654435761) % 977)
            .collect();
        let table = FormatArray {
            name: "origin_rows".into(),
            data: irregular.clone(),
            compressed: alpha_codegen::compress_array(&irregular),
        };
        let f = IndexFn::from_array(&table);
        assert!(!f.is_closed_form());
        assert_eq!(f.get(42), irregular[42]);
    }
}
