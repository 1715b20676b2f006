//! SIMD microkernels for the native backend.
//!
//! Three kernel families, the loops a host times when it selects one for a
//! design (`NativeKernel::select`):
//!
//! * **nnz-lane dots** — `lanes` consecutive non-zeros of one row are
//!   processed per step; column indices load as a vector, `x` entries are
//!   **gathered**, and a fixed-shape horizontal-add tree folds the lane
//!   partials into the row result.  On AVX2 this is `_mm256_i32gather_ps`
//!   (8 lanes) / `_mm_i32gather_ps` (4 lanes); on NEON the gather is emulated
//!   with lane loads; everywhere else a portable multi-accumulator loop with
//!   the **same accumulation tree** runs instead — so hardware and portable
//!   paths are bit-compatible lane for lane.
//! * **run dots** — the nnz-lane and serial dots of a row whose columns are
//!   one contiguous run: `x` is the row's own slice, loaded with plain
//!   vector loads instead of gathered.  Same lanes, same tree, same tail as
//!   the gathering dot of the same width, so the same bits.
//! * **slab dots** (row lanes, 8 of them) — the 8 rows of a length-sorted
//!   slab group advance together, one accumulator per lane, over the group's
//!   column-major common part: values and column indices load as vectors,
//!   only `x` is gathered (`_mm256_i32gather_ps` on AVX2, lane code
//!   elsewhere), and there is no horizontal add.  Each lane
//!   walks its row in the scalar kernel's order, and its tail continues
//!   serially, so every row is bitwise the scalar loop's.
//!
//! The NEON path is checked by inspection only: the toolchain this crate is
//! built and tested with has no aarch64 target, so no build or test here
//! compiles it.  The portable loops it must match bit for bit are tested.
//!
//! All multiply-accumulate steps use separate multiply and add (no FMA), so
//! every backend computing the same lane schedule produces identical bits.
//! Serial parts — the scalar loop, every lane kernel's tail — walk zipped
//! sub-slices of the row (`row_dot_serial`) rather than index three slices per
//! element.
//!
//! Nothing here dispatches at run time: [`ResolvedSimd::resolve`] decides the
//! backend once per kernel build, and [`crate::specialized`] turns that
//! decision into a monomorphized loop.  Every kernel here is
//! `#[inline(always)]` and **none carries `#[target_feature]`**: a function
//! with that attribute never inlines into a caller compiled without it, so a
//! dot behind one is an opaque call per row (arguments through the stack, the
//! `col_offset` broadcast redone, a `vzeroupper` on the way out).  The
//! attribute sits on the loop entries in [`crate::specialized`] instead, the
//! dots inline into the loop, and the hardware dots stay `unsafe fn` with the
//! contract they always had: the caller probed the extension.

use crate::cpu_features::{self, SimdSupport};
use alpha_graph::{SimdLaneMapping, SimdPlan};
use alpha_matrix::Scalar;

/// Widest lane count any backend supports.
pub const MAX_LANES: usize = 8;

/// How a kernel build decides between vectorized and scalar execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Follow the partition's [`SimdPlan`], the hardware probe, and the
    /// [`cpu_features::NO_SIMD_ENV`] override.
    #[default]
    Auto,
    /// Ignore the plan and execute every partition scalar — used by benches
    /// to build a scalar twin of a vectorized kernel without touching the
    /// process environment.
    ForceScalar,
}

/// Which implementation backs the lane kernels of one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AVX2 hardware gathers (x86_64, nnz lanes ×4 or ×8, row lanes ×8).
    Avx2,
    /// NEON vectors with emulated gathers (aarch64, nnz-lanes 4 or 8).
    Neon,
    /// Portable lane code (plain hosts and NEON row lanes).
    Portable,
}

/// The vectorization decision for one partition, resolved once at kernel
/// build time from the partition's [`SimdPlan`], the [`SimdMode`], and the
/// host's [`cpu_features`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedSimd {
    /// Effective lane count (1 = scalar execution).
    pub lanes: usize,
    /// Row-vs-nnz lane mapping from the design.
    pub mapping: SimdLaneMapping,
    /// Implementation selected for this host.
    pub backend: Backend,
}

/// Counts a vectorized plan resolving to scalar execution on the
/// process-wide registry (`cpu_simd_fallback_total{reason=...}`): `"forced"`
/// for an explicit [`SimdMode::ForceScalar`] / env override, `"lanes"` for a
/// lane width no backend implements.  Resolution happens once per kernel
/// build, so a direct registry lookup is cheap enough here.
fn count_simd_fallback(reason: &'static str) {
    alpha_telemetry::global()
        .counter("cpu_simd_fallback_total", &[("reason", reason)])
        .inc();
}

impl ResolvedSimd {
    /// Plain scalar execution (the pre-SIMD native backend).
    pub fn scalar() -> Self {
        ResolvedSimd {
            lanes: 1,
            mapping: SimdLaneMapping::Nnz,
            backend: Backend::Portable,
        }
    }

    /// True when lane kernels (rather than the scalar loop) will run.
    pub fn is_vectorized(&self) -> bool {
        self.lanes > 1
    }

    /// Resolves a partition's plan for this host.  Fallback rules:
    /// `ForceScalar` or the env override pin everything scalar; AVX2 hosts
    /// gather for 4/8 nnz lanes or 8 row lanes, NEON hosts for 4/8 nnz lanes
    /// (a row-lane slab there runs the portable lane code), and everything
    /// else runs portable lane code; nnz lanes outside {4, 8} and row lanes
    /// other than 8 run scalar.
    pub fn resolve(plan: &SimdPlan, mode: SimdMode) -> ResolvedSimd {
        if !plan.is_vectorized() {
            return ResolvedSimd::scalar();
        }
        if mode == SimdMode::ForceScalar || cpu_features::force_scalar() {
            count_simd_fallback("forced");
            return ResolvedSimd::scalar();
        }
        let support = cpu_features::detect_hardware();
        let lanes = match (plan.lane_mapping, plan.lanes) {
            (SimdLaneMapping::Nnz, 4 | 8) | (SimdLaneMapping::Rows, 8) => plan.lanes,
            _ => {
                count_simd_fallback("lanes");
                return ResolvedSimd::scalar();
            }
        };
        let backend = match (plan.lane_mapping, support) {
            (_, SimdSupport::Avx2) => Backend::Avx2,
            (SimdLaneMapping::Nnz, SimdSupport::Neon) => Backend::Neon,
            _ => Backend::Portable,
        };
        ResolvedSimd {
            lanes,
            mapping: plan.lane_mapping,
            backend,
        }
    }

    /// Compact label for bench records, e.g. `avx2-nnz-x8`,
    /// `avx2-row-x8`, `portable-row-x8`, or `scalar`.
    pub fn label(&self) -> String {
        if !self.is_vectorized() {
            return "scalar".to_string();
        }
        let backend = match self.backend {
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
            Backend::Portable => "portable",
        };
        let mapping = match self.mapping {
            SimdLaneMapping::Rows => "row",
            SimdLaneMapping::Nnz => "nnz",
        };
        format!("{backend}-{mapping}-x{}", self.lanes)
    }
}

/// Continues the serial accumulation `acc` over two equal-length stream
/// slices, in stream order: the scalar loop (from `0.0`), every lane kernel's
/// tail, and a row lane's leftover.  Walking the zipped slices leaves one
/// bounds check per non-zero (the `x` gather) where indexing three slices by
/// position pays three.
#[inline(always)]
pub(crate) fn row_dot_serial(
    mut acc: Scalar,
    values: &[Scalar],
    col_indices: &[u32],
    x: &[Scalar],
    col_offset: usize,
) -> Scalar {
    for (&v, &c) in values.iter().zip(col_indices) {
        acc += v * x[c as usize + col_offset];
    }
    acc
}

/// [`row_dot_serial`] on a run row: `x` is the row's run, one entry per
/// value, so each term is the product the gathering loop forms, in the same
/// order.
#[inline(always)]
pub(crate) fn run_dot_serial(mut acc: Scalar, values: &[Scalar], x: &[Scalar]) -> Scalar {
    for (&v, &xv) in values.iter().zip(x) {
        acc += v * xv;
    }
    acc
}

/// The fixed horizontal-add tree every backend uses for `L` lane partials:
/// fold the upper half onto the lower until one value remains.  For L=8 this
/// is `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))` — exactly the shape of the
/// AVX2 `extract_hi + movehl + shuffle` sequence.
#[inline(always)]
fn hsum_tree<const L: usize>(acc: &[Scalar; L]) -> Scalar {
    let mut folded = *acc;
    let mut width = L;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            folded[i] += folded[i + width];
        }
        // After the first fold of 8 lanes the live values are
        // [a0+a4, a1+a5, a2+a6, a3+a7]; the next folds pair (0,2) and (1,3),
        // which the loop above expresses as folded[i] += folded[i+width].
    }
    folded[0]
}

/// Portable nnz-lane dot over `[start, end)`: `L` independent accumulators
/// stride the row, the tail accumulates serially, and `hsum_tree` folds the
/// lanes.  Bit-compatible with the AVX2/NEON implementations of the same `L`.
/// The body always inlines into the row loop around it.
#[inline(always)]
pub fn row_dot_nnz_portable<const L: usize>(
    values: &[Scalar],
    col_indices: &[u32],
    x: &[Scalar],
    col_offset: usize,
    start: usize,
    end: usize,
) -> Scalar {
    let (values, col_indices) = (&values[start..end], &col_indices[start..end]);
    let body = values.len() - values.len() % L;
    let mut acc = [0.0 as Scalar; L];
    for i in (0..body).step_by(L) {
        let (v, c) = (&values[i..i + L], &col_indices[i..i + L]);
        for l in 0..L {
            acc[l] += v[l] * x[c[l] as usize + col_offset];
        }
    }
    let tail = row_dot_serial(0.0, &values[body..], &col_indices[body..], x, col_offset);
    hsum_tree(&acc) + tail
}

/// [`row_dot_nnz_portable`] on a run row: `x` is the row's run,
/// as long as `values`.  Lane `l` of step `i` multiplies `values[i + l]` by
/// `x[i + l]`, the entry the gathering loop fetches through column
/// `start + i + l`, and the tail and tree are that loop's, so the result is
/// bitwise the same.
#[inline(always)]
pub(crate) fn run_dot_nnz_lanes<const L: usize>(values: &[Scalar], x: &[Scalar]) -> Scalar {
    let x = &x[..values.len()];
    let body = values.len() - values.len() % L;
    let mut acc = [0.0 as Scalar; L];
    for (v, xs) in values[..body]
        .chunks_exact(L)
        .zip(x[..body].chunks_exact(L))
    {
        for l in 0..L {
            acc[l] += v[l] * xs[l];
        }
    }
    let tail = run_dot_serial(0.0, &values[body..], &x[body..]);
    hsum_tree(&acc) + tail
}

/// The common part of one slab lane group: lane `l` of step `k`
/// multiplies stream position `k·L + l` (the group is stored column-major)
/// by its gathered `x`, for `common` steps.  Each lane is one row, summed in
/// stream order from `0.0` — the scalar loop's order, so the group's tails
/// continue the lanes with [`row_dot_serial`] and every row comes out
/// bitwise the scalar loop's.  `values` / `col_indices` start at the group.
#[inline(always)]
pub(crate) fn slab_dot_lanes<const L: usize>(
    values: &[Scalar],
    col_indices: &[u32],
    x: &[Scalar],
    col_offset: usize,
    common: usize,
) -> [Scalar; L] {
    let (values, col_indices) = (&values[..common * L], &col_indices[..common * L]);
    let mut acc = [0.0 as Scalar; L];
    for (v, c) in values.chunks_exact(L).zip(col_indices.chunks_exact(L)) {
        for l in 0..L {
            acc[l] += v[l] * x[c[l] as usize + col_offset];
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{row_dot_serial, run_dot_serial, Scalar};
    use std::arch::x86_64::*;

    /// Folds 8 lanes with the shared tree shape:
    /// q = lo + hi; d = [q0+q2, q1+q3]; result = d0 + d1.
    ///
    /// # Safety
    /// AVX2 verified at resolve time.
    #[inline(always)]
    unsafe fn hsum8(acc: __m256) -> Scalar {
        // SAFETY: register-only AVX arithmetic, present by the
        // `cpu_features` dispatch guard.
        hsum4(_mm_add_ps(
            _mm256_castps256_ps128(acc),
            _mm256_extractf128_ps::<1>(acc),
        ))
    }

    /// Folds 4 lanes with the shared tree shape: d = [a0+a2, a1+a3];
    /// result = d0 + d1.
    ///
    /// # Safety
    /// AVX2 verified at resolve time.
    #[inline(always)]
    unsafe fn hsum4(acc: __m128) -> Scalar {
        // SAFETY: register-only SSE arithmetic, present by the
        // `cpu_features` dispatch guard.
        let d = _mm_add_ps(acc, _mm_movehl_ps(acc, acc));
        _mm_cvtss_f32(_mm_add_ss(d, _mm_shuffle_ps::<0b01>(d, d)))
    }

    /// 8-lane nnz dot via `_mm256_i32gather_ps`.  No `#[target_feature]`
    /// here (module docs): the loop entry in [`crate::specialized`] carries
    /// it, so the `col_offset` broadcast and the stream pointers hoist out of
    /// the row loop this inlines into.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at resolve time, and every
    /// column index of `[start, end)` plus `col_offset` must be in bounds of
    /// `x` and below 2³¹ (the gather does not check, and indexes in `i32`;
    /// the stream range itself is checked).  For a `NativeKernel` partition
    /// that is `NativePartition::new`'s `ColumnsOutOfRange` check
    /// (`col_offset + cols` within `original_cols`, the length of every `x`
    /// a partition runs on, and within 2³¹) over the sub-matrix's own
    /// column indices, each below its `cols`.
    #[inline(always)]
    pub unsafe fn row_dot8(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
    ) -> Scalar {
        // SAFETY: AVX2 instructions run only behind the `cpu_features`
        // dispatch guard (`ResolvedSimd::resolve` picks `Backend::Avx2` only
        // when `detect_hardware()` found AVX2).  The loads stay in the row:
        // `i + 8 <= body <= values.len() == col_indices.len()`, by the
        // slice-length checks of `[start..end]`.  The gather stays in `x`:
        // `ColumnsOutOfRange` (`NativePartition::new`).
        let (values, col_indices) = (&values[start..end], &col_indices[start..end]);
        let body = values.len() - values.len() % 8;
        let mut acc = _mm256_setzero_ps();
        let offset = _mm256_set1_epi32(col_offset as i32);
        for i in (0..body).step_by(8) {
            let v = _mm256_loadu_ps(values.as_ptr().add(i));
            let idx = _mm256_loadu_si256(col_indices.as_ptr().add(i) as *const __m256i);
            let idx = _mm256_add_epi32(idx, offset);
            // Gather x[col + col_offset] for all 8 lanes: the same loads the
            // scalar loop issues, in bounds by `ColumnsOutOfRange`.
            let gathered = _mm256_i32gather_ps::<4>(x.as_ptr(), idx);
            // mul + add (not FMA) keeps bits identical to the portable path.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(v, gathered));
        }
        let tail = row_dot_serial(0.0, &values[body..], &col_indices[body..], x, col_offset);
        hsum8(acc) + tail
    }

    /// 4-lane nnz dot via `_mm_i32gather_ps`.
    ///
    /// # Safety
    /// As [`row_dot8`]: AVX2 verified at resolve time, every column index
    /// plus `col_offset` in bounds of `x` and below 2³¹ — for a
    /// `NativeKernel` partition, `NativePartition::new`'s
    /// `ColumnsOutOfRange` check.
    #[inline(always)]
    pub unsafe fn row_dot4(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
    ) -> Scalar {
        // SAFETY: as in `row_dot8` — the `cpu_features` dispatch guard for
        // AVX2, the slice-length checks for `i + 4 <= body` in both streams,
        // `ColumnsOutOfRange` for the gather.
        let (values, col_indices) = (&values[start..end], &col_indices[start..end]);
        let body = values.len() - values.len() % 4;
        let mut acc = _mm_setzero_ps();
        let offset = _mm_set1_epi32(col_offset as i32);
        for i in (0..body).step_by(4) {
            let v = _mm_loadu_ps(values.as_ptr().add(i));
            let idx = _mm_loadu_si128(col_indices.as_ptr().add(i) as *const __m128i);
            let idx = _mm_add_epi32(idx, offset);
            let gathered = _mm_i32gather_ps::<4>(x.as_ptr(), idx);
            acc = _mm_add_ps(acc, _mm_mul_ps(v, gathered));
        }
        let tail = row_dot_serial(0.0, &values[body..], &col_indices[body..], x, col_offset);
        hsum4(acc) + tail
    }

    /// [`row_dot8`] on a run row: `x` is the row's run, as long as `values`,
    /// and loads with `_mm256_loadu_ps` where the gathering dot gathers.
    /// Same lanes, tail and tree, so the same bits.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at resolve time.
    #[inline(always)]
    pub unsafe fn run_dot8(values: &[Scalar], x: &[Scalar]) -> Scalar {
        // SAFETY: AVX2 by the `cpu_features` dispatch guard.  Both loads of
        // step `i` read 8 entries from `i`, and `i + 8 <= body <=
        // values.len() == x.len()` (the re-slice of `x` is checked).
        let x = &x[..values.len()];
        let body = values.len() - values.len() % 8;
        let mut acc = _mm256_setzero_ps();
        for i in (0..body).step_by(8) {
            let v = _mm256_loadu_ps(values.as_ptr().add(i));
            let xs = _mm256_loadu_ps(x.as_ptr().add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(v, xs));
        }
        let tail = run_dot_serial(0.0, &values[body..], &x[body..]);
        hsum8(acc) + tail
    }

    /// [`row_dot4`] on a run row (see [`run_dot8`]).
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at resolve time.
    #[inline(always)]
    pub unsafe fn run_dot4(values: &[Scalar], x: &[Scalar]) -> Scalar {
        // SAFETY: as in `run_dot8`, with `i + 4 <= body <= values.len() ==
        // x.len()`.
        let x = &x[..values.len()];
        let body = values.len() - values.len() % 4;
        let mut acc = _mm_setzero_ps();
        for i in (0..body).step_by(4) {
            let v = _mm_loadu_ps(values.as_ptr().add(i));
            let xs = _mm_loadu_ps(x.as_ptr().add(i));
            acc = _mm_add_ps(acc, _mm_mul_ps(v, xs));
        }
        let tail = run_dot_serial(0.0, &values[body..], &x[body..]);
        hsum4(acc) + tail
    }

    /// [`super::slab_dot_lanes`] for 8 lanes: each step loads the group's 8
    /// values and column indices as vectors and gathers the 8 `x` entries
    /// with `_mm256_i32gather_ps`; mul + add per lane, no tree.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at resolve time, and every
    /// column index of the group's `common · 8` positions plus `col_offset`
    /// must be in bounds of `x` and below 2³¹ (the gather does not check).
    #[inline(always)]
    pub unsafe fn slab_dot8(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        common: usize,
    ) -> [Scalar; 8] {
        // SAFETY: AVX2 by the `cpu_features` dispatch guard.  Both stream
        // loads of step `i` read 8 entries from `i`, and `i + 8 <=
        // values.len() == col_indices.len() == common · 8` by the checked
        // re-slices.  The gather stays in `x` by the caller's contract; with
        // `common == 0` the loop body never runs and nothing is gathered.
        let (values, col_indices) = (&values[..common * 8], &col_indices[..common * 8]);
        let mut acc = _mm256_setzero_ps();
        let offset = _mm256_set1_epi32(col_offset as i32);
        for i in (0..values.len()).step_by(8) {
            let v = _mm256_loadu_ps(values.as_ptr().add(i));
            let idx = _mm256_loadu_si256(col_indices.as_ptr().add(i) as *const __m256i);
            let idx = _mm256_add_epi32(idx, offset);
            let gathered = _mm256_i32gather_ps::<4>(x.as_ptr(), idx);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(v, gathered));
        }
        let mut lanes = [0.0 as Scalar; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use super::{row_dot_serial, Scalar};
    use std::arch::aarch64::*;

    /// Gathers 4 `x` entries through the column-index stream into one NEON
    /// register (aarch64 has no hardware gather).
    ///
    /// # Safety
    /// `col_indices[i..i + 4]` must be in bounds and every indexed `x` entry
    /// valid — the same accesses the scalar loop performs.
    #[inline(always)]
    unsafe fn gather4(
        x: &[Scalar],
        col_indices: &[u32],
        col_offset: usize,
        i: usize,
    ) -> float32x4_t {
        // SAFETY: every read is a checked slice index (a bad column panics,
        // it never reads outside `x`); `vld1q_f32` reads the 4-element local
        // array, and NEON is present by the `cpu_features` dispatch guard.
        let g = [
            x[col_indices[i] as usize + col_offset],
            x[col_indices[i + 1] as usize + col_offset],
            x[col_indices[i + 2] as usize + col_offset],
            x[col_indices[i + 3] as usize + col_offset],
        ];
        vld1q_f32(g.as_ptr())
    }

    /// Folds one NEON register with the shared tree shape:
    /// `d = [a0+a2, a1+a3]; result = d0 + d1`.
    #[inline(always)]
    unsafe fn hsum4(acc: float32x4_t) -> Scalar {
        // SAFETY: register-only NEON arithmetic, present by the
        // `cpu_features` dispatch guard.
        let d = vadd_f32(vget_low_f32(acc), vget_high_f32(acc));
        vget_lane_f32::<0>(d) + vget_lane_f32::<1>(d)
    }

    /// 4-lane nnz dot (NEON vectors, emulated gather).  Like its AVX2 twins it
    /// carries no `#[target_feature]` — the loop entry in
    /// [`crate::specialized`] does — and inlines into the row loop.
    ///
    /// # Safety
    /// The caller must have verified NEON support at resolve time.
    #[inline(always)]
    pub unsafe fn row_dot4(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
    ) -> Scalar {
        // SAFETY: NEON by the `cpu_features` dispatch guard (`resolve` picks
        // `Backend::Neon` only when `detect_hardware()` found it); the value
        // loads stay in the row by the slice-length checks of `[start..end]`
        // (`i + 4 <= body <= values.len()`); `gather4` checks every index.
        let (values, col_indices) = (&values[start..end], &col_indices[start..end]);
        let body = values.len() - values.len() % 4;
        let mut acc = vdupq_n_f32(0.0);
        for i in (0..body).step_by(4) {
            let v = vld1q_f32(values.as_ptr().add(i));
            let g = gather4(x, col_indices, col_offset, i);
            acc = vaddq_f32(acc, vmulq_f32(v, g));
        }
        let tail = row_dot_serial(0.0, &values[body..], &col_indices[body..], x, col_offset);
        hsum4(acc) + tail
    }

    /// 8-lane nnz dot: two NEON registers per step, folded with the 8-wide
    /// tree (`lo + hi` first, then the 4-wide tree).
    ///
    /// # Safety
    /// As [`row_dot4`].
    #[inline(always)]
    pub unsafe fn row_dot8(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
    ) -> Scalar {
        // SAFETY: as in `row_dot4` — the `cpu_features` dispatch guard for
        // NEON, the slice-length checks for `i + 8 <= body` in the value
        // stream, and `gather4`'s checked indices.
        let (values, col_indices) = (&values[start..end], &col_indices[start..end]);
        let body = values.len() - values.len() % 8;
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        for i in (0..body).step_by(8) {
            let v_lo = vld1q_f32(values.as_ptr().add(i));
            let v_hi = vld1q_f32(values.as_ptr().add(i + 4));
            let g_lo = gather4(x, col_indices, col_offset, i);
            let g_hi = gather4(x, col_indices, col_offset, i + 4);
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(v_lo, g_lo));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(v_hi, g_hi));
        }
        let tail = row_dot_serial(0.0, &values[body..], &col_indices[body..], x, col_offset);
        hsum4(vaddq_f32(acc_lo, acc_hi)) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(n: usize, cols: usize, seed: u64) -> (Vec<Scalar>, Vec<u32>, Vec<Scalar>) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let values: Vec<Scalar> = (0..n)
            .map(|_| (next() % 1000) as Scalar / 500.0 - 1.0)
            .collect();
        let col_indices: Vec<u32> = (0..n).map(|_| (next() % cols as u64) as u32).collect();
        let x: Vec<Scalar> = (0..cols)
            .map(|_| (next() % 1000) as Scalar / 250.0 - 2.0)
            .collect();
        (values, col_indices, x)
    }

    fn scalar_dot(values: &[Scalar], cols: &[u32], x: &[Scalar], s: usize, e: usize) -> Scalar {
        let mut acc = 0.0;
        for i in s..e {
            acc += values[i] * x[cols[i] as usize];
        }
        acc
    }

    #[test]
    fn portable_lane_dots_match_scalar_within_tolerance() {
        let (values, cols, x) = streams(513, 97, 42);
        for end in [0, 1, 5, 8, 13, 64, 513] {
            let reference = scalar_dot(&values, &cols, &x, 0, end);
            for (l, got) in [
                (4, row_dot_nnz_portable::<4>(&values, &cols, &x, 0, 0, end)),
                (8, row_dot_nnz_portable::<8>(&values, &cols, &x, 0, 0, end)),
            ] {
                assert!(
                    (got - reference).abs() <= 1e-3 * reference.abs().max(1.0),
                    "lanes={l} end={end}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn hardware_and_portable_nnz_lanes_are_bit_identical() {
        let (values, cols, x) = streams(1027, 211, 7);
        for end in [3, 7, 8, 9, 64, 1000, 1027] {
            // (lanes, hardware dot) pairs this host can execute; empty when
            // it has no vector extension (nothing to compare).
            let mut hardware: Vec<(usize, Scalar)> = Vec::new();
            #[cfg(target_arch = "x86_64")]
            if cpu_features::detect_hardware() == SimdSupport::Avx2 {
                // SAFETY: AVX2 support was just probed, and every column is
                // below `x.len()` (`streams` draws them modulo its length).
                hardware = unsafe {
                    vec![
                        (4, avx2::row_dot4(&values, &cols, &x, 0, 0, end)),
                        (8, avx2::row_dot8(&values, &cols, &x, 0, 0, end)),
                    ]
                };
            }
            #[cfg(target_arch = "aarch64")]
            if cpu_features::detect_hardware() == SimdSupport::Neon {
                // SAFETY: NEON support was just probed.
                hardware = unsafe {
                    vec![
                        (4, neon::row_dot4(&values, &cols, &x, 0, 0, end)),
                        (8, neon::row_dot8(&values, &cols, &x, 0, 0, end)),
                    ]
                };
            }
            for (lanes, hw_dot) in hardware {
                let portable = match lanes {
                    4 => row_dot_nnz_portable::<4>(&values, &cols, &x, 0, 0, end),
                    _ => row_dot_nnz_portable::<8>(&values, &cols, &x, 0, 0, end),
                };
                assert_eq!(
                    hw_dot.to_bits(),
                    portable.to_bits(),
                    "lanes={lanes} end={end}: hardware {hw_dot} != portable {portable}"
                );
            }
        }
    }

    #[test]
    fn run_dots_are_bitwise_the_gathering_dots_of_their_width() {
        let (values, _, x) = streams(80, 97, 5);
        // (first column, row length): empty, shorter than a lane group, on
        // and around the 8-lane boundary, and a run ending at the last
        // column of `x`.
        for (first, len) in [(0, 0), (3, 1), (10, 7), (20, 8), (30, 9), (1, 80), (80, 17)] {
            let cols: Vec<u32> = (first..first + len).map(|c| c as u32).collect();
            let (v, cols) = (&values[..len], cols.as_slice());
            for col_offset in [0, 97 - first - len] {
                let run = &x[first + col_offset..first + col_offset + len];
                let bits = |s: Scalar| s.to_bits();
                assert_eq!(
                    bits(run_dot_serial(0.0, v, run)),
                    bits(row_dot_serial(0.0, v, cols, &x, col_offset)),
                    "serial {first}+{len}"
                );
                let pairs = [
                    (
                        run_dot_nnz_lanes::<4>(v, run),
                        row_dot_nnz_portable::<4>(v, cols, &x, col_offset, 0, len),
                    ),
                    (
                        run_dot_nnz_lanes::<8>(v, run),
                        row_dot_nnz_portable::<8>(v, cols, &x, col_offset, 0, len),
                    ),
                ];
                for (run_dot, gathered) in pairs {
                    assert_eq!(bits(run_dot), bits(gathered), "portable {first}+{len}");
                }
                #[cfg(target_arch = "x86_64")]
                if cpu_features::detect_hardware() == SimdSupport::Avx2 {
                    // SAFETY: AVX2 support was just probed, and every column
                    // plus `col_offset` is below `x.len()`.
                    unsafe {
                        assert_eq!(
                            bits(avx2::run_dot4(v, run)),
                            bits(avx2::row_dot4(v, cols, &x, col_offset, 0, len)),
                            "avx2 x4 {first}+{len}"
                        );
                        assert_eq!(
                            bits(avx2::run_dot8(v, run)),
                            bits(avx2::row_dot8(v, cols, &x, col_offset, 0, len)),
                            "avx2 x8 {first}+{len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_lane_dots_are_bitwise_scalar() {
        let (values, cols, x) = streams(256, 64, 9);
        // Eight rows of unequal lengths starting back-to-back, laid out as
        // one slab group: the shortest row's 9 terms of each row
        // column-major, then every row's tail row-major.
        let ranges = [
            (0usize, 40usize),
            (40, 67),
            (67, 80),
            (80, 89),
            (89, 120),
            (120, 131),
            (131, 170),
            (170, 190),
        ];
        let common = 9;
        let (mut slab_values, mut slab_cols) = (Vec::new(), Vec::new());
        for k in 0..common {
            for &(s, _) in &ranges {
                slab_values.push(values[s + k]);
                slab_cols.push(cols[s + k]);
            }
        }
        for &(s, e) in &ranges {
            slab_values.extend_from_slice(&values[s + common..e]);
            slab_cols.extend_from_slice(&cols[s + common..e]);
        }
        let finish = |mut lanes: [Scalar; 8]| {
            let mut tail = 8 * common;
            for (lane, &(s, e)) in lanes.iter_mut().zip(&ranges) {
                let n = e - s - common;
                let (v, c) = (&slab_values[tail..tail + n], &slab_cols[tail..tail + n]);
                *lane = row_dot_serial(*lane, v, c, &x, 0);
                tail += n;
            }
            lanes
        };
        let mut sums = vec![finish(slab_dot_lanes::<8>(
            &slab_values,
            &slab_cols,
            &x,
            0,
            common,
        ))];
        #[cfg(target_arch = "x86_64")]
        if cpu_features::detect_hardware() == SimdSupport::Avx2 {
            // SAFETY: AVX2 support was just probed, and every column is
            // below `x.len()`.
            sums.push(finish(unsafe {
                avx2::slab_dot8(&slab_values, &slab_cols, &x, 0, common)
            }));
        }
        for out in sums {
            for (l, &(s, e)) in ranges.iter().enumerate() {
                let reference = scalar_dot(&values, &cols, &x, s, e);
                assert_eq!(
                    out[l].to_bits(),
                    reference.to_bits(),
                    "lane {l}: {} != scalar {reference}",
                    out[l]
                );
            }
        }
    }

    #[test]
    fn hsum_tree_matches_documented_shape() {
        let acc = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        // ((1+16)+(4+64)) + ((2+32)+(8+128)) = 255 for these powers of two.
        assert_eq!(hsum_tree::<8>(&acc), 255.0);
        assert_eq!(hsum_tree::<4>(&[1.0, 2.0, 4.0, 8.0]), 15.0);
    }

    #[test]
    fn resolve_honours_mode_and_plan() {
        let vec_plan = SimdPlan {
            lanes: 8,
            lane_mapping: SimdLaneMapping::Nnz,
        };
        let forced = ResolvedSimd::resolve(&vec_plan, SimdMode::ForceScalar);
        assert!(!forced.is_vectorized());
        assert_eq!(forced.label(), "scalar");

        let auto = ResolvedSimd::resolve(&vec_plan, SimdMode::Auto);
        if !cpu_features::force_scalar() {
            assert_eq!(auto.lanes, 8);
            assert!(auto.label().contains("nnz-x8"));
        }

        let scalar_plan = SimdPlan::scalar();
        assert!(!ResolvedSimd::resolve(&scalar_plan, SimdMode::Auto).is_vectorized());

        // Row lanes gather on AVX2 and run portable lane code elsewhere.
        let row_plan = SimdPlan {
            lanes: 8,
            lane_mapping: SimdLaneMapping::Rows,
        };
        let row = ResolvedSimd::resolve(&row_plan, SimdMode::Auto);
        if !cpu_features::force_scalar() {
            let (backend, label) = match cpu_features::detect_hardware() {
                SimdSupport::Avx2 => (Backend::Avx2, "avx2-row-x8"),
                _ => (Backend::Portable, "portable-row-x8"),
            };
            assert_eq!(row.backend, backend);
            assert_eq!(row.label(), label);
        }
    }

    #[test]
    fn a_row_lane_plan_at_x4_resolves_to_the_scalar_class() {
        // The library's only row-lane loop is 8 wide: a recorded or injected
        // `row-x4` plan runs the scalar loop, on a row partition as on an nnz
        // one, whatever the host.
        let plan = SimdPlan {
            lanes: 4,
            lane_mapping: SimdLaneMapping::Rows,
        };
        let resolved = ResolvedSimd::resolve(&plan, SimdMode::Auto);
        assert_eq!(resolved, ResolvedSimd::scalar());
        for rows_path in [true, false] {
            assert_eq!(
                crate::specialized::SimdClass::classify(&resolved, rows_path),
                crate::specialized::SimdClass::Scalar
            );
        }
    }

    #[test]
    fn nan_propagates_through_the_horizontal_add() {
        let (values, mut cols, mut x) = streams(64, 32, 11);
        x[5] = Scalar::NAN;
        cols[17] = 5; // one lane in the middle hits the NaN
        let got = row_dot_nnz_portable::<8>(&values, &cols, &x, 0, 0, 64);
        assert!(got.is_nan(), "NaN must survive the lane reduction tree");
    }
}
