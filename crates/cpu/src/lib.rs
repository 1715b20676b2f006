//! `alpha-cpu` — the native CPU execution backend of the AlphaSparse
//! reproduction.
//!
//! Every other layer of this repository *models* performance: the `alpha-gpu`
//! simulator interprets a generated kernel and charges it analytical costs.
//! This crate is where a machine-designed format finally **computes
//! `y = A·x` for real**: a [`GeneratedSpmv`](alpha_codegen::GeneratedSpmv)
//! (machine format + compression models + reduction fragments) is lowered
//! into a [`NativeKernel`] — specialized row/nnz-partition loops over the
//! extracted index and value arrays, with affine-compressed arrays computed
//! instead of loaded, parallelized across a persistent `alpha-parallel`
//! worker pool with per-partition work splitting.
//!
//! On top of execution it provides:
//!
//! * [`TimingHarness`] — a steady-state wall-clock harness (warmup +
//!   min-of-N) producing a [`MeasuredReport`], shared with `alpha-baselines`
//!   so generated-vs-baseline comparisons are apples-to-apples;
//! * [`NativeEvaluator`] — an [`Evaluator`](alpha_search::Evaluator)
//!   implementation that scores search candidates by **measured time**
//!   instead of modelled cost, selectable through
//!   [`SearchConfig::evaluator`](alpha_search::SearchConfig) and composable
//!   with the existing `CachingEvaluator` / `BatchEvaluator` layers.  Every
//!   candidate is lowered; a verification and a measurement are filed under
//!   the [`Program`] that ran, so the many graphs that lower to one kernel
//!   cost one verification and one timing per search;
//! * [`simd`] — AVX2/NEON SpMV microkernels behind the runtime
//!   [`cpu_features`] probe, with lane width and row-vs-nnz lane mapping
//!   taken from each partition's [`SimdPlan`](alpha_graph::SimdPlan).  No
//!   operator of a design fills that plan: the inner loop is a fact about
//!   the host, under either evaluator.  [`NativeEvaluator`] ranks designs by
//!   their scalar program; after the search [`NativeKernel::select`]
//!   measures the admissible library loops on the winner's own streams once,
//!   the caller writes the winners into the plans, and [`plans_from_label`]
//!   maps a recorded choice back without measuring;
//! * [`specialized`] — the **monomorphized kernel library**, the only SpMV
//!   executor: every designer-reachable [`KernelShape`] (partition strategy
//!   × index-fn kinds × column coding × SIMD variant) compiles to a
//!   branch-free straight-line loop at build time; `NativeKernel::new`
//!   resolves each partition's shape against the library once, runs call the
//!   resulting function pointers on a persistent
//!   [`Pool`](alpha_parallel::Pool), and a shape outside the library is the
//!   typed [`KernelBuildError::UnsupportedShape`].

#![warn(missing_docs)]

pub mod cpu_features;
pub mod eval;
pub mod harness;
pub mod kernel;
pub mod simd;
pub mod specialized;

pub use cpu_features::{SimdSupport, NO_SIMD_ENV};
pub use eval::{NativeEvaluator, NATIVE_DEVICE_LABEL};
pub use harness::{MeasuredReport, TimingHarness};
pub use kernel::{
    effective_workers, plans_from_label, IndexFn, KernelBuildError, LoopChoice, NativeKernel,
    Program, MIN_NNZ_PER_WORKER,
};
pub use simd::{ResolvedSimd, SimdMode};
pub use specialized::{IndexKind, KernelShape, PartitionKind, SimdClass};
