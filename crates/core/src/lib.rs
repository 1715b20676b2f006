//! `alphasparse` — the top-level API of the AlphaSparse reproduction.
//!
//! AlphaSparse takes an arbitrary sparse matrix and a target device and
//! returns a **machine-designed SpMV program**: a format tailored to the
//! matrix's sparsity pattern, a kernel that runs it natively on this host,
//! and — on request — its emitted CUDA-like source code (paper Section III).
//! The GPU simulator is not linked here: the cost model is `alpha-gpu`'s
//! `SimEvaluator`, plugged in through [`EvaluatorChoice::custom`], and a
//! tuned design runs on the simulator as a `SimKernel` built from
//! [`TunedSpmv::kernel`] and [`TunedSpmv::format`].  The README quickstart
//! is [`AlphaSparse`]'s example.
//!
//! ```
//! # use alphasparse::{AlphaSparse, DeviceProfile};
//! let matrix = alpha_matrix::gen::powerlaw(512, 512, 8, 2.0, 7);
//! let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(20);
//! let tuned = tuner.auto_tune(&matrix).expect("tuning succeeds");
//! assert_eq!(tuned.run(&vec![1.0; 512]).expect("native SpMV").len(), 512);
//! ```

#![warn(missing_docs)]

pub use alpha_codegen as codegen;
pub use alpha_cpu as cpu;
pub use alpha_graph as graph;
pub use alpha_matrix as matrix;
pub use alpha_search as search;

pub use alpha_codegen::DeviceProfile;
pub use alpha_cpu::{MeasuredReport, NativeEvaluator, NativeKernel, TimingHarness};
pub use alpha_matrix::{CsrMatrix, MatrixStats, Scalar};
pub use alpha_search::{
    CacheStats, CachingEvaluator, DesignCache, EvalContext, Evaluation, Evaluator, EvaluatorChoice,
    EvaluatorId, SearchConfig, SearchOutcome, SearchStats,
};

use alpha_codegen::{generate, GeneratedSpmv, GeneratorOptions};
use alpha_graph::OperatorGraph;
use std::sync::Arc;

/// The AlphaSparse auto-designer: configure once, tune any number of matrices.
///
/// Every tuner owns a [`DesignCache`] that persists across `auto_tune` calls
/// (clones share it): candidate designs evaluated for one matrix are reused
/// verbatim when the same matrix — or an identical copy of it — is tuned
/// again, and re-tuning with a different budget resumes from the cached
/// evaluations instead of re-measuring them.  The cache lives in memory;
/// to make it survive process restarts, tune through `alpha-serve`'s
/// `TuningService`, whose `DesignStore` owns the design files.
///
/// This type is the *in-process* entry point.  To reach the same pipeline
/// over a socket — submit a matrix from another process or machine, poll
/// the tuning job, run the machine-designed SpMV remotely — run the
/// `alpha-net` daemon (`NetServer`) over an `alpha-serve` `TuningService`
/// and connect with its typed `Client`; every daemon job flows through the
/// same search, cache and store machinery this type uses, so a fleet tuned
/// remotely warms the store for everyone (see `examples/netd.rs` and the
/// serving-tier section of ARCHITECTURE.md).
///
/// The README quickstart, as a tested example:
///
/// ```
/// use alphasparse::{AlphaSparse, DeviceProfile};
/// use alpha_matrix::gen;
///
/// // A small irregular matrix.
/// let matrix = gen::powerlaw(512, 512, 8, 2.0, 7);
///
/// // Tune with a tiny budget (larger budgets find better designs).
/// let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(20);
/// let tuned = tuner.auto_tune(&matrix).expect("tuning succeeds");
///
/// // Run the machine-designed SpMV natively on this CPU (y = A·x for real).
/// let x = vec![1.0; 512];
/// let y = tuned.run(&x).expect("native SpMV succeeds");
/// assert_eq!(y.len(), 512);
/// // The search ranked designs by the time they took on this host.
/// assert!(tuned.evaluator().is_native());
/// println!("{:.1} measured GFLOPS with {}", tuned.gflops(), tuned.operator_graph());
/// ```
#[derive(Debug, Clone)]
pub struct AlphaSparse {
    config: SearchConfig,
    cache: Arc<DesignCache>,
}

impl AlphaSparse {
    /// Creates a tuner for the given device with the default search
    /// configuration, which ranks candidates by the time they take on this
    /// host ([`EvaluatorChoice::Native`], the default harness, the kernel on
    /// every core): a tune optimises the machine it runs on, and its winner
    /// is that machine's.  `device` keys every context the tuner searches,
    /// and is the device a plugged-in cost model is built for (`alpha-gpu`'s
    /// `SimEvaluator`, through [`with_evaluator`](AlphaSparse::with_evaluator)),
    /// the one backend under which a fixed seed picks the same design on any
    /// machine.
    pub fn new(device: DeviceProfile) -> Self {
        Self::with_config(SearchConfig {
            device,
            ..SearchConfig::default()
        })
    }

    /// Creates a tuner from a fully custom search configuration.
    pub fn with_config(config: SearchConfig) -> Self {
        AlphaSparse {
            config,
            cache: Arc::new(DesignCache::new()),
        }
    }

    /// Sets the maximum number of candidate kernels evaluated during the
    /// search (the dominant cost of tuning).
    pub fn with_search_budget(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Replaces the tuner's design cache with a shared one, so several
    /// tuners (e.g. per-device instances) can pool their evaluations.
    pub fn with_shared_cache(mut self, cache: Arc<DesignCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The design cache backing this tuner.
    pub fn cache(&self) -> &Arc<DesignCache> {
        &self.cache
    }

    /// Ranks candidates by **measured time** with explicit timing-harness
    /// parameters and kernel worker count (0 = one per available core).
    /// Measured time is the default ([`EvaluatorChoice::Native`] with
    /// [`TimingHarness::default`] on every core); this sets its parameters.
    /// Every candidate is executed as a real threaded CPU kernel
    /// (`alpha-cpu`) and scored by a steady-state wall clock, so `auto_tune`
    /// optimises the time this machine actually takes.
    ///
    /// The search evaluates its candidates one at a time, so no two
    /// measurements steal each other's cores; the kernels themselves use
    /// `kernel_threads` workers.  Measured winners are cached and stored
    /// under an identity that carries the harness parameters — they never
    /// mix with cost-model results or with other harnesses' readings.
    pub fn with_native_execution_harness(
        mut self,
        harness: TimingHarness,
        kernel_threads: usize,
    ) -> Self {
        self.config.evaluator = EvaluatorChoice::Native {
            harness,
            kernel_threads,
        };
        self
    }

    /// Replaces the ground-truth evaluation backend wholesale —
    /// `EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed)`
    /// plugs in `alpha-gpu`'s cost model, built on the tuner's device.
    pub fn with_evaluator(mut self, choice: EvaluatorChoice) -> Self {
        self.config.evaluator = choice;
        self
    }

    /// The search configuration this tuner will use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Reads a Matrix Market file and tunes it — the paper's end-to-end entry
    /// point ("users only need to input a Matrix Market file").
    pub fn auto_tune_mtx<P: AsRef<std::path::Path>>(&self, path: P) -> Result<TunedSpmv, String> {
        let matrix = alpha_matrix::mm::read_matrix_market_file(path).map_err(|e| e.to_string())?;
        self.auto_tune(&matrix)
    }

    /// Searches the operator-graph design space for the matrix and returns
    /// the winning machine-designed SpMV program.  Candidate evaluations are
    /// memoised in the tuner's in-memory [`DesignCache`], so repeated tuning
    /// of the same matrix is answered from the cache; persisting that cache
    /// is `alpha-serve`'s job (`TuningService`, or
    /// `DesignStore::persist_cache`).
    pub fn auto_tune(&self, matrix: &CsrMatrix) -> Result<TunedSpmv, String> {
        let outcome = alpha_search::search_with_cache(matrix, &self.config, &self.cache)?;
        self.rebuild(matrix, outcome)
    }

    /// Builds the ready-to-run program for a search outcome that is already
    /// known — the tail of [`AlphaSparse::auto_tune`] without the search.
    /// A serving layer that holds the stored winner of `matrix`'s context
    /// (and that winner's evaluation) answers a repeat request with this: a
    /// format build instead of a replayed search.  `outcome` must have been
    /// produced for this matrix under this tuner's configuration.
    ///
    /// A design never names its inner loop: the host picks it, under either
    /// evaluator.  When `outcome` names the loop
    /// ([`SearchOutcome::best_kernel_shape`], recorded by an earlier
    /// rebuild) and this host can run it, the design is lowered with that
    /// loop; otherwise the admissible loops
    /// are measured once ([`NativeKernel::select`]) and the winner is
    /// recorded on the design's entry in the tuner's cache — which is
    /// thereby dirty: a caller that persists the cache (`alpha-serve`'s
    /// `DesignStore`) writes it with the search's results.  Either way the
    /// choice lands in the returned program's own metadata, so
    /// [`TunedSpmv::kernel_shape`] names the loop that runs and a
    /// `NativeKernel::new` twin built from [`TunedSpmv::kernel`] and
    /// [`TunedSpmv::format`] runs it.
    pub fn rebuild(
        &self,
        matrix: &CsrMatrix,
        mut outcome: SearchOutcome,
    ) -> Result<TunedSpmv, String> {
        let mut generated = self.generate_for_graph(matrix, &outcome.best_graph)?;
        let mut native = std::sync::OnceLock::new();
        let mut loops = Vec::new();
        let metadata = generated.kernel.metadata();
        let recorded = outcome
            .best_kernel_shape
            .as_deref()
            .and_then(|label| alpha_cpu::plans_from_label(metadata, label));
        let plans = match recorded {
            Some(plans) => plans,
            None => {
                let (kernel, choices) =
                    NativeKernel::select(metadata, &generated.format).map_err(|e| e.to_string())?;
                let shape = kernel.partition_shapes();
                self.cache.set_winner_kernel_shape(
                    self.context_key(matrix),
                    &outcome.best_graph,
                    &shape,
                );
                outcome.best_kernel_shape = Some(shape);
                native = kernel.into();
                loops = choices;
                loops.iter().map(|choice| choice.plan).collect()
            }
        };
        if plans.iter().any(|plan| plan.is_vectorized()) {
            generated.set_simd_plans(&plans);
        }
        Ok(TunedSpmv {
            evaluator: self.config.evaluator.id(),
            matrix_stats: MatrixStats::from_csr(matrix),
            generated,
            native,
            loops,
            outcome,
        })
    }

    /// The key this tuner's searches of `matrix` cache under.
    fn context_key(&self, matrix: &CsrMatrix) -> u64 {
        alpha_search::context_key_for(
            matrix,
            &self.config.device,
            GeneratorOptions {
                model_compression: self.config.enable_model_compression,
            },
            self.config.seed,
            self.config.evaluator.id(),
        )
    }

    /// Generates the SpMV program for an explicit operator graph, without any
    /// search — useful for reproducing a known design or benchmarking a
    /// hand-written graph.
    pub fn generate_for_graph(
        &self,
        matrix: &CsrMatrix,
        graph: &OperatorGraph,
    ) -> Result<GeneratedSpmv, String> {
        let options = GeneratorOptions {
            model_compression: self.config.enable_model_compression,
        };
        generate(graph, matrix, options).map_err(|e| e.to_string())
    }
}

/// The result of auto-tuning one matrix: the machine-designed format and
/// kernel, plus the search outcome.  The CUDA-like source is emitted from
/// them on request ([`TunedSpmv::source`]); [`TunedSpmv::kernel_shape`]
/// names the library loop the host runs.
pub struct TunedSpmv {
    evaluator: EvaluatorId,
    /// Statistics of the tuned matrix — all a finished design still needs of
    /// it (the generated format holds the data), so the handle does not keep
    /// a second copy of the matrix alive.
    matrix_stats: MatrixStats,
    generated: GeneratedSpmv,
    /// Lowered on first native use (the lowering clones the partition
    /// matrices and index arrays, which a lookup should not pay for) —
    /// except by the rebuild that selected the inner loops, which had to
    /// lower the design to measure it and keeps that kernel.
    native: std::sync::OnceLock<NativeKernel>,
    /// One entry per partition when this handle's rebuild measured the inner
    /// loops; empty when the design or a recorded label decided them.
    loops: Vec<alpha_cpu::LoopChoice>,
    outcome: SearchOutcome,
}

impl TunedSpmv {
    /// Runs `y = A·x` **natively**: the stored winner executes as a real
    /// threaded CPU kernel (`alpha-cpu`), the handle's one executor.  `y` is the
    /// actual product, computed at memory speed.  Steady-state friendly:
    /// repeated calls reuse the process-wide persistent worker pool — no
    /// thread is ever spawned on this path.
    ///
    /// The shared pool runs one job at a time, and a concurrent measured
    /// `auto_tune` times its candidates' kernels on the same pool, so a
    /// multi-threaded `run` issued *while another thread is tuning in the
    /// same process* can wait out one timed run.  A latency-sensitive
    /// server running SpMV next to tuning should choose the executor per
    /// request with [`TunedSpmv::run_with_pool`].
    pub fn run(&self, x: &[Scalar]) -> Result<Vec<Scalar>, String> {
        self.native_kernel().run(x, 0)
    }

    /// [`run`](TunedSpmv::run) on an explicit persistent pool — what a
    /// long-lived server uses so its SpMV traffic does not share the
    /// process-wide pool with tuning work.  `alpha-net` passes its daemon's
    /// execution pool for a request that is the daemon's only work, and a
    /// one-thread `Pool::new(1)` (which spawns nothing) otherwise.
    ///
    /// The work is split into the kernel's `workers_for(0)` shares whatever
    /// the pool, and the shares are combined in the same order, so the pool
    /// decides only how many of them run at once: `y` is bitwise the same
    /// on every pool.
    pub fn run_with_pool(
        &self,
        x: &[Scalar],
        pool: &alpha_parallel::Pool,
    ) -> Result<Vec<Scalar>, String> {
        self.native_kernel().run_with_pool(x, 0, pool)
    }

    /// Measures the stored winner's native execution with a steady-state
    /// timing harness (warmup + min-of-N), returning wall-clock GFLOP/s.
    pub fn measure(
        &self,
        harness: TimingHarness,
        threads: usize,
    ) -> Result<MeasuredReport, String> {
        let x = alpha_matrix::DenseVector::ones(self.matrix_stats.cols);
        harness.measure_kernel(self.native_kernel(), x.as_slice(), threads)
    }

    /// The lowered native kernel (built on first native use; see
    /// [`TunedSpmv::run`]).
    pub fn native_kernel(&self) -> &NativeKernel {
        self.native.get_or_init(|| {
            NativeKernel::new(self.generated.kernel.metadata(), &self.generated.format)
        })
    }

    /// Which evaluation backend selected this design — the simulator's cost
    /// model or native measured time (with its harness parameters).
    pub fn evaluator(&self) -> EvaluatorId {
        self.evaluator
    }

    /// The monomorphized-library shape key of the lowered native kernel
    /// (see `alpha_cpu::KernelShape::label`).  Lowers the kernel if it has
    /// not run natively yet.
    pub fn kernel_shape(&self) -> String {
        self.native_kernel().shape_label()
    }

    /// How this handle's inner loops were chosen, one [`LoopChoice`] per
    /// partition with every candidate's measured ns/nnz — or empty when
    /// nothing was measured for it: the loop was lowered from the label a
    /// previous tune recorded.
    ///
    /// [`LoopChoice`]: alpha_cpu::LoopChoice
    pub fn loop_selection(&self) -> &[alpha_cpu::LoopChoice] {
        &self.loops
    }

    /// One line saying which inner loop runs and why, e.g.
    /// `avx2-nnz-x8 (scalar 0.51, avx2-nnz-x4 0.40, avx2-nnz-x8 0.37 ns/nnz)`
    /// after a measurement, or `avx2-nnz-x8 (recorded)` for a loop lowered
    /// from its stored label.
    pub fn loop_summary(&self) -> String {
        if !self.loops.is_empty() {
            let choices: Vec<String> = self.loops.iter().map(|c| c.to_string()).collect();
            return choices.join(" | ");
        }
        format!("{} (recorded)", self.native_kernel().simd_label())
    }

    /// Always `true`: the monomorphized kernel library is the only native
    /// executor (a shape outside it fails the kernel build), so a design
    /// that runs natively runs specialized.  Kept because the repo
    /// benchmark reads it (`cpu.specialized_share`).
    pub fn is_specialized(&self) -> bool {
        true
    }

    /// The winning operator graph, formatted for display.
    pub fn operator_graph(&self) -> String {
        self.outcome.best_graph.to_string().trim_end().to_string()
    }

    /// Throughput of the winning kernel in GFLOP/s as the search's
    /// evaluator read it: measured on this host by default, modelled under
    /// the cost model.
    pub fn gflops(&self) -> f64 {
        self.outcome.best_gflops
    }

    /// The CUDA-like source of the winning kernel, emitted from this
    /// handle's metadata and format on every call.
    pub fn source(&self) -> String {
        self.generated.source()
    }

    /// The machine-designed format description.
    pub fn format(&self) -> &alpha_codegen::MachineFormat {
        &self.generated.format
    }

    /// The generated kernel: with [`TunedSpmv::format`], what any other
    /// executor of the design is built from (`alpha-gpu`'s `SimKernel`, a
    /// `NativeKernel` twin).
    pub fn kernel(&self) -> &alpha_codegen::GeneratedKernel {
        &self.generated.kernel
    }

    /// Search statistics (iterations, pruning, cache hits, and the level-3
    /// picks of the evaluator's hook, which only the cost model makes).
    pub fn search_stats(&self) -> &SearchStats {
        &self.outcome.stats
    }

    /// Statistics of the tuned matrix.
    pub fn matrix_stats(&self) -> MatrixStats {
        self.matrix_stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_gpu::{GpuSim, SimEvaluator, SimKernel};
    use alpha_matrix::{gen, max_scaled_error, DenseVector};

    /// The cost model, plugged in.
    fn cost_model() -> EvaluatorChoice {
        EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed)
    }

    /// `y = A·x` of a tuned design on the simulated A100.
    fn simulate(tuned: &TunedSpmv, x: &[Scalar]) -> Vec<Scalar> {
        let kernel = SimKernel::new(tuned.kernel(), tuned.format());
        GpuSim::new(DeviceProfile::a100())
            .run(&kernel, x)
            .unwrap()
            .y
    }

    #[test]
    fn auto_tune_produces_correct_spmv() {
        let matrix = gen::powerlaw(768, 768, 10, 2.0, 11);
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(25);
        let tuned = tuner.auto_tune(&matrix).unwrap();
        let x = DenseVector::random(768, 3);
        let y = tuned.run(x.as_slice()).unwrap();
        let expected = matrix.spmv(x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        assert!(tuned.evaluator().is_native(), "the default is measured");
        assert!(tuned.gflops() > 0.0);
        assert!(!tuned.source().is_empty());
        assert!(tuned.operator_graph().contains("COMPRESS"));
        assert!(tuned.search_stats().iterations > 0);
    }

    #[test]
    fn a_matrix_with_an_infinite_or_nan_value_tunes_under_the_cost_model() {
        let base = gen::uniform_random(512, 512, 8, 4);
        for poison in [Scalar::INFINITY, Scalar::NAN] {
            let mut values = base.values().to_vec();
            values[100] = poison;
            let matrix = CsrMatrix::from_raw(
                512,
                512,
                base.row_offsets().to_vec(),
                base.col_indices().to_vec(),
                values,
            )
            .unwrap();
            let tuned = AlphaSparse::new(DeviceProfile::a100())
                .with_evaluator(cost_model())
                .with_search_budget(8)
                .auto_tune(&matrix)
                .unwrap_or_else(|e| panic!("{poison}: {e}"));
            let x = DenseVector::random(512, 3);
            let expected = matrix.spmv(x.as_slice()).unwrap();
            assert!(expected.iter().any(|v| !v.is_finite()));
            for y in [
                simulate(&tuned, x.as_slice()),
                tuned.run(x.as_slice()).unwrap(),
            ] {
                assert!(max_scaled_error(&y, &expected) <= 1e-3, "{poison}");
            }
        }
    }

    #[test]
    fn builder_methods_configure_the_search() {
        let tuner = AlphaSparse::new(DeviceProfile::rtx2080()).with_search_budget(5);
        assert_eq!(tuner.config().max_iterations, 5);
        assert_eq!(tuner.config().device.name, "RTX2080");
    }

    #[test]
    fn generate_for_graph_skips_the_search() {
        let matrix = gen::uniform_random(256, 256, 8, 5);
        let tuner = AlphaSparse::new(DeviceProfile::a100());
        let generated = tuner
            .generate_for_graph(&matrix, &alpha_graph::presets::sell_like())
            .unwrap();
        assert!(generated.source().contains("alphasparse_partition_0"));
    }

    #[test]
    fn repeated_tuning_is_served_from_the_design_cache() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 21);
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(15);
        let first = tuner.auto_tune(&matrix).unwrap();
        // A fresh cache may still hit within the first search (canonically
        // equal mutation variants), but most lookups must be misses.
        assert!(first.search_stats().cache_misses > first.search_stats().cache_hits);
        let second = tuner.auto_tune(&matrix).unwrap();
        assert_eq!(
            second.search_stats().cache_misses,
            0,
            "rerun must be fully cached"
        );
        assert!(second.search_stats().cache_hit_rate() > 0.99);
        assert_eq!(first.operator_graph(), second.operator_graph());
        assert_eq!(first.gflops(), second.gflops());
        // Clones share the cache.
        let clone = tuner.clone();
        let third = clone.auto_tune(&matrix).unwrap();
        assert_eq!(third.search_stats().cache_misses, 0);
    }

    #[test]
    fn native_run_matches_the_simulated_kernel_and_reference() {
        // The plug-in's factory is handed the tuner's device: each winner is
        // modelled on the configured profile, under a context key that
        // hashes that profile.
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 19);
        let keys = [DeviceProfile::a100(), DeviceProfile::rtx2080()].map(|device| {
            let tuner = AlphaSparse::new(device.clone())
                .with_evaluator(cost_model())
                .with_search_budget(12);
            let tuned = tuner.auto_tune(&matrix).unwrap();
            assert_eq!(tuned.evaluator(), EvaluatorId::Simulated);
            // The cost model ran on the tuner's device: the winner's
            // reading is the simulator's on that profile.
            let modelled = GpuSim::with_workers(device.clone(), 1)
                .run(&SimKernel::new(tuned.kernel(), tuned.format()), &[1.0; 512])
                .unwrap()
                .report
                .gflops;
            assert_eq!(
                tuned.gflops().to_bits(),
                modelled.to_bits(),
                "{}",
                device.name
            );
            let key = tuner.context_key(&matrix);
            assert!(tuner.cache().winner(key).is_some(), "{}", device.name);
            let x = DenseVector::random(512, 4);
            let reference = matrix.spmv(x.as_slice()).unwrap();
            let native = tuned.run(x.as_slice()).unwrap();
            let simulated = simulate(&tuned, x.as_slice());
            assert!(DenseVector::from_vec(native.clone()).approx_eq(&reference, 1e-3));
            assert!(DenseVector::from_vec(native).approx_eq(&simulated, 1e-3));
            key
        });
        assert_ne!(keys[0], keys[1]);
    }

    /// Long uniform rows: whichever format the search picks, a vector
    /// loop beats the scalar one on them by a wide margin.
    fn long_row_matrix() -> CsrMatrix {
        gen::uniform_random(2_048, 2_048, 64, 23)
    }

    /// A kernel built from the handle's own metadata and format — the
    /// benchmark's telemetry probe builds exactly this — must be a twin.
    fn assert_twin(tuned: &TunedSpmv, matrix: &CsrMatrix) {
        let twin = NativeKernel::new(tuned.kernel().metadata(), tuned.format()).without_telemetry();
        assert_eq!(twin.shape_label(), tuned.kernel_shape());
        assert_eq!(twin.shape_label(), tuned.native_kernel().shape_label());
        let x = DenseVector::random(matrix.cols(), 4);
        let bits = |y: Vec<Scalar>| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(twin.run(x.as_slice(), 1).unwrap()),
            bits(tuned.native_kernel().run(x.as_slice(), 1).unwrap())
        );
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let y = tuned.run(x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
    }

    #[test]
    fn a_simulated_tune_prints_and_twins_the_loop_it_runs() {
        let matrix = long_row_matrix();
        let tuner = AlphaSparse::new(DeviceProfile::a100())
            .with_evaluator(cost_model())
            .with_search_budget(12);
        let tuned = tuner.auto_tune(&matrix).unwrap();
        assert_eq!(tuned.evaluator(), EvaluatorId::Simulated);
        assert!(
            !tuned.operator_graph().contains("SIMD"),
            "the design stays the cost model's: {}",
            tuned.operator_graph()
        );
        // The loop was measured, one choice per partition, and the handle
        // says so in one line.  (Which loop wins is the host's business: an
        // unoptimised build's vector loops lose to its scalar one.)
        let choices = tuned.loop_selection();
        assert_eq!(choices.len(), tuned.format().partitions.len());
        assert!(tuned.loop_summary().starts_with(&choices[0].label));
        assert!(tuned
            .kernel_shape()
            .ends_with(&choices.last().unwrap().label));
        assert_twin(&tuned, &matrix);

        // Whatever this build measured, a context whose recorded loop names
        // nnz lanes is lowered, printed and twinned with those lanes.
        let lanes = alpha_cpu::ResolvedSimd::resolve(
            &alpha_graph::SimdPlan {
                lanes: 8,
                lane_mapping: alpha_graph::SimdLaneMapping::Nnz,
            },
            alpha_cpu::SimdMode::Auto,
        );
        let (key, winner) = tuner.cache().winners().pop().expect("one context");
        tuner.cache().set_winner_kernel_shape(
            key,
            &winner.graph,
            &format!("any:{}", lanes.label()),
        );
        let vectorized = tuner.auto_tune(&matrix).unwrap();
        assert!(
            vectorized.loop_selection().is_empty(),
            "lowered from the label"
        );
        let shape = vectorized.kernel_shape();
        if alpha_cpu::cpu_features::force_scalar() {
            assert!(shape.ends_with(":scalar"), "{shape}");
        } else {
            assert!(shape.ends_with("nnz-x8"), "{shape}");
            assert!(vectorized.native_kernel().is_vectorized());
            let summary = vectorized.loop_summary();
            assert_eq!(summary, format!("{} (recorded)", lanes.label()));
        }
        assert_eq!(vectorized.operator_graph(), tuned.operator_graph());
        assert_eq!(vectorized.source(), tuned.source());
        assert_twin(&vectorized, &matrix);
    }

    #[test]
    fn a_recorded_loop_is_lowered_unmeasured_and_a_hostile_one_is_reselected() {
        let matrix = long_row_matrix();
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(12);
        let first = tuner.auto_tune(&matrix).unwrap();
        assert!(
            !first.loop_selection().is_empty(),
            "a fresh context measures"
        );
        let (key, winner) = tuner.cache().winners().pop().expect("one context");
        let recorded = winner.kernel_shape.clone().expect("the choice is recorded");
        assert!(recorded.ends_with(&first.loop_selection().last().unwrap().label));
        tuner.cache().mark_clean();

        // The replay reads the loop off the winner's entry: nothing is
        // measured, nothing is written.
        let second = tuner.auto_tune(&matrix).unwrap();
        assert_eq!(second.search_stats().cache_misses, 0);
        assert!(second.loop_selection().is_empty());
        assert!(
            second.loop_summary().ends_with("(recorded)"),
            "{}",
            second.loop_summary()
        );
        assert_eq!(second.kernel_shape(), first.kernel_shape());
        assert_eq!(second.source(), first.source());
        assert!(!tuner.cache().is_dirty());
        // The stored path — the winner rebuilt from its record and its cache
        // entry, no search — emits the same code and lowers the same loop.
        let entry = tuner.cache().entry(key, &winner.graph).unwrap().unwrap();
        let outcome = SearchOutcome {
            best_graph: winner.graph.clone(),
            best_gflops: entry.gflops,
            best_kernel_shape: entry.kernel_shape,
            stats: SearchStats::default(),
        };
        let stored = tuner.rebuild(&matrix, outcome).unwrap();
        assert_eq!(stored.source(), first.source());
        assert_eq!(stored.kernel_shape(), first.kernel_shape());

        // A label this host would not have chosen is selected again and
        // overwritten — never an error, never a panic, never trusted.
        let foreign = match alpha_cpu::cpu_features::detect_hardware() {
            alpha_cpu::SimdSupport::Avx2 => "rows[off:table,org:id,col:table]:neon-nnz-x8",
            _ => "rows[off:table,org:id,col:table]:avx2-nnz-x8",
        };
        for hostile in [
            "",
            "not a shape",
            "rows[off:table,org:id,col:table]:row-x16",
            foreign,
        ] {
            tuner
                .cache()
                .set_winner_kernel_shape(key, &winner.graph, hostile);
            let again = tuner.auto_tune(&matrix).unwrap();
            assert_eq!(again.search_stats().cache_misses, 0, "{hostile:?}");
            assert!(
                !again.loop_selection().is_empty(),
                "{hostile:?} must be re-selected"
            );
            let healed = tuner.cache().winner(key).unwrap().kernel_shape.unwrap();
            assert!(
                alpha_cpu::plans_from_label(again.kernel().metadata(), &healed).is_some(),
                "{hostile:?} was overwritten with {healed:?}"
            );
            assert_eq!(again.operator_graph(), first.operator_graph());
            let x = DenseVector::random(matrix.cols(), 6);
            let expected = matrix.spmv(x.as_slice()).unwrap();
            let y = again.run(x.as_slice()).unwrap();
            assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        }
    }

    #[test]
    fn native_execution_tunes_on_measured_time() {
        let matrix = gen::powerlaw(384, 384, 8, 2.0, 13);
        let tuner = AlphaSparse::new(DeviceProfile::a100())
            .with_search_budget(10)
            .with_native_execution_harness(TimingHarness::quick(), 1);
        let tuned = tuner.auto_tune(&matrix).unwrap();
        assert!(tuned.evaluator().is_native());
        assert!(tuned.gflops() > 0.0, "winner carries a measured reading");

        let x = DenseVector::random(384, 5);
        let y = tuned.run(x.as_slice()).unwrap();
        let expected = matrix.spmv(x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));

        let measured = tuned.measure(TimingHarness::quick(), 1).unwrap();
        assert!(measured.gflops > 0.0);

        // The search ranked designs by their scalar programs; the winner's
        // loop is selected on the host after it, once, and recorded on the
        // winner.
        assert!(!tuned.loop_selection().is_empty());
        if alpha_cpu::cpu_features::force_scalar() {
            assert!(tuned.loop_selection().iter().all(|c| c.label == "scalar"));
        }
        assert_eq!(
            tuner.cache().winners().pop().unwrap().1.kernel_shape,
            Some(tuned.kernel_shape())
        );
        // A repeat tune lowers the recorded label: nothing is measured again.
        let again = tuner.auto_tune(&matrix).unwrap();
        assert!(
            again.loop_selection().is_empty(),
            "{}",
            again.loop_summary()
        );
        assert_eq!(again.kernel_shape(), tuned.kernel_shape());

        // Every candidate's evaluation is cached and encoded, but only the
        // winner's code is ever emitted — by the handle, when asked.
        let marker = b"// Machine-generated";
        let bytes = tuner.cache().to_bytes();
        assert!(tuner.cache().len() > 1);
        assert!(!bytes.windows(marker.len()).any(|w| w == marker));
        assert!(tuned.source().as_bytes().starts_with(marker));
    }

    /// One measured search, as its evaluator saw it.
    struct RecordedSearch {
        evaluator: NativeEvaluator,
        /// Every feasible candidate in evaluation order: its graph, which of
        /// `programs` its kernel is, the GFLOP/s it was given.
        feasible: std::sync::Mutex<Vec<(OperatorGraph, usize, f64)>>,
        /// The distinct programs the candidates lowered to, first seen first.
        programs: std::sync::Mutex<Vec<alpha_cpu::Program>>,
    }

    struct Recording(Arc<RecordedSearch>);

    impl Evaluator for Recording {
        fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
            let evaluation = self.0.evaluator.evaluate(ctx, graph)?;
            // Through the search's Designer, the one the evaluator's records
            // are scoped to.
            let generated = alpha_codegen::generate_with(ctx.designer(), graph, ctx.options)
                .expect("it was feasible");
            let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
            let workers = kernel.workers_for(1);
            let mut programs = self.0.programs.lock().unwrap();
            let program = match programs.iter().position(|p| p.is(&kernel, workers)) {
                Some(program) => program,
                None => {
                    programs.push(alpha_cpu::Program::of(&kernel, workers));
                    programs.len() - 1
                }
            };
            self.0
                .feasible
                .lock()
                .unwrap()
                .push((graph.clone(), program, evaluation.gflops));
            Some(evaluation)
        }
    }

    #[test]
    fn a_measured_search_keeps_its_schedule_and_times_each_kernel_once() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 13);
        let harness = TimingHarness::quick();
        let searches: Arc<std::sync::Mutex<Vec<Arc<RecordedSearch>>>> = Arc::default();
        let choice = {
            let searches = searches.clone();
            EvaluatorChoice::custom(harness.evaluator_id(), move |_| {
                let search = Arc::new(RecordedSearch {
                    evaluator: NativeEvaluator::new(harness, 1),
                    feasible: Default::default(),
                    programs: Default::default(),
                });
                searches.lock().unwrap().push(search.clone());
                Box::new(Recording(search))
            })
        };
        // Two cold tunes with one seed, each on its own cache.
        let tune = || {
            let tuner = AlphaSparse::with_config(SearchConfig {
                max_iterations: 30,
                ..SearchConfig::default()
            })
            .with_evaluator(choice.clone());
            let tuned = tuner.auto_tune(&matrix).unwrap();
            let (_, winner) = tuner.cache().winners().pop().expect("a winner is stored");
            (tuned.search_stats().clone(), winner)
        };
        let (stats, winner) = tune();
        // The schedule does not follow from what the stopwatch read: the
        // same candidates, each evaluated and cached on its own, whatever
        // they measured.
        let (second, _) = tune();
        let schedule =
            |s: &SearchStats| (s.iterations, s.structures_enumerated, s.structures_pruned);
        assert_eq!(schedule(&stats), schedule(&second));
        assert_eq!(stats.cache_misses, second.cache_misses);
        assert_eq!(stats.iterations, 30, "the budget was the stop condition");
        let searches = searches.lock().unwrap();
        assert_eq!(searches.len(), 2, "one evaluator per search");

        let search = &searches[0];
        let feasible = search.feasible.lock().unwrap();
        assert_eq!(search.evaluator.executions(), stats.cache_misses);
        // One timing per distinct program, and far fewer programs than graphs.
        let mut first_seen: Vec<&(OperatorGraph, usize, f64)> = Vec::new();
        for candidate in feasible.iter() {
            match first_seen.iter().find(|first| first.1 == candidate.1) {
                // Every graph of one kernel carries the kernel's one reading.
                Some(first) => assert_eq!(first.2.to_bits(), candidate.2.to_bits()),
                None => first_seen.push(candidate),
            }
        }
        assert_eq!(search.evaluator.measurements(), first_seen.len());
        assert!(
            2 * first_seen.len() <= feasible.len(),
            "{} kernels for {} graphs",
            first_seen.len(),
            feasible.len()
        );
        // Ties keep the incumbent, so the winner is the first graph that
        // reached its kernel.
        let of_winner = feasible
            .iter()
            .find(|candidate| candidate.0 == winner.graph)
            .expect("the winner was evaluated");
        let first = first_seen.iter().find(|first| first.1 == of_winner.1);
        assert_eq!(first.unwrap().0, winner.graph);
        assert_eq!(first.unwrap().2.to_bits(), winner.gflops.to_bits());
    }

    #[test]
    fn auto_tune_mtx_reads_matrix_market_files() {
        let dir = std::env::temp_dir().join("alphasparse_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.mtx");
        let mut text = String::from("%%MatrixMarket matrix coordinate real general\n64 64 128\n");
        for i in 0..64 {
            text.push_str(&format!("{} {} 1.5\n", i + 1, i + 1));
            text.push_str(&format!("{} {} -0.5\n", i + 1, (i + 7) % 64 + 1));
        }
        std::fs::write(&path, text).unwrap();
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(8);
        let tuned = tuner.auto_tune_mtx(&path).unwrap();
        assert_eq!(tuned.matrix_stats().rows, 64);
        assert!(tuner.auto_tune_mtx(dir.join("missing.mtx")).is_err());
    }
}
