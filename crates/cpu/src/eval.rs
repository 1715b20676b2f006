//! [`NativeEvaluator`]: scoring search candidates by measured wall-clock
//! time instead of modelled cost.
//!
//! The evaluator implements the unchanged
//! [`alpha_search::Evaluator`] trait, so it slots under the existing
//! `CachingEvaluator` / `BatchEvaluator` layers and behind
//! `SearchConfig::evaluator` — the three-level search then optimises what a
//! stopwatch actually reads on this machine.  Each candidate is generated
//! (through the search's [`Designer`](alpha_graph::Designer), so candidates
//! on one converting chain share one converted matrix), lowered to a
//! [`NativeKernel`], *verified* against the reference SpMV (wrong results are
//! infeasible, exactly like the simulator path) and then timed with the
//! configured [`TimingHarness`].  What each of those stages cost is observed
//! per candidate as `cpu_eval_stage_us{stage=...}` on the global registry.
//!
//! Three practical notes:
//!
//! * A measurement belongs to the program, not to the graph.  The operator
//!   graph varies thread-block size, rows per block and reduction style —
//!   coordinates lowering never reads — so most candidates of a search lower
//!   to a kernel an earlier candidate already ran (an 80-iteration tune
//!   explores 4-20 distinct kernels).  Every candidate is still generated
//!   and lowered.  A candidate that *is* a [`Program`] this evaluator
//!   verified and timed — the same sub-matrix allocations and, by value,
//!   everything else a run reads — under bitwise the same `x`, reference and
//!   tolerance skips both runs and carries that program's report.  Any other
//!   candidate is verified, timed and recorded.
//! * Measured times are nondeterministic; cached entries freeze the first
//!   measurement of each distinct program, which keeps a single search
//!   self-consistent.
//!   The harness parameters are part of the evaluation identity
//!   ([`EvaluatorId::Native`]), so differently-configured measurements never
//!   share cache entries with each other or with simulated results.
//! * When candidates are timed, run them one at a time
//!   (`SearchConfig::threads = 1`): concurrent candidate measurements steal
//!   each other's cores and corrupt the timings.  The kernel itself still
//!   uses all `kernel_threads` workers.

pub use crate::harness::NATIVE_DEVICE_LABEL;
use crate::harness::{MeasuredReport, TimingHarness};
use crate::kernel::{NativeKernel, Program};
use alpha_codegen::generate_with;
use alpha_graph::OperatorGraph;
use alpha_matrix::Scalar;
use alpha_parallel::Pool;
use alpha_search::{EvalContext, Evaluation, Evaluator, EvaluatorChoice, EvaluatorId};
use alpha_telemetry::{Counter, Histogram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Ground-truth evaluator that executes candidates natively and scores them
/// by measured time.
///
/// The evaluator owns a **private persistent pool** sized to
/// `kernel_threads` and a reusable output scratch buffer: every verification
/// run and every timed rep of every candidate in a search reuses the same
/// parked workers and the same allocation, so a measurement is pure kernel
/// time — no thread spawns, no allocator traffic, no interference from other
/// pools' jobs.  It also remembers every program it verified and timed: a
/// candidate that is one of them on the same probe is answered from its
/// measurement.
pub struct NativeEvaluator {
    harness: TimingHarness,
    kernel_threads: usize,
    executions: AtomicUsize,
    measurements: AtomicUsize,
    pool: Pool,
    measuring: Mutex<Measuring>,
    /// `cpu_eval_total{outcome=...}`, resolved once.
    timed: Counter,
    reused: Counter,
    infeasible: Counter,
    /// `cpu_eval_stage_us{stage=...}`, in [`EVAL_STAGES`] order.
    stages: [Histogram; EVAL_STAGES.len()],
}

/// The stages of one candidate evaluation, in the order they run: the
/// `stage` labels of `cpu_eval_stage_us`.  A candidate that turns out
/// infeasible observes the stages it completed; one that is a recorded
/// program observes its look-up as `verify` and nothing as `timing`.
pub const EVAL_STAGES: [&str; 4] = ["generate", "lower", "verify", "timing"];

/// Observes consecutive stages of one evaluation: each [`lap`](Self::lap)
/// is one clock read, charged to the next stage in [`EVAL_STAGES`] order.
struct StageClock<'a> {
    stages: std::slice::Iter<'a, Histogram>,
    last: Instant,
}

impl StageClock<'_> {
    fn lap(&mut self) {
        let now = Instant::now();
        if let Some(stage) = self.stages.next() {
            stage.observe_duration(now - self.last);
        }
        self.last = now;
    }
}

/// What one measurement at a time owns: whoever holds the lock has the
/// cores, the output buffer and the say on whether a program still needs
/// verifying and timing.
#[derive(Default)]
struct Measuring {
    y: Vec<Scalar>,
    /// Every program verified under [`Measuring::probe`] and timed, with its
    /// reading.
    programs: Vec<(Program, MeasuredReport)>,
    probe: Probe,
}

/// What verification judges a kernel's `y` by: the input, the reference
/// and the tolerance, compared bit for bit.
#[derive(Default)]
struct Probe {
    x: Vec<Scalar>,
    reference: Vec<Scalar>,
    tolerance: Scalar,
}

impl Probe {
    fn is(&self, ctx: &EvalContext<'_>) -> bool {
        same_bits(&self.x, ctx.x.as_slice())
            && same_bits(&self.reference, &ctx.reference)
            && self.tolerance.to_bits() == ctx.tolerance.to_bits()
    }
}

/// Bitwise equality, folded branch-free per block so it vectorizes.
fn same_bits(a: &[Scalar], b: &[Scalar]) -> bool {
    a.len() == b.len()
        && a.chunks(256).zip(b.chunks(256)).all(|(a, b)| {
            a.iter()
                .zip(b)
                .fold(0, |diff, (a, b)| diff | (a.to_bits() ^ b.to_bits()))
                == 0
        })
}

impl NativeEvaluator {
    /// An evaluator timing kernels with `harness` on `kernel_threads` workers
    /// (0 = one per available core).
    pub fn new(harness: TimingHarness, kernel_threads: usize) -> Self {
        let registry = alpha_telemetry::global();
        let outcome = |outcome| registry.counter("cpu_eval_total", &[("outcome", outcome)]);
        NativeEvaluator {
            harness,
            kernel_threads,
            executions: AtomicUsize::new(0),
            measurements: AtomicUsize::new(0),
            pool: Pool::new(kernel_threads),
            measuring: Mutex::new(Measuring::default()),
            timed: outcome("timed"),
            reused: outcome("reused"),
            infeasible: outcome("infeasible"),
            stages: EVAL_STAGES
                .map(|stage| registry.histogram("cpu_eval_stage_us", &[("stage", stage)])),
        }
    }

    /// The [`SearchConfig::evaluator`](alpha_search::SearchConfig) hook:
    /// selects native measured-time evaluation for a search.  The returned
    /// choice carries the harness parameters as its durable identity.
    pub fn choice(harness: TimingHarness, kernel_threads: usize) -> EvaluatorChoice {
        EvaluatorChoice::custom(harness.evaluator_id(), move || {
            Box::new(NativeEvaluator::new(harness, kernel_threads))
        })
    }

    /// The durable identity measurements from this evaluator carry.
    pub fn id(&self) -> EvaluatorId {
        self.harness.evaluator_id()
    }

    /// Number of candidates evaluated so far (generated, lowered, and run
    /// unless they were a recorded program) — the probe cache tests use to
    /// assert that hits skip execution.
    pub fn executions(&self) -> usize {
        self.executions.load(Ordering::Relaxed)
    }

    /// Number of programs verified and timed so far: at most
    /// [`executions`](Self::executions), and below it by every infeasible
    /// candidate and every candidate that was a program recorded before.
    pub fn measurements(&self) -> usize {
        self.measurements.load(Ordering::Relaxed)
    }

    /// Generates and lowers `graph`, then answers from the recorded program
    /// it is, or verifies, times and records it.  `None` is an infeasible
    /// design.
    fn measure(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        // Five clock reads per candidate: one to start, one after each stage.
        let mut clock = StageClock {
            stages: self.stages.iter(),
            last: Instant::now(),
        };
        let generated = generate_with(ctx.designer(), graph, ctx.options).ok()?;
        clock.lap();
        // A design that fails kernel-build validation (out-of-range affine
        // index endpoints, a shape outside the kernel library) is
        // infeasible, like a verification mismatch.
        let kernel = NativeKernel::try_new(generated.kernel.metadata(), &generated.format).ok()?;
        clock.lap();
        let workers = kernel.workers_for(self.kernel_threads);
        // The lock serialises measurements, which would otherwise steal each
        // other's cores — and the look-up for a recorded program happens
        // under it, so of two identical kernels evaluated concurrently
        // exactly one is verified and timed.
        let mut guard = self.measuring.lock().expect("evaluator scratch poisoned");
        let Measuring { y, programs, probe } = &mut *guard;
        if !probe.is(ctx) {
            // A program verified under another probe proves nothing here.
            *probe = Probe {
                x: ctx.x.as_slice().to_vec(),
                reference: ctx.reference.clone(),
                tolerance: ctx.tolerance,
            };
            programs.clear();
        }
        let measured = match programs.iter().find(|(p, _)| p.is(&kernel, workers)) {
            Some((_, report)) => {
                self.reused.inc();
                clock.lap();
                report.clone()
            }
            None => {
                // Verify before timing: a design that computes the wrong y
                // is infeasible, not merely slow.  The verification run also
                // validates the dimensions and warms the kernel's data, so
                // the timed loop below reuses the scratch buffer and runs
                // nothing extra.
                y.clear();
                y.resize(kernel.rows(), 0.0);
                kernel
                    .run_into_with_pool(ctx.x.as_slice(), y, self.kernel_threads, &self.pool)
                    .ok()?;
                if alpha_matrix::max_scaled_error(y, &ctx.reference) > ctx.tolerance {
                    return None;
                }
                clock.lap();
                let measured = self.harness.measure(kernel.useful_flops(), workers, || {
                    kernel
                        .run_into_with_pool(ctx.x.as_slice(), y, self.kernel_threads, &self.pool)
                        .expect("dimensions validated by the verification run");
                });
                self.measurements.fetch_add(1, Ordering::Relaxed);
                self.timed.inc();
                // Records whose sub-matrices are gone can never match again;
                // dropping them frees the index maps and allocations they pin.
                programs.retain(|(p, _)| p.is_live());
                programs.push((Program::of(&kernel, workers), measured.clone()));
                measured
            }
        };
        clock.lap();
        Some(Evaluation {
            report: measured.to_perf_report(kernel.format_bytes()),
            cached: false,
            // The design is ranked by its scalar program; the winner's loop
            // is selected on the host after the search, like a cost-model
            // winner's, and recorded then.
            kernel_shape: None,
        })
    }
}

impl Evaluator for NativeEvaluator {
    fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let evaluation = self.measure(ctx, graph);
        if evaluation.is_none() {
            self.infeasible.inc();
        }
        evaluation
    }
}

// Evaluators cross thread boundaries under BatchEvaluator; pin that.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NativeEvaluator>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use alpha_codegen::GeneratorOptions;
    use alpha_gpu::DeviceProfile;
    use alpha_graph::presets;
    use alpha_matrix::gen;
    use alpha_search::{CachingEvaluator, DesignCache};
    use std::sync::Arc;

    fn context_fixture(matrix: &alpha_matrix::CsrMatrix) -> EvalContext<'_> {
        EvalContext::new(
            matrix,
            &DeviceProfile::a100(),
            GeneratorOptions::default(),
            7,
        )
        .unwrap()
        .with_evaluator(TimingHarness::quick().evaluator_id())
    }

    #[test]
    fn native_evaluator_measures_feasible_designs() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        let eval = evaluator
            .evaluate(&ctx, &presets::csr_scalar())
            .expect("feasible");
        assert!(eval.report.gflops > 0.0);
        assert!(eval.report.time_us > 0.0);
        assert_eq!(eval.report.device, NATIVE_DEVICE_LABEL);
        assert_eq!(evaluator.executions(), 1);
    }

    #[test]
    fn a_design_is_measured_as_its_scalar_program_and_records_no_loop() {
        // No operator of a design picks a loop, so a measurement ranks the
        // scalar program and names no loop: the host selects the winner's
        // after the search, under this evaluator as under the cost model.
        let matrix = gen::uniform_random(512, 512, 16, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        for graph in [presets::csr_scalar(), presets::csr5_like(16)] {
            let evaluation = evaluator.evaluate(&ctx, &graph).expect("feasible");
            assert_eq!(evaluation.kernel_shape, None);
            let generated = generate_with(ctx.designer(), &graph, ctx.options).unwrap();
            let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
            assert!(
                kernel.shape_label().ends_with(":scalar"),
                "{}",
                kernel.shape_label()
            );
        }
    }

    /// `presets::csr_scalar()` with coordinates only a GPU reads changed:
    /// thread-block size, rows per thread block, reduction style.
    pub(crate) fn gpu_only_variants() -> Vec<OperatorGraph> {
        use alpha_graph::Operator;
        let mut variants = vec![presets::csr_scalar()];
        for threads_per_block in [64, 256, 512] {
            let mut graph = presets::csr_scalar();
            graph.branches[0][1] = Operator::SetResources { threads_per_block };
            variants.push(graph);
        }
        for rows in [32, 128] {
            let mut graph = presets::csr_scalar();
            graph.branches[0].insert(0, Operator::BmtbRowBlock { rows });
            variants.push(graph);
        }
        let mut graph = presets::csr_scalar();
        graph.branches[0].push(Operator::GmemAtomRed);
        variants.push(graph);
        for graph in &variants {
            graph.validate().expect("variant is a valid design");
        }
        variants
    }

    #[test]
    fn a_kernel_is_timed_once_however_many_graphs_lower_to_it() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::default(), 1);
        let outcome = |outcome| {
            alpha_telemetry::global()
                .counter("cpu_eval_total", &[("outcome", outcome)])
                .get()
        };
        let (timed, reused) = (outcome("timed"), outcome("reused"));
        let variants = gpu_only_variants();
        let reports: Vec<_> = variants
            .iter()
            .map(|graph| evaluator.evaluate(&ctx, graph).expect("feasible").report)
            .collect();
        assert_eq!(evaluator.executions(), variants.len());
        assert_eq!(evaluator.measurements(), 1);
        for report in &reports[1..] {
            assert_eq!(report.time_us.to_bits(), reports[0].time_us.to_bits());
            assert_eq!(report.gflops.to_bits(), reports[0].gflops.to_bits());
        }
        // Other tests of this process count on the same registry.
        assert!(outcome("timed") > timed);
        assert!(outcome("reused") >= reused + variants.len() as u64 - 1);

        // Another format is another program: timed once.
        for _ in 0..2 {
            evaluator
                .evaluate(&ctx, &presets::csr5_like(16))
                .expect("feasible");
        }
        assert_eq!(evaluator.measurements(), 2);
        assert_eq!(evaluator.executions(), variants.len() + 2);
    }

    #[test]
    fn gpu_only_variants_verify_once_then_count_as_same_program() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        let reused = || {
            alpha_telemetry::global()
                .counter("cpu_eval_total", &[("outcome", "reused")])
                .get()
        };
        let before = reused();
        let variants = gpu_only_variants();
        for graph in &variants {
            evaluator.evaluate(&ctx, graph).expect("feasible");
        }
        // One program: verified and timed by the first variant, and every
        // other variant is it.
        assert_eq!(evaluator.executions(), variants.len());
        assert_eq!(evaluator.measurements(), 1);
        // Other tests of this process count on the same registry.
        assert!(reused() >= before + variants.len() as u64 - 1);
    }

    #[test]
    fn another_allocation_is_not_the_same_program() {
        // Equal matrices, two contexts: each Designer converts its own, so
        // the kernels read equal streams from two allocations — two
        // programs, each verified and timed.
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let twin = matrix.clone();
        let (a, b) = (context_fixture(&matrix), context_fixture(&twin));
        let graph = presets::csr_scalar();
        let lowered = |ctx: &EvalContext<'_>| {
            let generated = generate_with(ctx.designer(), &graph, ctx.options).unwrap();
            NativeKernel::new(generated.kernel.metadata(), &generated.format)
        };
        assert!(!Program::of(&lowered(&a), 1).is(&lowered(&b), 1));

        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        evaluator.evaluate(&a, &graph).expect("feasible");
        evaluator.evaluate(&b, &graph).expect("feasible");
        assert_eq!(evaluator.measurements(), 2, "verified and timed again");
        // Both programs are remembered.
        evaluator.evaluate(&b, &graph).expect("feasible");
        evaluator.evaluate(&a, &graph).expect("feasible");
        assert_eq!((evaluator.executions(), evaluator.measurements()), (4, 2));
    }

    #[test]
    fn a_changed_probe_is_not_the_same_program() {
        let matrix = gen::banded(256, 2, 3);
        let mut ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        let graph = presets::csr_scalar();
        for _ in 0..2 {
            evaluator.evaluate(&ctx, &graph).expect("feasible");
        }
        assert_eq!(evaluator.measurements(), 1);
        // A new, consistent probe: verified and timed again, then
        // recognised again.
        ctx.x[0] = 2.5;
        ctx.reference = matrix.spmv(ctx.x.as_slice()).unwrap();
        for _ in 0..2 {
            evaluator.evaluate(&ctx, &graph).expect("feasible");
        }
        assert_eq!(evaluator.measurements(), 2);
        // A tolerance is part of the probe.
        ctx.tolerance *= 2.0;
        evaluator.evaluate(&ctx, &graph).expect("feasible");
        assert_eq!((evaluator.executions(), evaluator.measurements()), (5, 3));
    }

    #[test]
    fn concurrent_duplicates_of_one_batch_are_timed_once() {
        // The look-up for a recorded program happens under the lock that
        // serialises measurements: whichever duplicate gets there second
        // finds the first one's report.
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator =
            alpha_search::BatchEvaluator::new(NativeEvaluator::new(TimingHarness::default(), 1), 4);
        let batch = gpu_only_variants();
        let results = evaluator.evaluate_batch(&ctx, &batch);
        assert_eq!(evaluator.inner().executions(), batch.len());
        assert_eq!(evaluator.inner().measurements(), 1);
        let times: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().expect("feasible").report.time_us.to_bits())
            .collect();
        assert!(times.iter().all(|&t| t == times[0]), "{times:?}");
    }

    #[test]
    fn an_infeasible_design_is_never_remembered() {
        // Poisoned probe first: the kernel fails verification and must not
        // leave a report behind for its feasible self to pick up.
        let matrix = gen::banded(256, 2, 3);
        let mut ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        let finite = ctx.x[0];
        ctx.x[0] = alpha_matrix::Scalar::NAN;
        assert!(evaluator.evaluate(&ctx, &presets::csr_scalar()).is_none());
        assert_eq!(evaluator.measurements(), 0);
        ctx.x[0] = finite;
        assert!(evaluator.evaluate(&ctx, &presets::csr_scalar()).is_some());
        assert_eq!((evaluator.executions(), evaluator.measurements()), (2, 1));
    }

    #[test]
    fn infeasible_designs_are_rejected() {
        // A 2-way ROW_DIV cannot be applied to a 1-row matrix.
        let mut coo = alpha_matrix::CooMatrix::new(1, 8);
        for c in 0..8 {
            coo.push(0, c, 1.0);
        }
        let matrix = alpha_matrix::CsrMatrix::from_coo(&coo);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        assert!(evaluator
            .evaluate(&ctx, &presets::row_split_hybrid(2))
            .is_none());
    }

    #[test]
    fn a_kernel_that_emits_nan_is_infeasible() {
        // The reference was computed from a finite probe vector; poisoning
        // the probe afterwards makes every kernel emit NaN in the rows that
        // read column 0.  That is a wrong `y`, not a verified one.
        let matrix = gen::banded(256, 2, 3);
        let mut ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        assert!(evaluator.evaluate(&ctx, &presets::csr_scalar()).is_some());
        ctx.x[0] = alpha_matrix::Scalar::NAN;
        assert!(ctx.reference.iter().all(|v| v.is_finite()));
        assert!(evaluator.evaluate(&ctx, &presets::csr_scalar()).is_none());
        assert_eq!(evaluator.executions(), 2);
    }

    #[test]
    fn caching_layer_composes_and_skips_re_measurement() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let cache = Arc::new(DesignCache::new());
        let evaluator = CachingEvaluator::new(
            NativeEvaluator::new(TimingHarness::quick(), 1),
            cache.clone(),
        );
        let graph = presets::sell_like();
        let first = evaluator.evaluate(&ctx, &graph).expect("feasible");
        let second = evaluator.evaluate(&ctx, &graph).expect("feasible");
        assert_eq!(
            evaluator.inner().executions(),
            1,
            "second lookup must not re-measure"
        );
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.report.time_us, second.report.time_us);
    }

    #[test]
    fn simulated_and_native_contexts_never_share_cache_entries() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let simulated = EvalContext::new(
            &matrix,
            &DeviceProfile::a100(),
            GeneratorOptions::default(),
            7,
        )
        .unwrap();
        let native = context_fixture(&matrix);
        assert_ne!(simulated.context_key(), native.context_key());
    }
}
