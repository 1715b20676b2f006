//! [`NativeEvaluator`]: scoring search candidates by measured wall-clock
//! time instead of modelled cost.
//!
//! The evaluator implements the evaluation contract
//! ([`alpha_codegen::Evaluator`]), so it slots under the search's
//! `CachingEvaluator` layer; it is the search's default
//! backend (`EvaluatorChoice::Native`, which `alpha-search` builds), and the
//! search then optimises what a stopwatch actually reads on this
//! machine.  Each candidate is designed
//! through the search's [`Designer`](alpha_graph::Designer), so candidates
//! whose conversions order rows alike share one copy.  A candidate that is
//! not a program measured before is then generated, lowered to a
//! [`NativeKernel`], *verified* against the reference SpMV (wrong results are
//! infeasible, exactly like the simulator path) and timed with the
//! configured [`TimingHarness`].  What each of those stages cost is observed
//! per candidate as `cpu_eval_stage_us{stage=...}` on the global registry.
//!
//! Four practical notes:
//!
//! * A measurement belongs to the program, not to the graph.  The operator
//!   graph varies thread-block size, rows per block and reduction style —
//!   coordinates lowering never reads — so most candidates of a search lower
//!   to a kernel an earlier candidate already ran: on the benchmark's cold
//!   fleet (16 384 × 16, 80 iterations) a tune of 85 candidates times 1
//!   program on uniform and block matrices, 5-8 on banded and 12-16 on
//!   powerlaw and rmat ones.  A candidate whose designed plans are a
//!   [`PlannedProgram`] this evaluator verified and timed — by value: the
//!   same row orders and column bands, and everything else lowering reads —
//!   through the same Designer and under bitwise the same `x`, reference and
//!   tolerance is neither generated nor lowered nor run: it carries that
//!   program's GFLOP/s, even when the Designer rebuilt its conversion after
//!   evicting it.  Any other candidate is generated, lowered, verified,
//!   timed and recorded.  A candidate of another Designer or probe clears
//!   the records.
//! * A recorded program's reading is its first member's, bit for bit: a
//!   later member (say, differently padded) builds no format and is never
//!   timed.
//! * Measured times are nondeterministic; cached entries freeze the first
//!   measurement of each distinct program, which keeps a single search
//!   self-consistent.
//!   The harness parameters are part of the evaluation identity
//!   ([`EvaluatorId::Native`]), so differently-configured measurements never
//!   share cache entries with each other or with simulated results.
//! * Candidates are timed one at a time: concurrent candidate measurements
//!   steal each other's cores and corrupt the timings, so the search
//!   evaluates one candidate at a time.  The kernel itself still uses all
//!   `kernel_threads` workers.

use crate::harness::TimingHarness;
use crate::kernel::{NativeKernel, PlannedProgram, Program};
use alpha_codegen::{generate_with, EvalContext, Evaluation, Evaluator, EvaluatorId};
use alpha_graph::OperatorGraph;
use alpha_matrix::Scalar;
use alpha_parallel::Pool;
use alpha_telemetry::{Counter, Histogram, Registry};
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
/// candidate that is one of them, through the same Designer and on the same
/// probe, is answered from its measurement.
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
/// `stage` labels of `cpu_eval_stage_us`.  Every candidate observes
/// `design`; one that is a recorded program observes its look-up there and
/// nothing else, and one that turns out infeasible observes the stages it
/// completed.
pub const EVAL_STAGES: [&str; 5] = ["design", "generate", "lower", "verify", "timing"];

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
    /// Every program verified and timed under [`Measuring::scope`].
    programs: Vec<Measured>,
    scope: Scope,
}

/// One program verified and timed, with what its members are answered.
struct Measured {
    /// What the look-up compares a candidate's plans with.
    planned: PlannedProgram,
    /// The lowered record of the member that was timed: debug builds check
    /// that every later member's kernel is it, and that no program timed
    /// later is.
    program: Program,
    /// The timed member's reading: its harness report's `gflops`.
    gflops: f64,
}

/// What the records hold under: the Designer whose plans they compare by
/// value, and what verification judges a kernel's `y` by — the input, the
/// reference and the tolerance, compared bit for bit.
#[derive(Default)]
struct Scope {
    designer: Option<u64>,
    x: Vec<Scalar>,
    reference: Vec<Scalar>,
    tolerance: Scalar,
}

impl Scope {
    fn is(&self, ctx: &EvalContext<'_>) -> bool {
        self.designer == Some(ctx.designer().id())
            && same_bits(&self.x, ctx.x.as_slice())
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
        Self::observed_on(alpha_telemetry::global(), harness, kernel_threads)
    }

    /// [`NativeEvaluator::new`], counting and observing on `registry`.
    fn observed_on(registry: &Registry, harness: TimingHarness, kernel_threads: usize) -> Self {
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

    /// The durable identity measurements from this evaluator carry.
    pub fn id(&self) -> EvaluatorId {
        self.harness.evaluator_id()
    }

    /// Number of candidates evaluated so far (designed; generated, lowered
    /// and run unless they were a recorded program) — the probe cache tests
    /// use to assert that hits skip execution.
    pub fn executions(&self) -> usize {
        self.executions.load(Ordering::Relaxed)
    }

    /// Number of programs verified and timed so far: at most
    /// [`executions`](Self::executions), and below it by every infeasible
    /// candidate and every candidate that was a program recorded before.
    pub fn measurements(&self) -> usize {
        self.measurements.load(Ordering::Relaxed)
    }

    /// Designs `graph` and answers from the recorded program its plans are,
    /// or generates, lowers, verifies, times and records it.  `None` is an
    /// infeasible design.
    fn measure(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        // One clock read to start, and one after each stage the candidate runs.
        let mut clock = StageClock {
            stages: self.stages.iter(),
            last: Instant::now(),
        };
        let metadata = ctx.designer().design(graph).ok()?;
        let planned = PlannedProgram::of(&metadata, ctx.options);
        // The lock serialises measurements, which would otherwise steal each
        // other's cores — and the look-up for a recorded program, and the
        // build of a program not yet recorded, happen under it, so of two
        // identical designs evaluated concurrently exactly one is generated,
        // verified and timed.
        let mut guard = self.measuring.lock().expect("evaluator scratch poisoned");
        let Measuring { y, programs, scope } = &mut *guard;
        if !scope.is(ctx) {
            // Another Designer's plans are other rows, and a program
            // verified under another probe proves nothing here.
            *scope = Scope {
                designer: Some(ctx.designer().id()),
                x: ctx.x.as_slice().to_vec(),
                reference: ctx.reference.clone(),
                tolerance: ctx.tolerance,
            };
            programs.clear();
        }
        if let Some(measured) = programs.iter().find(|m| m.planned == planned) {
            self.reused.inc();
            clock.lap();
            if cfg!(debug_assertions) {
                self.check_member(ctx, graph, &measured.program);
            }
            return Some(evaluation(measured.gflops));
        }
        clock.lap();
        let generated = generate_with(ctx.designer(), graph, ctx.options).ok()?;
        clock.lap();
        // A design that fails kernel-build validation (out-of-range affine
        // index endpoints, a shape outside the kernel library) is
        // infeasible, like a verification mismatch.
        let kernel = NativeKernel::try_new(generated.kernel.metadata(), &generated.format).ok()?;
        clock.lap();
        let workers = kernel.workers_for(self.kernel_threads);
        debug_assert!(
            !programs.iter().any(|m| m.program.is(&kernel, workers)),
            "one program recorded under two plan records"
        );
        // Verify before timing: a design that computes the wrong y is
        // infeasible, not merely slow.  The verification run also validates
        // the dimensions and warms the kernel's data, so the timed loop
        // below reuses the scratch buffer and runs nothing extra.
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
        programs.push(Measured {
            planned,
            program: Program::of(&kernel, workers),
            gflops: measured.gflops,
        });
        clock.lap();
        Some(evaluation(measured.gflops))
    }

    /// The check behind a look-up that hit, in debug builds: the candidate
    /// generated and lowered is the program its plans were recognised as.
    fn check_member(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph, timed: &Program) {
        let generated =
            generate_with(ctx.designer(), graph, ctx.options).expect("a recorded design generates");
        let kernel = NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
            .expect("a recorded design lowers");
        debug_assert!(
            timed.is(&kernel, kernel.workers_for(self.kernel_threads)),
            "equal plan records lowered to two programs"
        );
    }
}

/// A measurement as the search reads it.  The design is ranked by its
/// scalar program; the winner's loop is selected on the host after the
/// search, like a cost-model winner's, and recorded then.
fn evaluation(gflops: f64) -> Evaluation {
    Evaluation {
        gflops,
        cached: false,
        kernel_shape: None,
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

// Concurrent searches share an evaluator's state across threads; pin that.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NativeEvaluator>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use alpha_codegen::DeviceProfile;
    use alpha_codegen::GeneratorOptions;
    use alpha_graph::{presets, Operator};
    use alpha_matrix::gen;

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
        assert!(eval.gflops > 0.0);
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
        let readings: Vec<u64> = variants
            .iter()
            .map(|graph| evaluator.evaluate(&ctx, graph).unwrap().gflops.to_bits())
            .collect();
        assert_eq!(evaluator.executions(), variants.len());
        assert_eq!(evaluator.measurements(), 1);
        assert!(readings.iter().all(|&r| r == readings[0]), "{readings:?}");
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
        // A registry of its own: other tests of this process observe on the
        // global one.
        let registry = Registry::new();
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::observed_on(&registry, TimingHarness::quick(), 1);
        let variants = gpu_only_variants();
        for graph in &variants {
            evaluator.evaluate(&ctx, graph).expect("feasible");
        }
        // One program: generated, lowered, verified and timed by the first
        // variant, and every other variant is its plans.
        assert_eq!(evaluator.executions(), variants.len());
        assert_eq!(evaluator.measurements(), 1);
        let observed = |stage| {
            registry
                .histogram("cpu_eval_stage_us", &[("stage", stage)])
                .count()
        };
        let all = variants.len() as u64;
        assert_eq!(EVAL_STAGES.map(observed), [all, 1, 1, 1, 1]);
        let counted = |outcome| {
            registry
                .counter("cpu_eval_total", &[("outcome", outcome)])
                .get()
        };
        assert_eq!((counted("timed"), counted("reused")), (1, all - 1));
    }

    #[test]
    fn a_recorded_program_answers_with_its_first_members_report() {
        // Padding is a GPU coordinate: the padded design is the scalar CSR
        // program over more format bytes.  A later member builds no format,
        // so it carries the reading of the member that was timed, bit for
        // bit, whichever of the two came first.
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let plain = presets::csr_scalar();
        let mut padded = presets::csr_scalar();
        padded.branches[0].insert(1, alpha_graph::Operator::BmtPad { multiple: 4 });
        padded.validate().expect("a valid design");
        let bytes = |graph: &OperatorGraph| {
            let generated = generate_with(ctx.designer(), graph, ctx.options).unwrap();
            NativeKernel::new(generated.kernel.metadata(), &generated.format).format_bytes() as f64
        };
        assert!(bytes(&padded) > bytes(&plain));
        for (first, later) in [(&plain, &padded), (&padded, &plain)] {
            let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
            let timed = evaluator.evaluate(&ctx, first).expect("feasible").gflops;
            let hit = evaluator.evaluate(&ctx, later).expect("feasible").gflops;
            assert_eq!(evaluator.measurements(), 1);
            assert_eq!(hit.to_bits(), timed.to_bits());
        }
    }

    #[test]
    fn another_allocation_is_not_the_same_program() {
        // Equal matrices, two contexts: each has its own Designer, and two
        // Designers never share records — each program is verified and
        // timed under the Designer it was designed by.
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let twin = matrix.clone();
        let (a, b) = (context_fixture(&matrix), context_fixture(&twin));
        let graph = presets::csr_scalar();
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        evaluator.evaluate(&a, &graph).expect("feasible");
        evaluator.evaluate(&b, &graph).expect("feasible");
        evaluator.evaluate(&b, &graph).expect("feasible");
        assert_eq!(evaluator.measurements(), 2, "verified and timed again");
        // Only the current Designer's programs are remembered.
        evaluator.evaluate(&a, &graph).expect("feasible");
        assert_eq!((evaluator.executions(), evaluator.measurements()), (4, 3));
    }

    #[test]
    fn a_conversion_rebuilt_after_an_eviction_is_the_program_timed_before() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::quick(), 1);
        let designer = ctx.designer();
        let reordered = |op| {
            let mut graph = presets::csr_scalar();
            graph.converting.push(op);
            graph
        };
        // The first design must copy: one that reorders nothing holds no
        // conversion of its own.
        let first = reordered(Operator::Bin { bins: 8 });
        evaluator.evaluate(&ctx, &first).unwrap();
        // Six other row orders: more than the memo holds beside the first.
        for op in (2..7)
            .map(|bins| Operator::Bin { bins })
            .chain([Operator::Sort])
        {
            designer.design(&reordered(op)).expect("a valid design");
        }
        let built = designer.stats().built;
        evaluator.evaluate(&ctx, &first).unwrap();
        assert_eq!(designer.stats().built, built + 1, "the first was evicted");
        assert_eq!(evaluator.measurements(), 1, "and not timed again");
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
        // finds the first one's reading.
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = NativeEvaluator::new(TimingHarness::default(), 1);
        let batch = gpu_only_variants();
        let results = Pool::shared().parallel_map(&batch, |graph| evaluator.evaluate(&ctx, graph));
        assert_eq!(evaluator.executions(), batch.len());
        assert_eq!(evaluator.measurements(), 1);
        let times: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().expect("feasible").gflops.to_bits())
            .collect();
        assert!(times.iter().all(|&t| t == times[0]), "{times:?}");
    }

    #[test]
    fn an_infeasible_design_is_never_remembered() {
        // Poisoned probe first: the kernel fails verification and must not
        // leave a reading behind for its feasible self to pick up.
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
