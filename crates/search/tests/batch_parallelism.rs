//! Acceptance tests for the `BatchEvaluator`: a multi-threaded batch of
//! >= 64 candidates completes in less wall-clock time than the same batch
//! > evaluated serially, while the search outcome stays bit-identical across
//! > thread counts.

use alpha_gpu::DeviceProfile;
use alpha_graph::OperatorGraph;
use alpha_matrix::gen;
use alpha_search::enumerate::{coarse_variants, seed_structures};
use alpha_search::prune::PruneRules;
use alpha_search::{
    search, BatchEvaluator, EvalContext, Evaluation, Evaluator, SearchConfig, SimEvaluator,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Every test here runs its batches on `Pool::shared()`, which admits one
/// batch at a time: a test that held it while another measured would put
/// its own batch into the other's wall clock.  Each test holds this lock.
static SHARED_POOL: Mutex<()> = Mutex::new(());

fn exclusive_pool() -> MutexGuard<'static, ()> {
    SHARED_POOL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A >= 64-candidate batch assembled the same way level 2 of the search
/// assembles its coarse grid.
fn candidate_batch(matrix: &alpha_matrix::CsrMatrix) -> Vec<OperatorGraph> {
    let rules = PruneRules::new(matrix, false);
    let mut batch: Vec<OperatorGraph> = seed_structures(matrix, &rules)
        .iter()
        .flat_map(coarse_variants)
        .collect();
    batch.truncate(96);
    assert!(
        batch.len() >= 64,
        "need a >= 64-candidate batch, got {}",
        batch.len()
    );
    batch
}

/// An evaluator with a fixed per-candidate latency, standing in for the
/// paper's real evaluation cost (nvcc compile + kernel timing, i.e. work
/// that is latency- not CPU-bound), so the overlap the fan-out achieves is
/// the executor count and nothing else.
struct FixedLatencyEvaluator {
    latency: Duration,
    calls: AtomicUsize,
}

impl Evaluator for FixedLatencyEvaluator {
    fn evaluate(&self, _ctx: &EvalContext<'_>, _graph: &OperatorGraph) -> Option<Evaluation> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.latency);
        None
    }
}

#[test]
fn multi_threaded_batch_beats_serial_wall_clock() {
    let _pool = exclusive_pool();
    let matrix = gen::powerlaw(512, 512, 8, 2.0, 17);
    let ctx = EvalContext::new(&matrix, &DeviceProfile::a100(), Default::default(), 7).unwrap();
    let batch = candidate_batch(&matrix);

    let latency = Duration::from_millis(4);
    let serial = BatchEvaluator::new(
        FixedLatencyEvaluator {
            latency,
            calls: AtomicUsize::new(0),
        },
        1,
    );
    let parallel = BatchEvaluator::new(
        FixedLatencyEvaluator {
            latency,
            calls: AtomicUsize::new(0),
        },
        8,
    );

    let start = Instant::now();
    serial.evaluate_batch(&ctx, &batch);
    let serial_time = start.elapsed();

    let start = Instant::now();
    parallel.evaluate_batch(&ctx, &batch);
    let parallel_time = start.elapsed();

    assert_eq!(serial.inner().calls.load(Ordering::Relaxed), batch.len());
    assert_eq!(parallel.inner().calls.load(Ordering::Relaxed), batch.len());
    // A thread count above the shared pool's size is capped at it, so the
    // ideal speedup of this 96 x 4 ms batch is the executor count; require
    // half of the ideal saving so scheduler noise cannot flake the test.
    let executors = alpha_parallel::Pool::shared().threads().min(8) as u32;
    if executors > 1 {
        let ideal = serial_time / executors;
        assert!(
            parallel_time < ideal + (serial_time - ideal) / 2,
            "{executors} executors ({parallel_time:?}) should save at least half of what \
             they ideally save on the serial wall-clock ({serial_time:?})"
        );
    }
}

#[test]
fn simulation_batch_is_no_slower_multi_threaded() {
    let _pool = exclusive_pool();
    // With the real simulator the speedup is CPU-bound, so a strict factor is
    // only demanded when the machine actually has spare cores.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let matrix = gen::powerlaw(2_048, 2_048, 12, 2.0, 23);
    let ctx = EvalContext::new(&matrix, &DeviceProfile::a100(), Default::default(), 7).unwrap();
    let batch = candidate_batch(&matrix);

    let serial = BatchEvaluator::new(SimEvaluator::new(DeviceProfile::a100(), 1), 1);
    let start = Instant::now();
    let serial_results = serial.evaluate_batch(&ctx, &batch);
    let serial_time = start.elapsed();

    let threads = cores.clamp(2, 8);
    let parallel = BatchEvaluator::new(SimEvaluator::new(DeviceProfile::a100(), 1), threads);
    let start = Instant::now();
    let parallel_results = parallel.evaluate_batch(&ctx, &batch);
    let parallel_time = start.elapsed();

    // Identical feasibility and reports, in order — parallelism must not
    // change observable behaviour.
    assert_eq!(serial_results.len(), parallel_results.len());
    for (s, p) in serial_results.iter().zip(&parallel_results) {
        assert_eq!(s.is_some(), p.is_some());
        if let (Some(s), Some(p)) = (s, p) {
            assert_eq!(s.report.gflops, p.report.gflops);
        }
    }
    if cores > 1 {
        assert!(
            parallel_time < serial_time,
            "{threads}-thread batch ({parallel_time:?}) should beat serial ({serial_time:?}) \
             on a {cores}-core machine"
        );
    }
}

#[test]
fn full_search_is_thread_count_invariant_end_to_end() {
    let _pool = exclusive_pool();
    let matrix = gen::powerlaw(1_024, 1_024, 10, 1.9, 29);
    let outcomes: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let config = SearchConfig {
                device: DeviceProfile::a100(),
                max_iterations: 48,
                mutations_per_seed: 2,
                threads,
                ..SearchConfig::default()
            };
            search(&matrix, &config).unwrap()
        })
        .collect();
    assert_eq!(
        outcomes[0].best_graph.signature(),
        outcomes[1].best_graph.signature()
    );
    assert_eq!(
        outcomes[0].best_report.gflops,
        outcomes[1].best_report.gflops
    );
    assert_eq!(outcomes[0].stats.iterations, outcomes[1].stats.iterations);
    assert_eq!(
        outcomes[0].stats.ml_evaluations,
        outcomes[1].stats.ml_evaluations
    );
}
