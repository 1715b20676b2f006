//! Cross-crate integration tests: the full pipeline from matrix generation
//! through the Designer, the Format & Kernel Generator, the simulator and the
//! Search Engine, checked against the paper's qualitative claims at small
//! scale.

use alpha_baselines::{run_pfs, Baseline};
use alpha_gpu::{GpuSim, SimEvaluator};
use alpha_matrix::{gen, suite, DenseVector, MatrixStats};
use alphasparse::{AlphaSparse, DeviceProfile, EvaluatorChoice, EvaluatorId, SearchConfig};

/// The paper's claims are about the modelled device, so these tunes rank
/// designs with its cost model.
fn tuner(budget: usize) -> AlphaSparse {
    AlphaSparse::with_config(SearchConfig {
        device: DeviceProfile::a100(),
        max_iterations: budget,
        mutations_per_seed: 2,
        evaluator: EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed),
        ..SearchConfig::default()
    })
}

#[test]
fn alphasparse_matches_or_beats_pfs_on_an_irregular_matrix() {
    // The headline claim (Figures 9-11) at reduced scale: the machine-designed
    // kernel is at least as fast as the best artificial format.
    let matrix = gen::powerlaw(4_096, 4_096, 12, 1.9, 31);
    let x = DenseVector::ones(matrix.cols());
    let sim = GpuSim::new(DeviceProfile::a100());
    let pfs = run_pfs(&sim, &matrix, x.as_slice(), &Baseline::pfs_set()).expect("PFS runs");
    let tuned = tuner(80).auto_tune(&matrix).expect("tuning succeeds");
    assert!(
        tuned.gflops() >= 0.95 * pfs.best_gflops(),
        "AlphaSparse ({:.1}) should match or beat PFS ({:.1}, {})",
        tuned.gflops(),
        pfs.best_gflops(),
        pfs.best.name()
    );
}

#[test]
fn tuned_kernels_are_correct_on_both_devices() {
    let matrix = gen::rmat(2_048, 16_384, 5);
    let x = DenseVector::random(matrix.cols(), 17);
    let expected = matrix.spmv(x.as_slice()).unwrap();
    for device in [DeviceProfile::a100(), DeviceProfile::rtx2080()] {
        let tuned = AlphaSparse::new(device.clone())
            .with_search_budget(20)
            .auto_tune(&matrix)
            .expect("tuning succeeds");
        let y = tuned.run(x.as_slice()).expect("SpMV runs");
        assert!(
            DenseVector::from_vec(y).approx_eq(&expected, 1e-3),
            "wrong result on {}",
            device.name
        );
    }
}

#[test]
fn named_suite_matrices_tune_successfully() {
    // A slice of the named corpus (Table III stand-ins) goes through the full
    // pipeline.
    for name in ["pdb1HYS", "scfxm1-2r", "ASIC_680k"] {
        let named = suite::named_matrix(name, suite::SuiteScale(1.0 / 256.0)).expect("known name");
        let stats = MatrixStats::from_csr(&named.matrix);
        assert!(stats.nnz > 0);
        let tuned = tuner(15).auto_tune(&named.matrix).expect("tuning succeeds");
        assert!(
            tuned.gflops() > 0.0,
            "{name} produced no performance estimate"
        );
    }
}

#[test]
fn search_statistics_reflect_pruning_and_irregularity() {
    // Figure 13's trend at small scale: irregular matrices need more search
    // iterations than regular ones under the same budget.
    let regular = gen::uniform_random(2_048, 2_048, 16, 3);
    let irregular = gen::powerlaw(2_048, 2_048, 16, 1.8, 3);
    let regular_outcome = tuner(500).auto_tune(&regular).expect("regular tuning");
    let irregular_outcome = tuner(500).auto_tune(&irregular).expect("irregular tuning");
    assert!(
        irregular_outcome.search_stats().iterations >= regular_outcome.search_stats().iterations,
        "irregular search ({}) should need at least as many iterations as regular ({})",
        irregular_outcome.search_stats().iterations,
        regular_outcome.search_stats().iterations
    );
}

#[test]
fn emitted_source_documents_the_winning_design() {
    let matrix = gen::banded(4_096, 8, 3);
    let tuned = tuner(25).auto_tune(&matrix).expect("tuning succeeds");
    let source = tuned.source();
    assert!(source.contains("__global__"));
    assert!(source.contains("COMPRESS"));
    assert!(source.contains("alphasparse_spmv"));
}
