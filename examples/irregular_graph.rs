//! Irregular scale-free graph scenario: compare the machine-designed kernel
//! against the five state-of-the-art artificial formats and the Perfect
//! Format Selector on a graph-analytics-style matrix (the workload class the
//! paper's introduction motivates with web/social graphs).  Every number
//! is the simulated A100's: the baselines and PFS run on the simulator, and
//! AlphaSparse is tuned under its cost model, so the comparison is like
//! with like and prints the same on any machine.
//!
//! ```text
//! cargo run --release --example irregular_graph
//! ```

use alpha_baselines::{run_pfs, Baseline};
use alpha_gpu::{GpuSim, SimEvaluator};
use alpha_matrix::{gen, DenseVector, MatrixStats};
use alphasparse::{AlphaSparse, DeviceProfile, EvaluatorChoice, EvaluatorId};

fn main() {
    // A scale-free adjacency-like matrix: heavy-tailed row lengths and
    // hot-spot columns.
    let matrix = gen::scale_free(16_384, 16_384, 12, 2024);
    let stats = MatrixStats::from_csr(&matrix);
    println!(
        "scale-free graph: {} rows, {} non-zeros, row-length variance {:.0}",
        stats.rows, stats.nnz, stats.row_len_variance
    );

    let device = DeviceProfile::a100();
    let sim = GpuSim::new(device.clone());
    let x = DenseVector::ones(matrix.cols());

    // Artificial formats.
    println!("\n{:<18} {:>10}", "format", "GFLOPS");
    for baseline in Baseline::figure9_set() {
        let kernel = baseline.build(&matrix);
        let report = sim
            .run(kernel.as_ref(), x.as_slice())
            .expect("baseline runs")
            .report;
        println!("{:<18} {:>10.1}", baseline.name(), report.gflops);
    }

    // The Perfect Format Selector over the full candidate set.
    let pfs = run_pfs(&sim, &matrix, x.as_slice(), &Baseline::pfs_set()).expect("PFS runs");
    println!(
        "{:<18} {:>10.1}   (selected {})",
        "PFS",
        pfs.best_gflops(),
        pfs.best.name()
    );

    // AlphaSparse, ranked by the same simulator's cost model.
    let tuned = AlphaSparse::new(device)
        .with_search_budget(100)
        .with_evaluator(EvaluatorChoice::custom(
            EvaluatorId::Simulated,
            SimEvaluator::boxed,
        ))
        .auto_tune(&matrix)
        .expect("tuning succeeds");
    println!("{:<18} {:>10.1}", "AlphaSparse", tuned.gflops());
    println!(
        "\nspeedup over PFS: {:.2}x   ({} kernel evaluations)",
        tuned.gflops() / pfs.best_gflops(),
        tuned.search_stats().iterations
    );
    println!("\nwinning design:\n{}", tuned.operator_graph());
}
