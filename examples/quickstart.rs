//! Quickstart: tune one matrix and run the machine-designed SpMV.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use alpha_matrix::{gen, DenseVector, MatrixStats};
use alphasparse::{AlphaSparse, DeviceProfile, TimingHarness};

fn main() {
    // A mildly irregular matrix standing in for a SuiteSparse input.
    let matrix = gen::powerlaw(8_192, 8_192, 16, 2.0, 42);
    let stats = MatrixStats::from_csr(&matrix);
    println!(
        "matrix: {} x {}, {} non-zeros, avg row {:.1}, row variance {:.1} ({})",
        stats.rows,
        stats.cols,
        stats.nnz,
        stats.avg_row_len,
        stats.row_len_variance,
        if stats.is_irregular() {
            "irregular"
        } else {
            "regular"
        }
    );

    // Tune on this host: the search ranks designs by the time their kernels
    // take here.  Larger budgets explore more designs.
    let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(80);
    let started = std::time::Instant::now();
    let tuned = tuner.auto_tune(&matrix).expect("tuning succeeds");
    let secs = started.elapsed().as_secs_f64();

    println!("\nwinning operator graph:\n{}", tuned.operator_graph());
    println!("\nevaluator: {}", tuned.evaluator().label());
    println!(
        "search: {} kernel evaluations in {:.1e} hours ({:.0} ms) on this host",
        tuned.search_stats().iterations,
        secs / 3600.0,
        secs * 1e3
    );

    // The search ranked each design by its scalar program; the winner's
    // inner loop was then picked on this host, by timing the library's loops
    // on the format's own streams.
    println!("loop: {}", tuned.loop_summary());
    let measured = tuned
        .measure(TimingHarness::default(), 0)
        .expect("the winner runs natively");
    println!("measured performance: {}", measured.summary());

    // Run the generated SpMV — natively on this CPU and on the simulated
    // device — and sanity-check both against the reference.
    let x = DenseVector::random(matrix.cols(), 7);
    let reference = matrix.spmv(x.as_slice()).expect("reference SpMV");
    let y_native = tuned.run(x.as_slice()).expect("native SpMV succeeds");
    let native_err = DenseVector::from_vec(y_native).max_abs_diff(&reference);
    println!(
        "native ({}): max |y - y_ref| = {native_err:.3e}",
        tuned.kernel_shape()
    );
    let y = tuned.spmv(x.as_slice()).expect("SpMV succeeds");
    let max_err = DenseVector::from_vec(y).max_abs_diff(&reference);
    println!("max |y - y_ref| = {max_err:.3e}");

    // The user-facing artifact: generated CUDA-like source.
    let source = tuned.source();
    let preview: String = source.lines().take(18).collect::<Vec<_>>().join("\n");
    println!("\ngenerated source (first lines):\n{preview}\n...");
}
