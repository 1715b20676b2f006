//! Quickstart: tune one matrix and run the machine-designed SpMV.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use alpha_matrix::{gen, DenseVector, MatrixStats};
use alphasparse::{AlphaSparse, DeviceProfile};

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

    // Tune for an A100-like device.  Larger budgets explore more designs.
    let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(80);
    let tuned = tuner.auto_tune(&matrix).expect("tuning succeeds");

    println!("\nwinning operator graph:\n{}", tuned.operator_graph());
    println!("\nmodelled performance: {}", tuned.report().summary());
    println!(
        "search: {} kernel evaluations, {:.2} modelled hours",
        tuned.search_stats().iterations,
        tuned.search_stats().search_hours
    );

    // The cost model picked the format; the inner loop was picked on this
    // host, by timing the library's loops on the format's own streams.
    println!("loop: {}", tuned.loop_summary());

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
