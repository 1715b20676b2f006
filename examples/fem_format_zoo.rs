//! FEM / stencil scenario: generate the SpMV program for every preset
//! operator graph on a 2-D Laplacian matrix and compare them with the
//! artificial formats — a tour of the format design space on the kind of
//! regular matrix PDE solvers produce.
//!
//! ```text
//! cargo run --release --example fem_format_zoo
//! ```

use alpha_baselines::Baseline;
use alpha_codegen::{generate, GeneratorOptions};
use alpha_gpu::{GpuSim, SimKernel};
use alpha_graph::presets;
use alpha_matrix::{gen, DenseVector};
use alphasparse::DeviceProfile;

fn main() {
    // 2-D 5-point Laplacian on a 128 x 128 grid (16 K rows, ~81 K non-zeros).
    let matrix = gen::fem_stencil_2d(128, 7);
    let x = DenseVector::random(matrix.cols(), 3);
    let reference = matrix.spmv(x.as_slice()).expect("reference SpMV");
    let sim = GpuSim::new(DeviceProfile::a100());

    println!("{:<42} {:>10} {:>10}", "design", "GFLOPS", "pad ratio");

    // Machine-designable presets expressed as operator graphs.
    for (name, graph) in presets::all_presets() {
        let Ok(generated) = generate(&graph, &matrix, GeneratorOptions::default()) else {
            continue;
        };
        let kernel = SimKernel::new(&generated.kernel, &generated.format);
        let result = sim
            .run_checked(&kernel, x.as_slice(), &reference, 1e-3)
            .expect("preset kernel is correct");
        println!(
            "{:<42} {:>10.1} {:>10.2}",
            format!("graph:{name}"),
            result.report.gflops,
            generated.format.padded_nnz() as f64 / matrix.nnz() as f64
        );
    }

    // Artificial format baselines for comparison.
    for baseline in Baseline::pfs_set() {
        let kernel = baseline.build(&matrix);
        let result = sim
            .run(kernel.as_ref(), x.as_slice())
            .expect("baseline runs");
        println!(
            "{:<42} {:>10.1} {:>10}",
            format!("format:{}", baseline.name()),
            result.report.gflops,
            "-"
        );
    }
}
