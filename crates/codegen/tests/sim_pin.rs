//! Pins the simulator's output bit for bit.
//!
//! The cost model is the search's ground truth: a change to how the
//! simulator executes a kernel (its bookkeeping, its host threading) must not
//! move a single modelled figure or a single bit of the computed `y`.  This
//! test hashes the `Debug` text of the `PerfReport` of every preset on every
//! pattern family — `f64`'s `Debug` is the shortest text that reads back to
//! the same bits — together with the bits of each `y`, at two sizes and at
//! one and three host workers, and compares the hash against a constant.
//!
//! A change that moves the constant changes the model: that is a reviewed
//! decision, never a refactor.  The hash is `ContentHasher`, whose own
//! values are pinned by `alpha-matrix`'s fingerprint goldens.

use alpha_codegen::{generate, GeneratorOptions};
use alpha_gpu::{DeviceProfile, GpuSim};
use alpha_graph::presets;
use alpha_matrix::gen::PatternFamily;
use alpha_matrix::{ContentHasher, DenseVector};

const PINNED: u64 = 0x141b_8f65_9f20_a012;

#[test]
fn simulated_reports_are_bitwise_pinned() {
    let device = DeviceProfile::a100();
    let sims = [
        GpuSim::with_workers(device.clone(), 1),
        GpuSim::with_workers(device, 3),
    ];
    let mut hash = ContentHasher::new();
    for (rows, avg_row_len) in [(600, 6), (4_096, 12)] {
        for family in PatternFamily::ALL {
            let matrix = family.generate(rows, avg_row_len, 17);
            let x = DenseVector::random(matrix.cols(), 29);
            for (name, graph) in presets::all_presets() {
                hash.stream(name.as_bytes(), u32::from);
                let generated = match generate(&graph, &matrix, GeneratorOptions::default()) {
                    Ok(generated) => generated,
                    Err(error) => {
                        hash.stream(error.to_string().as_bytes(), u32::from);
                        continue;
                    }
                };
                for sim in &sims {
                    let result = sim.run(&generated.kernel, x.as_slice()).unwrap();
                    hash.stream(format!("{:?}", result.report).as_bytes(), u32::from);
                    hash.stream(&result.y, f32::to_bits);
                }
            }
        }
    }
    assert_eq!(
        hash.finish(),
        PINNED,
        "the simulator's reports or outputs moved"
    );
}
