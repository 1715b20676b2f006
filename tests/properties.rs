//! Property-style tests over the core invariants: every valid operator graph
//! generates a kernel that computes the same `y = A·x` as the reference CSR
//! implementation, format compression never changes results, and the format
//! conversions of the baseline kernels preserve the matrix.
//!
//! The cases are driven by a deterministic xorshift generator rather than
//! proptest (unavailable offline); each property is checked over a fixed
//! spread of random matrix shapes, densities and input vectors.

use alpha_baselines::Baseline;
use alpha_codegen::{generate, GeneratorOptions};
use alpha_gpu::{DeviceProfile, GpuSim, SimKernel};
use alpha_graph::presets;
use alpha_matrix::{CooMatrix, CsrMatrix, DenseVector};

const CASES: u64 = 24;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A small random sparse matrix: dimensions in [2, 60), up to 300 entries.
fn arb_matrix(case: u64) -> CsrMatrix {
    let mut rng = 0x5EED_0000 + case * 0x9E37_79B9;
    let rows = 2 + (xorshift(&mut rng) % 58) as usize;
    let cols = 2 + (xorshift(&mut rng) % 58) as usize;
    let entries = 1 + (xorshift(&mut rng) % 299) as usize;
    let mut coo = CooMatrix::new(rows, cols);
    for _ in 0..entries {
        let r = (xorshift(&mut rng) % rows as u64) as usize;
        let c = (xorshift(&mut rng) % cols as u64) as usize;
        let v = ((xorshift(&mut rng) % 2000) as f32 - 1000.0) / 500.0;
        coo.push(r, c, v);
    }
    // Guarantee at least one entry so the designer accepts the matrix.
    coo.push(0, 0, 1.0);
    CsrMatrix::from_coo(&coo)
}

#[test]
fn generated_kernels_match_reference_spmv() {
    let sim = GpuSim::new(DeviceProfile::test_profile());
    for case in 0..CASES {
        let matrix = arb_matrix(case);
        let x = DenseVector::random(matrix.cols(), case ^ 0xF00D);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        for graph in [
            presets::csr_scalar(),
            presets::sell_like(),
            presets::csr5_like(8),
        ] {
            if let Ok(generated) = generate(&graph, &matrix, GeneratorOptions::default()) {
                let kernel = SimKernel::new(&generated.kernel, &generated.format);
                let result = sim.run(&kernel, x.as_slice()).unwrap();
                assert!(
                    DenseVector::from_vec(result.y.clone()).approx_eq(&expected, 1e-3),
                    "case {case}: graph produced incorrect results"
                );
            }
        }
    }
}

#[test]
fn compression_never_changes_results() {
    let sim = GpuSim::new(DeviceProfile::test_profile());
    for case in 0..CASES {
        let matrix = arb_matrix(case);
        let x = DenseVector::random(matrix.cols(), case ^ 0xBEEF);
        let graph = presets::sell_sigma_like(16);
        let on = generate(
            &graph,
            &matrix,
            GeneratorOptions {
                model_compression: true,
            },
        );
        let off = generate(
            &graph,
            &matrix,
            GeneratorOptions {
                model_compression: false,
            },
        );
        if let (Ok(on), Ok(off)) = (on, off) {
            let [y_on, y_off] = [&on, &off].map(|generated| {
                let kernel = SimKernel::new(&generated.kernel, &generated.format);
                sim.run(&kernel, x.as_slice()).unwrap().y
            });
            assert!(
                DenseVector::from_vec(y_on).approx_eq(&y_off, 1e-4),
                "case {case}: compression changed results"
            );
            assert!(
                on.kernel.format_bytes() <= off.kernel.format_bytes(),
                "case {case}: compression grew the format"
            );
        }
    }
}

#[test]
fn baseline_conversions_preserve_the_matrix() {
    let sim = GpuSim::new(DeviceProfile::test_profile());
    for case in 0..CASES {
        let matrix = arb_matrix(case);
        let x = DenseVector::random(matrix.cols(), case ^ 0xCAFE);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        for baseline in [
            Baseline::Ell,
            Baseline::Hyb,
            Baseline::Csr5,
            Baseline::Merge,
        ] {
            let kernel = baseline.build(&matrix);
            let result = sim.run(kernel.as_ref(), x.as_slice()).unwrap();
            assert!(
                DenseVector::from_vec(result.y.clone()).approx_eq(&expected, 1e-3),
                "case {case}: {} conversion lost information",
                baseline.name()
            );
        }
    }
}

#[test]
fn corpus_entries_are_all_tunable_by_presets() {
    // Every corpus entry can at least be expressed and executed with the
    // preset designs (a prerequisite for the evaluation sweeps).
    let sim = GpuSim::new(DeviceProfile::test_profile());
    for entry in alpha_matrix::suite::corpus(&alpha_matrix::suite::CorpusConfig::tiny()) {
        let x = DenseVector::ones(entry.matrix.cols());
        let expected = entry.matrix.spmv(x.as_slice()).unwrap();
        let generated = generate(
            &presets::sell_like(),
            &entry.matrix,
            GeneratorOptions::default(),
        )
        .unwrap();
        let kernel = SimKernel::new(&generated.kernel, &generated.format);
        let result = sim.run(&kernel, x.as_slice()).unwrap();
        assert!(
            DenseVector::from_vec(result.y.clone()).approx_eq(&expected, 1e-3),
            "wrong result on corpus entry {}",
            entry.name
        );
    }
}
