//! Differential correctness suite of the native CPU backend.
//!
//! Three implementations compute `y = A·x` for every machine-designed
//! format: the reference CSR loop (`CsrMatrix::spmv`), the `alpha-gpu`
//! functional simulator interpreting the generated kernel, and `alpha-cpu`
//! executing it natively.  This suite runs property-style seeded sweeps over
//! the generator matrix suite and checks all three against each other with
//! the shared floating-point yardstick `alpha_matrix::max_scaled_error`
//! (different reduction orders make bitwise equality too strict).

use alpha_codegen::{generate, GeneratorOptions};
use alpha_cpu::NativeKernel;
use alpha_gpu::{DeviceProfile, GpuSim, SimKernel};
use alpha_matrix::{gen, max_scaled_error, DenseVector};
use alphasparse::{AlphaSparse, TimingHarness};

/// Relative-or-absolute tolerance for f32 SpMV reductions.
const TOL: f32 = 1e-3;

#[test]
fn every_preset_runs_natively_and_agrees_with_reference_and_simulator() {
    let sim = GpuSim::new(DeviceProfile::test_profile());
    for family in gen::PatternFamily::ALL {
        for (size, seed) in [(128usize, 1u64), (256, 2), (200, 3)] {
            let matrix = family.generate(size, 6, seed);
            let x = DenseVector::random(matrix.cols(), seed ^ 0xC0FFEE);
            let reference = matrix.spmv(x.as_slice()).unwrap();
            for (name, graph) in alpha_graph::presets::all_presets() {
                let generated = generate(&graph, &matrix, GeneratorOptions::default())
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", family.name()));
                let native = NativeKernel::new(generated.kernel.metadata(), &generated.format);
                let y_native = native.run(x.as_slice(), 4).expect("native run succeeds");
                let kernel = SimKernel::new(&generated.kernel, &generated.format);
                let y_sim = sim.run(&kernel, x.as_slice()).expect("simulation").y;
                assert!(
                    max_scaled_error(&y_native, &reference) <= TOL,
                    "{name} on {}_{size}_{seed}: native diverged from reference CSR",
                    family.name()
                );
                assert!(
                    max_scaled_error(&y_native, &y_sim) <= TOL,
                    "{name} on {}_{size}_{seed}: native diverged from the GpuSim interpreter",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn native_auto_tune_is_correct_on_twenty_suite_matrices() {
    // The acceptance property: a full `auto_tune` with the NativeEvaluator —
    // search, caching, codegen and native execution end to end — returns a
    // design whose native output matches reference CSR within tolerance, on
    // at least 20 matrices spanning every generator family.
    let sim = GpuSim::new(DeviceProfile::a100());
    let mut checked = 0usize;
    for family in gen::PatternFamily::ALL {
        for seed in [11u64, 22, 33, 44] {
            let size = 160 + 32 * (seed as usize % 4);
            let matrix = family.generate(size, 6, seed);
            let tuner = AlphaSparse::new(DeviceProfile::a100())
                .with_search_budget(8)
                .with_native_execution_harness(TimingHarness::quick(), 1);
            let tuned = tuner
                .auto_tune(&matrix)
                .unwrap_or_else(|e| panic!("{}_{seed}: tuning failed: {e}", family.name()));
            assert!(tuned.evaluator().is_native());
            assert!(tuned.gflops() > 0.0, "winner carries a measured reading");

            let x = DenseVector::random(matrix.cols(), seed ^ 0xA11A);
            let reference = matrix.spmv(x.as_slice()).unwrap();
            let y_native = tuned.run(x.as_slice()).expect("native run succeeds");
            assert!(
                max_scaled_error(&y_native, &reference) <= TOL,
                "{}_{seed}: tuned native output diverged from reference",
                family.name()
            );
            // The same winner interpreted by the simulator agrees too.
            let kernel = SimKernel::new(tuned.kernel(), tuned.format());
            let y_sim = sim.run(&kernel, x.as_slice()).expect("simulation").y;
            assert!(
                max_scaled_error(&y_native, &y_sim) <= TOL,
                "{}_{seed}: native and simulated outputs diverged",
                family.name()
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "suite must cover at least 20 matrices");
}

#[test]
fn native_and_baseline_kernels_share_the_tolerance_yardstick() {
    // The helper itself: zero for identical vectors, scale-aware otherwise.
    assert_eq!(max_scaled_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    let err = max_scaled_error(&[1000.0], &[1001.0]);
    assert!(err > 0.0 && err < 2e-3, "relative for large magnitudes");
    assert!(
        max_scaled_error(&[0.0], &[0.5]) == 0.5,
        "absolute near zero"
    );

    // And its use across backends: a baseline and a generated design measured
    // against the same reference.
    let matrix = gen::powerlaw(256, 256, 8, 2.0, 9);
    let x = DenseVector::random(256, 7);
    let reference = matrix.spmv(x.as_slice()).unwrap();
    let csr =
        alpha_baselines::NativeBaselineKernel::new(alpha_baselines::Baseline::CsrScalar, &matrix)
            .unwrap();
    assert!(max_scaled_error(&csr.run(x.as_slice(), 2).unwrap(), &reference) <= TOL);
    let generated = generate(
        &alpha_graph::presets::sell_like(),
        &matrix,
        GeneratorOptions::default(),
    )
    .unwrap();
    let native = NativeKernel::new(generated.kernel.metadata(), &generated.format);
    assert!(max_scaled_error(&native.run(x.as_slice(), 2).unwrap(), &reference) <= TOL);
}
