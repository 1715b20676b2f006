//! Figure 10/11 bench: the Perfect Format Selector versus the AlphaSparse
//! search on regular and irregular matrices (speedup-over-PFS is printed by
//! the `reproduce` binary; the bench measures the two pipelines).

use alpha_baselines::{run_pfs, Baseline};
use alpha_gpu::{DeviceProfile, GpuSim};
use alpha_matrix::{gen, DenseVector};
use alpha_search::{search, SearchConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn fig10_11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_11_pfs");
    group.sample_size(10);
    let device = DeviceProfile::a100();
    let sim = GpuSim::new(device.clone());
    let cases = [
        ("regular", gen::uniform_random(4_096, 4_096, 16, 5)),
        ("irregular", gen::powerlaw(4_096, 4_096, 16, 1.8, 5)),
    ];
    for (label, matrix) in &cases {
        let x = DenseVector::ones(matrix.cols());
        group.bench_function(format!("pfs/{label}"), |b| {
            b.iter(|| {
                let outcome =
                    run_pfs(&sim, matrix, x.as_slice(), &Baseline::pfs_set()).expect("PFS runs");
                black_box(outcome.best_gflops())
            })
        });
        group.bench_function(format!("alphasparse/{label}"), |b| {
            b.iter(|| {
                let outcome = search(
                    matrix,
                    &SearchConfig {
                        device: device.clone(),
                        max_iterations: 20,
                        mutations_per_seed: 1,
                        evaluator: alpha_search::EvaluatorChoice::Simulated,
                        ..SearchConfig::default()
                    },
                )
                .expect("search succeeds");
                black_box(outcome.best_report.gflops)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fig10_11);
criterion_main!(benches);
