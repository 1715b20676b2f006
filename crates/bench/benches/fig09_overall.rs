//! Figure 9 bench: overall SpMV performance of the machine-designed kernel
//! versus the five state-of-the-art artificial formats, on both device
//! profiles, at reduced corpus scale.

use alpha_baselines::Baseline;
use alpha_bench::ExperimentContext;
use alpha_gpu::{DeviceProfile, GpuSim};
use alpha_matrix::{gen, DenseVector};
use alpha_search::search;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn fig09(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_overall");
    group.sample_size(10);
    for device in [DeviceProfile::a100(), DeviceProfile::rtx2080()] {
        let ctx = ExperimentContext::quick(device.clone());
        let matrix = gen::powerlaw(4_096, 4_096, 16, 1.9, 9);
        let x = DenseVector::ones(matrix.cols());
        let sim = GpuSim::new(device.clone());

        for baseline in Baseline::figure9_set() {
            let kernel = baseline.build(&matrix);
            group.bench_function(format!("{}/{}", device.name, baseline.name()), |b| {
                b.iter(|| {
                    let result = sim
                        .run(kernel.as_ref(), x.as_slice())
                        .expect("baseline runs");
                    black_box(result.report.gflops)
                })
            });
        }
        group.bench_function(format!("{}/AlphaSparse-search", device.name), |b| {
            b.iter(|| {
                let outcome = search(
                    &matrix,
                    &alpha_search::SearchConfig {
                        device: device.clone(),
                        max_iterations: ctx.search_budget,
                        mutations_per_seed: 1,
                        evaluator: alpha_search::EvaluatorChoice::Simulated,
                        ..alpha_search::SearchConfig::default()
                    },
                )
                .expect("search succeeds");
                black_box(outcome.best_report.gflops)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fig09);
criterion_main!(benches);
