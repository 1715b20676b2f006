//! Table III bench: search cost with and without pruning (also covers
//! Figure 13's iterations-vs-irregularity trend via the printed statistics).

use alpha_gpu::DeviceProfile;
use alpha_matrix::suite::{named_matrix, SuiteScale};
use alpha_search::{search, SearchConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_pruning");
    group.sample_size(10);
    let scale = SuiteScale(1.0 / 256.0);
    for name in ["pdb1HYS", "ASIC_680k", "boyd2"] {
        let matrix = named_matrix(name, scale).expect("catalogue entry").matrix;
        for (label, pruning) in [("pruning", true), ("no-pruning", false)] {
            let config = SearchConfig {
                device: DeviceProfile::a100(),
                max_iterations: 40,
                enable_pruning: pruning,
                enable_ml_refinement: false,
                mutations_per_seed: 1,
                evaluator: alpha_search::EvaluatorChoice::Simulated,
                ..SearchConfig::default()
            };
            group.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    let outcome = search(&matrix, &config).expect("search succeeds");
                    black_box((outcome.stats.iterations, outcome.best_report.gflops))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, table3);
criterion_main!(benches);
