//! Cross-crate integration tests of the persistence + serving layer: the
//! acceptance path of PR 2 — tune a fleet through a `TuningService` backed
//! by a `DesignStore`, restart, and be served entirely from stored designs.

use alpha_suite::gpu::DeviceProfile;
use alpha_suite::matrix::gen;
use alpha_suite::search::SearchConfig;
use alpha_suite::serve::{DesignStore, TuneRequest, TuningService};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alpha_suite_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet(count: usize) -> Vec<TuneRequest> {
    (0..count)
        .map(|i| {
            let family = gen::PatternFamily::ALL[i % gen::PatternFamily::ALL.len()];
            TuneRequest::new(
                family.generate(512, 6, 400 + i as u64),
                DeviceProfile::a100(),
            )
        })
        .collect()
}

#[test]
fn fleet_tuned_twice_is_free_the_second_time() {
    // The headline acceptance criterion: tuning the same matrix fleet twice
    // through a TuningService with a DesignStore performs ZERO fresh
    // simulator evaluations on the second pass — across a simulated process
    // restart (flush + reopen), with the winners intact.
    let dir = temp_dir("acceptance");
    let config = SearchConfig {
        max_iterations: 15,
        mutations_per_seed: 2,
        ..SearchConfig::default()
    };
    let requests = fleet(6);

    let first: Vec<(String, f64, usize)> = {
        let service = TuningService::new(DesignStore::open(&dir).unwrap(), config.clone());
        let served = service.tune_batch(&requests);
        service.store().flush().unwrap();
        served
            .into_iter()
            .map(|r| {
                let tune = r.expect("cold tuning succeeds");
                (
                    tune.tuned.operator_graph(),
                    tune.tuned.gflops(),
                    tune.fresh_evaluations,
                )
            })
            .collect()
    };
    assert!(
        first.iter().map(|(_, _, fresh)| fresh).sum::<usize>() > 0,
        "cold pass must pay for the search"
    );

    // "Process restart": a brand-new store instance over the same directory.
    let service = TuningService::new(DesignStore::open(&dir).unwrap(), config);
    let second = service.tune_batch(&requests);
    for ((graph, gflops, _), result) in first.iter().zip(&second) {
        let tune = result.as_ref().expect("warm tuning succeeds");
        assert_eq!(
            tune.fresh_evaluations, 0,
            "second pass must perform zero fresh simulator evaluations"
        );
        assert_eq!(&tune.tuned.operator_graph(), graph, "same winning design");
        assert_eq!(tune.tuned.gflops(), *gflops, "same modelled performance");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_designs_compute_correct_spmv() {
    // A ServedTune is a ready-to-run handle: the kernel it wraps must
    // reproduce the reference SpMV, warm or cold.
    let dir = temp_dir("correctness");
    let config = SearchConfig {
        max_iterations: 10,
        mutations_per_seed: 2,
        ..SearchConfig::default()
    };
    let requests = fleet(3);
    let service = TuningService::new(DesignStore::open(&dir).unwrap(), config);
    for pass in 0..2 {
        let served = service.tune_batch(&requests);
        for (request, result) in requests.iter().zip(&served) {
            let tune = result.as_ref().expect("tuning succeeds");
            let x = vec![1.0; request.matrix.cols()];
            let y = tune.tuned.run(&x).expect("SpMV runs");
            let reference = request.matrix.spmv(&x).expect("reference runs");
            let max_err = y
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0f64, f64::max);
            assert!(max_err < 1e-3, "pass {pass}: max error {max_err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
