//! Cross-crate integration test of the networked serving tier — the
//! acceptance path of the alpha-net PR: a daemon on an ephemeral port, two
//! concurrent clients tuning *overlapping* fleets over the wire, a second
//! wave served entirely from the warm store, and a remote SpMV that matches
//! the local `TunedSpmv::run` result.

use alpha_suite::alphasparse::AlphaSparse;
use alpha_suite::matrix::{gen, max_scaled_error, CsrMatrix};
use alpha_suite::net::{Client, JobSummary, NetServer, ServerConfig};
use alpha_suite::search::SearchConfig;
use alpha_suite::serve::{DesignStore, TuningService};
use std::net::SocketAddr;
use std::time::Duration;

const POLL: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(300);

fn tuning_config() -> SearchConfig {
    SearchConfig {
        max_iterations: 12,
        mutations_per_seed: 2,
        ..SearchConfig::default()
    }
}

/// Submits every matrix, waits for all jobs, returns their summaries.
fn tune_fleet(addr: SocketAddr, matrices: &[CsrMatrix]) -> Vec<JobSummary> {
    let mut client = Client::connect(addr).expect("client connects");
    let jobs: Vec<u64> = matrices
        .iter()
        .map(|matrix| {
            client
                .submit_tune_with_backoff(matrix, "A100", Duration::from_millis(5), DEADLINE)
                .expect("submission admitted")
        })
        .collect();
    jobs.into_iter()
        .map(|job| client.wait_job(job, POLL, DEADLINE).expect("job finishes"))
        .collect()
}

#[test]
fn remote_tuning_end_to_end() {
    let store_dir = std::env::temp_dir().join(format!("alpha_suite_netd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let service = TuningService::new(
        DesignStore::open(&store_dir).expect("store opens"),
        tuning_config(),
    );
    let server = NetServer::spawn("127.0.0.1:0", service, ServerConfig::default())
        .expect("daemon binds an ephemeral port");
    let addr = server.local_addr();

    // Two overlapping fleets: matrices 2..6 are submitted by BOTH clients.
    let matrices: Vec<CsrMatrix> = (0..8)
        .map(|i| {
            let family = gen::PatternFamily::ALL[i % gen::PatternFamily::ALL.len()];
            family.generate(512, 6, 3_000 + i as u64)
        })
        .collect();
    let fleet_a = &matrices[..6];
    let fleet_b = &matrices[2..];

    // Wave 1: two concurrent clients, cold store.
    let (first_a, first_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| tune_fleet(addr, fleet_a));
        let b = scope.spawn(|| tune_fleet(addr, fleet_b));
        (a.join().expect("client A"), b.join().expect("client B"))
    });
    let cold_fresh: u64 = first_a
        .iter()
        .chain(&first_b)
        .map(|s| s.fresh_evaluations)
        .sum();
    assert!(cold_fresh > 0, "the cold wave must actually search");

    // Wave 2: the same overlapping fleets from two NEW concurrent
    // connections.  Every job must be served from the warm store — zero
    // fresh simulator evaluations across the whole wave.
    let (second_a, second_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| tune_fleet(addr, fleet_a));
        let b = scope.spawn(|| tune_fleet(addr, fleet_b));
        (a.join().expect("client A"), b.join().expect("client B"))
    });
    for summary in second_a.iter().chain(&second_b) {
        assert_eq!(
            summary.fresh_evaluations, 0,
            "warm wave must be store-served (graph {})",
            summary.operator_graph
        );
    }
    // The warm wave reproduces the cold wave's winners.
    for (cold, warm) in first_a.iter().zip(&second_a) {
        assert_eq!(cold.operator_graph, warm.operator_graph);
        assert_eq!(cold.gflops, warm.gflops);
    }

    // Remote SpMV matches the LOCAL TunedSpmv::run result: tune the same
    // matrix with the same config in-process and compare products.
    let probe = &matrices[0];
    let mut client = Client::connect(addr).expect("probe client connects");
    let job = client
        .submit_tune_with_backoff(probe, "A100", Duration::from_millis(5), DEADLINE)
        .expect("probe admitted");
    client
        .wait_job(job, POLL, DEADLINE)
        .expect("probe finishes");
    let x: Vec<f32> = (0..probe.cols())
        .map(|i| ((i % 11) as f32 - 5.0) / 3.0)
        .collect();
    let remote_y = client.spmv(job, &x).expect("remote SpMV runs");

    let local = AlphaSparse::with_config(tuning_config())
        .auto_tune(probe)
        .expect("local tuning succeeds");
    let local_y = local.run(&x).expect("local native SpMV runs");
    let error = max_scaled_error(&remote_y, &local_y);
    assert!(
        error <= 1e-4,
        "remote SpMV must match local TunedSpmv::run (max scaled error {error})"
    );

    // Clean shutdown: daemon acknowledges, every thread joins.
    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn a_v1_store_directory_stops_the_daemon_before_it_starts() {
    // `netd` opens its store with `DesignStore::open(..).expect("store
    // opens")`: a directory of an older layout (context keys rooted in the
    // FNV-1a fingerprint) must end that process with both versions in its
    // message, and must not be touched.
    let dir = std::env::temp_dir().join(format!("alpha_suite_netd_v1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("designs")).unwrap();
    let files = [
        ("store.layout", &b"alphasparse-design-store v1\n"[..]),
        ("store.lock", b"7\n"),
        ("designs/ctx_0123456789abcdef.acds", b"v1 cache"),
    ];
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let died = std::panic::catch_unwind(|| {
        DesignStore::open(&dir).expect("store opens");
    })
    .expect_err("netd must not start on a v1 directory");
    let message = died.downcast_ref::<String>().expect("an expect message");
    assert!(message.starts_with("store opens"), "{message}");
    assert!(
        message.contains("alphasparse-design-store v1")
            && message.contains("alphasparse-design-store v3"),
        "{message}"
    );
    for (name, bytes) in files {
        assert_eq!(std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
