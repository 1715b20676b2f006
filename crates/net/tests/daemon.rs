//! Daemon-level tests: protocol robustness against a live socket, admission
//! control, job-table GC, cross-connection warm-store hits and clean
//! shutdown.

use alpha_matrix::gen;
use alpha_net::proto::{
    decode_response, encode_request_traced, read_frame, write_frame, Request, Response,
    MAX_FRAME_LEN, NET_MAGIC, PROTOCOL_VERSION,
};
use alpha_net::{Client, ErrorKind, JobState, NetError, NetServer, ProtoError, ServerConfig};
use alpha_serve::{DesignStore, TuningService};
use alphasparse::SearchConfig;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const POLL: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alpha_net_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_daemon(dir: &PathBuf, config: ServerConfig) -> NetServer {
    let service = TuningService::new(
        DesignStore::open(dir).expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        },
    );
    NetServer::spawn("127.0.0.1:0", service, config).expect("daemon binds")
}

/// The value of one series — its name with its label set, as the exposition
/// prints it — in the daemon's metrics scrape.
fn scraped(client: &mut Client, series: &str) -> u64 {
    let metrics = client.metrics().expect("metrics frame");
    let value = metrics
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '));
    value
        .unwrap_or_else(|| panic!("no {series} in:\n{metrics}"))
        .parse()
        .expect("a counter value")
}

fn stop(server: NetServer, dir: &PathBuf) {
    let mut client = Client::connect(server.local_addr()).expect("connects for shutdown");
    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn tune_poll_spmv_round_trip() {
    let dir = temp_dir("roundtrip");
    let server = quick_daemon(&dir, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let matrix = gen::powerlaw(160, 144, 4, 2.0, 11);
    let job = client.submit_tune(&matrix, "a100").expect("admitted");
    let summary = client.wait_job(job, POLL, DEADLINE).expect("tunes");
    assert!(summary.gflops > 0.0);
    assert!(!summary.operator_graph.is_empty());
    assert!(summary.fresh_evaluations > 0, "cold daemon must search");
    assert!(
        !summary.kernel_shape.is_empty() && summary.kernel_shape != "none",
        "summary must name the resident kernel's library shape, got {:?}",
        summary.kernel_shape
    );
    assert!(
        summary.specialized,
        "a winner serves through the monomorphized library (shape {:?})",
        summary.kernel_shape
    );

    let x: Vec<f32> = (0..144).map(|i| (i % 7) as f32 - 3.0).collect();
    let y = client.spmv(job, &x).expect("remote SpMV runs");
    let expected = matrix.spmv(&x).expect("reference SpMV");
    assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);

    let stats = client.store_stats().expect("stats frame");
    assert_eq!(stats.jobs_submitted, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(
        stats.queue_capacity,
        ServerConfig::default().queue_capacity as u64
    );
    stop(server, &dir);
}

#[test]
fn typed_errors_for_bad_requests_leave_the_session_usable() {
    let dir = temp_dir("typed_errors");
    let server = quick_daemon(&dir, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let matrix = gen::uniform_random(64, 64, 4, 3);

    // Unknown device.
    match client.submit_tune(&matrix, "H100") {
        Err(NetError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownDevice),
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    // Unknown job: poll reports Unknown, SpMV errors.
    assert_eq!(client.poll_job(999).unwrap(), JobState::Unknown);
    match client.spmv(999, &[0.0; 4]) {
        Err(NetError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownJob),
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    // SpMV before the job is done / with the wrong dimension.
    let job = client.submit_tune(&matrix, "A100").unwrap();
    client.wait_job(job, POLL, DEADLINE).unwrap();
    match client.spmv(job, &[1.0; 63]) {
        Err(NetError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::InvalidInput),
        other => panic!("expected InvalidInput, got {other:?}"),
    }
    // The same session still serves valid work after every typed error.
    let y = client.spmv(job, &[1.0; 64]).expect("session survived");
    assert_eq!(y.len(), 64);
    stop(server, &dir);
}

#[test]
fn malformed_frames_never_kill_the_daemon() {
    let dir = temp_dir("robustness");
    let server = quick_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();

    // 1. Bad magic: the daemon answers a typed error frame, then closes.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"NOPE").unwrap();
        raw.write_all(&[0u8; 12]).unwrap();
        let payload = read_frame(&mut raw).expect("error frame comes back");
        match decode_response(&payload).unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::BadFrame);
                assert!(message.contains("magic"), "got: {message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
    // 2. Version mismatch.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&NET_MAGIC).unwrap();
        raw.write_all(&(PROTOCOL_VERSION + 7).to_le_bytes())
            .unwrap();
        raw.write_all(&4u64.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 4]).unwrap();
        let payload = read_frame(&mut raw).expect("error frame comes back");
        assert!(matches!(
            decode_response(&payload).unwrap(),
            Response::Error {
                kind: ErrorKind::BadFrame,
                ..
            }
        ));
    }
    // 3. Oversized frame length: rejected before any allocation happens.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&NET_MAGIC).unwrap();
        raw.write_all(&PROTOCOL_VERSION.to_le_bytes()).unwrap();
        raw.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        let payload = read_frame(&mut raw).expect("error frame comes back");
        match decode_response(&payload).unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::BadFrame);
                assert!(message.contains("cap"), "got: {message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
    // 4. Truncated frame: write half a header and disappear.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&NET_MAGIC[..2]).unwrap();
        drop(raw);
    }
    // 5. Well-framed garbage payload: typed error, session stays alive.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, &[250, 1, 2, 3]).unwrap();
        let payload = read_frame(&mut raw).expect("error frame comes back");
        assert!(matches!(
            decode_response(&payload).unwrap(),
            Response::Error {
                kind: ErrorKind::BadFrame,
                ..
            }
        ));
        // Same connection, now a valid request: the stream stayed in sync.
        write_frame(&mut raw, &encode_request_traced(0, &Request::StoreStats)).unwrap();
        let payload = read_frame(&mut raw).expect("stats frame");
        assert!(matches!(
            decode_response(&payload).unwrap(),
            Response::Stats(_)
        ));
    }
    // 6. Seeded fuzz over a real submission payload: the daemon must answer
    //    *something* typed (or close) for every mutation, and stay alive.
    {
        let valid = encode_request_traced(
            0,
            &Request::SubmitTune {
                matrix: gen::uniform_random(24, 24, 3, 9),
                device: "TestGPU".to_string(),
            },
        );
        let mut state = 0xDEADBEEFCAFEu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for _ in 0..32 {
            let mut mutated = valid.clone();
            for _ in 0..1 + next() % 8 {
                let at = (next() as usize) % mutated.len();
                mutated[at] ^= (next() % 255 + 1) as u8;
            }
            let mut raw = TcpStream::connect(addr).unwrap();
            if write_frame(&mut raw, &mutated).is_err() {
                continue;
            }
            // Either a typed response or a clean close — never a hang (the
            // read would block forever if the daemon panicked mid-frame).
            raw.set_read_timeout(Some(Duration::from_secs(120)))
                .unwrap();
            if let Ok(payload) = read_frame(&mut raw) {
                let _ = decode_response(&payload);
            }
        }
    }

    // After all of the above, the daemon still tunes for a healthy client.
    let mut client = Client::connect(addr).unwrap();
    let matrix = gen::powerlaw(96, 96, 4, 2.0, 5);
    let job = client
        .submit_tune(&matrix, "A100")
        .expect("daemon survived");
    client.wait_job(job, POLL, DEADLINE).expect("still tunes");
    stop(server, &dir);
}

#[test]
fn full_queue_answers_busy_backpressure() {
    let dir = temp_dir("backpressure");
    // One worker, one queue slot: the third submission in a burst must see
    // Busy while the first is still tuning.
    let server = quick_daemon(
        &dir,
        ServerConfig {
            queue_capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Occupy the single worker with a deliberately heavy job, then burst
    // small ones: with one queue slot, the burst must hit Busy while the
    // heavy search runs — deterministically, not by racing the worker.
    let heavy = gen::powerlaw(8_192, 8_192, 8, 2.0, 77);
    let mut admitted = vec![client
        .submit_tune(&heavy, "A100")
        .expect("heavy job admitted")];
    let mut saw_busy = false;
    for i in 0..12u64 {
        let matrix = gen::powerlaw(256, 256, 6, 2.0, 100 + i);
        match client.submit_tune(&matrix, "A100") {
            Ok(job) => admitted.push(job),
            Err(NetError::Busy {
                queue_capacity,
                retry_after_ms: _,
            }) => {
                assert_eq!(queue_capacity, 1);
                saw_busy = true;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        saw_busy,
        "a 12-burst into a 1-slot queue behind a heavy job must hit Busy"
    );
    assert!(!admitted.is_empty(), "some submissions must be admitted");
    for job in &admitted {
        client
            .wait_job(*job, POLL, DEADLINE)
            .expect("admitted jobs finish");
    }
    // Backoff-retry admits a job once the queue drains.
    let matrix = gen::powerlaw(256, 256, 6, 2.0, 999);
    let job = client
        .submit_tune_with_backoff(&matrix, "A100", Duration::from_millis(5), DEADLINE)
        .expect("retry succeeds after drain");
    client.wait_job(job, POLL, DEADLINE).unwrap();
    let stats = client.store_stats().unwrap();
    assert!(stats.jobs_rejected > 0);
    assert_eq!(stats.jobs_completed, admitted.len() as u64 + 1);
    stop(server, &dir);
}

#[test]
fn terminal_jobs_are_garbage_collected_in_order() {
    let dir = temp_dir("gc");
    let server = quick_daemon(
        &dir,
        ServerConfig {
            max_terminal_jobs: 2,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut jobs = Vec::new();
    for i in 0..4u64 {
        let matrix = gen::powerlaw(128, 128, 4, 2.0, 200 + i);
        let job = client.submit_tune(&matrix, "A100").unwrap();
        client.wait_job(job, POLL, DEADLINE).unwrap();
        jobs.push(job);
    }
    // Only the 2 newest terminal records survive; the oldest were GC'd.
    assert_eq!(client.poll_job(jobs[0]).unwrap(), JobState::Unknown);
    assert_eq!(client.poll_job(jobs[1]).unwrap(), JobState::Unknown);
    assert!(matches!(
        client.poll_job(jobs[2]).unwrap(),
        JobState::Done(_)
    ));
    assert!(matches!(
        client.poll_job(jobs[3]).unwrap(),
        JobState::Done(_)
    ));
    let stats = client.store_stats().unwrap();
    assert_eq!(stats.jobs_gced, 2);
    stop(server, &dir);
}

#[test]
fn failed_jobs_report_their_error_and_do_not_serve_spmv() {
    let dir = temp_dir("failed");
    let server = quick_daemon(&dir, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    // An empty matrix is admitted (it is structurally valid CSR) but fails
    // tuning server-side.
    let empty = alpha_matrix::CsrMatrix::from_coo(&alpha_matrix::CooMatrix::new(8, 8));
    let job = client.submit_tune(&empty, "A100").unwrap();
    match client.wait_job(job, POLL, DEADLINE) {
        Err(NetError::JobFailed { job_id, error }) => {
            assert_eq!(job_id, job);
            assert!(!error.is_empty());
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    match client.spmv(job, &[1.0; 8]) {
        Err(NetError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::JobNotReady),
        other => panic!("expected JobNotReady, got {other:?}"),
    }
    let stats = client.store_stats().unwrap();
    assert_eq!(stats.jobs_failed, 1);
    stop(server, &dir);
}

#[test]
fn warm_store_serves_a_second_connection_for_free() {
    let dir = temp_dir("warm");
    // A registry of its own, so the path counters below count this daemon
    // only (tests in this binary share the process-wide default).
    let service = TuningService::new(
        DesignStore::open_with_registry(&dir, alpha_telemetry::Registry::new())
            .expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        },
    );
    let server =
        NetServer::spawn("127.0.0.1:0", service, ServerConfig::default()).expect("daemon binds");
    // A sibling tuned first, so `matrix`'s own search is warm-started and
    // the flag has something to be preserved against.
    let sibling = gen::powerlaw(192, 192, 5, 2.0, 76);
    let matrix = gen::powerlaw(192, 192, 5, 2.0, 77);

    let first = {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let job = client.submit_tune(&sibling, "A100").unwrap();
        client.wait_job(job, POLL, DEADLINE).unwrap();
        let job = client.submit_tune(&matrix, "A100").unwrap();
        client.wait_job(job, POLL, DEADLINE).unwrap()
    };
    assert!(first.fresh_evaluations > 0);
    assert!(first.warm_started, "the sibling's winner seeds the search");

    // A brand-new connection re-submitting the same matrix is answered with
    // the program the first job still holds: zero fresh evaluations, the
    // identical design, and a new job whose kernel computes y = A·x.
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Tunes whose inner loops were measured on this host so far (the two
    // searches, unless a winner designed its own lanes).
    let selections_before = scraped(&mut client, "serve_loop_select_total");
    let job = client.submit_tune(&matrix, "A100").unwrap();
    let second = client.wait_job(job, POLL, DEADLINE).unwrap();
    assert_eq!(
        second.fresh_evaluations, 0,
        "resubmission must be store-served"
    );
    assert_eq!(second.warm_started, first.warm_started);
    assert_eq!(second.operator_graph, first.operator_graph);
    assert_eq!(second.gflops, first.gflops);
    assert_eq!(second.kernel_shape, first.kernel_shape);
    assert_eq!(second.specialized, first.specialized);
    assert_eq!(
        scraped(&mut client, "serve_loop_select_total"),
        selections_before,
        "a repeat answer measures nothing"
    );
    let x: Vec<f32> = (0..192).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect();
    let y = client.spmv(job, &x).expect("the new job serves SpMV");
    let expected = matrix.spmv(&x).expect("reference SpMV");
    assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);

    // The scrape says which path answered: two searches, one program
    // handed back, and never a replayed search.
    let metrics = client.metrics().expect("metrics frame");
    for line in [
        "serve_tune_total{path=\"searched\"} 2",
        "serve_tune_total{path=\"resident\"} 1",
        "serve_tune_total{path=\"stored\"} 0",
        "serve_tune_total{path=\"replayed\"} 0",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in:\n{metrics}");
    }
    drop(client);
    stop(server, &dir);
}

#[test]
fn repeat_tunes_share_one_program_for_as_long_as_a_job_holds_it() {
    let dir = temp_dir("resident");
    let service = TuningService::new(
        DesignStore::open_with_registry(&dir, alpha_telemetry::Registry::new())
            .expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        },
    );
    // One terminal job is kept: each finished job drops its predecessor, and
    // a job of another matrix drops the last holder of this one's program.
    let config = ServerConfig {
        max_terminal_jobs: 1,
        ..ServerConfig::default()
    };
    let server = NetServer::spawn("127.0.0.1:0", service, config).expect("daemon binds");
    let matrix = gen::powerlaw(192, 160, 5, 2.0, 91);
    let x: Vec<f32> = (0..160).map(|i| (i % 13) as f32 * 0.25 - 1.0).collect();
    let expected = matrix.spmv(&x).expect("reference SpMV");
    let path_count = |client: &mut Client, path: &str| {
        scraped(client, &format!("serve_tune_total{{path=\"{path}\"}}"))
    };

    let mut connections = [
        Client::connect(server.local_addr()).unwrap(),
        Client::connect(server.local_addr()).unwrap(),
    ];
    let job = connections[0].submit_tune(&matrix, "A100").unwrap();
    let first = connections[0].wait_job(job, POLL, DEADLINE).unwrap();
    assert!(first.fresh_evaluations > 0);
    for i in 0..15 {
        let client = &mut connections[i % 2];
        let job = client.submit_tune(&matrix, "A100").unwrap();
        let repeat = client.wait_job(job, POLL, DEADLINE).unwrap();
        assert_eq!(repeat.fresh_evaluations, 0, "repeat {i}");
        assert_eq!(repeat.kernel_shape, first.kernel_shape, "repeat {i}");
        assert_eq!(repeat.operator_graph, first.operator_graph, "repeat {i}");
        let y = client.spmv(job, &x).expect("the newest job serves SpMV");
        assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);
    }
    let [client, _] = &mut connections;
    assert_eq!(path_count(client, "resident"), 15);
    assert_eq!(path_count(client, "stored"), 0);
    assert_eq!(client.store_stats().unwrap().jobs_gced, 15);

    // Another matrix's job pushes the last of them out of the table: nobody
    // holds the program any more, and the context is answered from its
    // stored winner — with a program that is as right as the shared one was.
    let other = gen::powerlaw(192, 160, 5, 2.0, 92);
    let job = client.submit_tune(&other, "A100").unwrap();
    client.wait_job(job, POLL, DEADLINE).unwrap();
    let job = client.submit_tune(&matrix, "A100").unwrap();
    let rebuilt = client.wait_job(job, POLL, DEADLINE).unwrap();
    assert_eq!(rebuilt.fresh_evaluations, 0);
    assert_eq!(rebuilt.kernel_shape, first.kernel_shape);
    assert_eq!(rebuilt.operator_graph, first.operator_graph);
    assert_eq!(path_count(client, "stored"), 1);
    assert_eq!(path_count(client, "resident"), 15);
    assert_eq!(path_count(client, "searched"), 2);
    let y = client.spmv(job, &x).expect("the rebuilt job serves SpMV");
    assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);
    drop(connections);
    stop(server, &dir);
}

#[test]
fn shutdown_refuses_new_work_and_joins_cleanly() {
    let dir = temp_dir("shutdown");
    let server = quick_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let matrix = gen::powerlaw(96, 96, 4, 2.0, 31);
    let job = client.submit_tune(&matrix, "A100").unwrap();
    client.wait_job(job, POLL, DEADLINE).unwrap();

    let mut other = Client::connect(addr).unwrap();
    client.shutdown().expect("acknowledged");
    // The already-open second connection is refused new submissions.
    match other.submit_tune(&matrix, "A100") {
        Err(NetError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
        Err(NetError::Proto(_)) => {} // ...or the daemon already went away.
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    drop(other);
    // Must terminate: accept loop, workers and every connection thread —
    // including the still-open `client` session, which the daemon closes on
    // its next idle poll.
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_tune_disjoint_fleets() {
    let dir = temp_dir("concurrent");
    let server = quick_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..2u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut jobs = Vec::new();
                for i in 0..3u64 {
                    let matrix = gen::powerlaw(160, 160, 4, 2.0, 1000 * (c + 1) + i);
                    jobs.push(
                        client
                            .submit_tune_with_backoff(
                                &matrix,
                                "A100",
                                Duration::from_millis(5),
                                DEADLINE,
                            )
                            .expect("admitted"),
                    );
                }
                for job in jobs {
                    client.wait_job(job, POLL, DEADLINE).expect("tunes");
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.jobs_submitted, 6);
    assert_eq!(stats.jobs_completed, 6);
    stop(server, &dir);
}

#[test]
fn many_connections_are_served_by_one_event_loop() {
    const CLIENTS: usize = 128;
    let dir = temp_dir("many");
    let server = quick_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let matrices: Vec<_> = (0..4u64)
        .map(|i| gen::powerlaw(160, 160, 4, 2.0, 7_000 + i))
        .collect();

    // First wave: one connection tunes the four matrices, so the store
    // answers every later submission and the daemon's pools exist.
    {
        let mut client = Client::connect(addr).unwrap();
        for matrix in &matrices {
            let job = client.submit_tune(matrix, "A100").expect("admitted");
            client.wait_job(job, POLL, DEADLINE).expect("tunes");
        }
    }
    let pool_spawns = || {
        alpha_telemetry::global()
            .counter("parallel_thread_spawns_total", &[])
            .get()
    };
    let spawns_before = pool_spawns();

    // One store-served tune and one checked SpMV.  A full admission queue or
    // execution lane answers `Busy`: backpressure to retry, never a failure.
    let round_trip = |client: &mut Client, matrix: &alpha_matrix::CsrMatrix| {
        let job = client
            .submit_tune_with_backoff(matrix, "A100", POLL, DEADLINE)
            .map_err(|e| format!("submit failed: {e}"))?;
        let summary = client
            .wait_job(job, POLL, DEADLINE)
            .map_err(|e| format!("tune job {job} failed: {e}"))?;
        if summary.fresh_evaluations != 0 {
            return Err(format!("job {job} searched instead of being store-served"));
        }
        let x: Vec<f32> = (0..matrix.cols()).map(|i| (i % 7) as f32 - 3.0).collect();
        let y = loop {
            match client.spmv(job, &x) {
                Ok(y) => break y,
                Err(NetError::Busy { retry_after_ms, .. }) => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 50)))
                }
                Err(e) => return Err(format!("spmv on job {job} failed: {e}")),
            }
        };
        let expected = matrix.spmv(&x).map_err(|e| e.to_string())?;
        if alpha_matrix::max_scaled_error(&y, expected.as_slice()) > 1e-5 {
            return Err(format!("spmv on job {job} diverged from the reference"));
        }
        Ok(())
    };

    // Every client connects before any submits (nothing panics before the
    // wait: a client missing from it would hang the rest) and hands its
    // connection back still open, so the daemon holds all of them at once.
    let barrier = std::sync::Barrier::new(CLIENTS);
    let served: Vec<Result<Client, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, matrix) = (&barrier, &matrices[c % matrices.len()]);
                scope.spawn(move || {
                    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
                    barrier.wait();
                    let mut client = client?;
                    round_trip(&mut client, matrix)?;
                    Ok(client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let clients: Vec<Client> = served
        .into_iter()
        .map(|client| client.expect("zero failed requests"))
        .collect();
    let open_at_peak = server.stats().open_connections;
    assert!(
        open_at_peak >= CLIENTS as u64,
        "{open_at_peak} connections open with {CLIENTS} clients connected"
    );
    drop(clients);

    // Connections cost the daemon no threads: a pool per connection (or per
    // request) would have spawned `CLIENTS` pools' worth of workers.  (The
    // counter is process-wide; the other tests of this binary start a dozen
    // daemons of two pools each meanwhile, hence a bound and not zero.)
    let workers_per_pool = alpha_parallel::default_threads().saturating_sub(1).max(1);
    let spawned = pool_spawns() - spawns_before;
    assert!(
        spawned < (CLIENTS * workers_per_pool) as u64,
        "{spawned} pool workers spawned while serving {CLIENTS} connections"
    );
    let stats = server.stats();
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.jobs_completed, (matrices.len() + CLIENTS) as u64);

    // The reaper runs on the loop's tick: give the dropped connections a
    // bounded settle window.
    let settle_deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().open_connections > 1 && std::time::Instant::now() < settle_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        server.stats().open_connections <= 1,
        "dropped connections must be reaped, open_connections={}",
        server.stats().open_connections
    );
    stop(server, &dir);
}

#[test]
fn remote_spmv_is_bitwise_the_same_alone_and_beside_other_work() {
    const CONNECTIONS: usize = 2;
    const SPMVS: usize = 32;
    let dir = temp_dir("exec_paths");
    // A registry of its own, so the path counters count this daemon only.
    let service = TuningService::new(
        DesignStore::open_with_registry(&dir, alpha_telemetry::Registry::new())
            .expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        },
    );
    let server =
        NetServer::spawn("127.0.0.1:0", service, ServerConfig::default()).expect("daemon binds");
    let addr = server.local_addr();
    // 65 536 non-zeros: enough that the kernel splits its work on a
    // multi-core host, whichever design wins.
    let matrix = gen::uniform_random(4_096, 4_096, 16, 61);
    let x: Vec<f32> = (0..matrix.cols())
        .map(|i| (i % 11) as f32 * 0.5 - 2.0)
        .collect();
    let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

    // Alone: the only SpMV in flight and no tune executing.
    let mut client = Client::connect(addr).unwrap();
    let job = client.submit_tune(&matrix, "A100").expect("admitted");
    client.wait_job(job, POLL, DEADLINE).expect("tunes");
    let solo = client.spmv(job, &x).expect("remote SpMV runs");
    let expected = matrix.spmv(&x).expect("reference SpMV");
    assert!(alpha_matrix::max_scaled_error(&solo, expected.as_slice()) <= 1e-5);
    let solo = bits(&solo);

    // Beside other work: two connections' SpMVs overlap each other while a
    // third connection's cold tune of another matrix executes.  The readers
    // start together, once a tuning worker has picked the tune up.
    let cold = gen::powerlaw(1_024, 1_024, 8, 2.0, 62);
    let start = std::sync::Barrier::new(CONNECTIONS + 1);
    let answers: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        // Every thread reaches the barrier before it can panic, so one
        // failure cannot hang the others.
        let tuner = scope.spawn(|| {
            let picked_up = Client::connect(addr).and_then(|mut client| {
                let job = client.submit_tune(&cold, "A100")?;
                while client.poll_job(job)? == JobState::Queued {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok((client, job))
            });
            start.wait();
            let (mut client, job) = picked_up.expect("cold tune admitted");
            client.wait_job(job, POLL, DEADLINE).expect("cold tune");
        });
        let readers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let client = Client::connect(addr);
                    start.wait();
                    let mut client = client.expect("client connects");
                    (0..SPMVS)
                        .map(|_| bits(&client.spmv(job, &x).expect("remote SpMV runs")))
                        .collect()
                })
            })
            .collect();
        tuner.join().expect("tuner thread");
        readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    for (connection, ys) in answers.iter().enumerate() {
        for (call, y) in ys.iter().enumerate() {
            assert!(
                *y == solo,
                "connection {connection}, call {call}: y differs from the lone request's"
            );
        }
    }

    // Both paths answered: the lone request on the exec pool, and at least
    // one of the overlapping ones on its exec worker's own thread.
    let pool = scraped(&mut client, "net_spmv_exec_total{path=\"pool\"}");
    let inline = scraped(&mut client, "net_spmv_exec_total{path=\"inline\"}");
    assert!(pool >= 1, "the lone SpMV must fan out over the exec pool");
    assert!(inline > 0, "no SpMV ran inline beside other work");
    assert_eq!(pool + inline, (1 + CONNECTIONS * SPMVS) as u64);
    stop(server, &dir);
}

#[test]
fn raw_disconnect_mid_submission_does_not_leak_jobs() {
    let dir = temp_dir("disconnect");
    let server = quick_daemon(&dir, ServerConfig::default());
    // Open a connection, send half a frame, vanish.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&NET_MAGIC).unwrap();
        raw.write_all(&PROTOCOL_VERSION.to_le_bytes()).unwrap();
        raw.write_all(&1024u64.to_le_bytes()).unwrap();
        raw.write_all(&[7u8; 100]).unwrap(); // 924 bytes short
        drop(raw);
    }
    // Nothing was admitted; the daemon is idle and healthy.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.store_stats().unwrap();
    assert_eq!(stats.jobs_submitted, 0);
    assert_eq!(stats.queue_depth, 0);
    stop(server, &dir);
}

#[test]
fn metrics_surface_covers_the_whole_pipeline() {
    let dir = temp_dir("metrics");
    let server = quick_daemon(
        &dir,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
    );
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    let (mut client, _) = Client::connect_as(server.local_addr(), 7).unwrap();

    let matrix = gen::powerlaw(128, 128, 4, 2.0, 21);
    let job = client.submit_tune(&matrix, "A100").expect("admitted");
    let summary = client.wait_job(job, POLL, DEADLINE).expect("tunes");
    assert!(
        summary.specialized,
        "the resident kernel runs monomorphized loops (shape {:?})",
        summary.kernel_shape
    );
    let x = vec![1.0f32; 128];
    client.spmv(job, &x).expect("remote SpMV runs");

    // The wire request returns the full registry: daemon-level families,
    // tenant labels, and the serving/search/kernel layers underneath.
    let text = client.metrics().expect("metrics frame");
    for family in [
        "net_requests_total{tenant=\"7\"}",
        "net_tune_exec_us_count",
        "net_tune_queue_wait_us_count",
        "net_spmv_latency_us_count",
        "net_spmv_exec_total{path=\"pool\"}",
        "net_spmv_exec_total{path=\"inline\"}",
        "net_loop_tick_us_count",
        "net_deferred_depth",
        "serve_tune_latency_us_count",
        "serve_store_cold_starts_total",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    // The HTTP endpoint serves the same exposition to a plain scraper.
    let scrape = |path: &str| -> String {
        let mut stream = TcpStream::connect(metrics_addr).expect("scraper connects");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("request writes");
        let mut body = String::new();
        use std::io::Read;
        stream.read_to_string(&mut body).expect("response reads");
        body
    };
    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4\r\n"),
        "{response}"
    );
    assert!(response.contains("net_requests_total{tenant=\"7\"}"));
    assert!(response.contains("net_http_scrapes_total 1"));

    // Counters are monotone across scrapes, and wrong paths 404 without
    // disturbing the daemon.
    assert!(scrape("/nope").starts_with("HTTP/1.0 404 Not Found\r\n"));
    let again = scrape("/metrics");
    assert!(again.contains("net_http_scrapes_total 2"), "{again}");

    // The flight recorder dumps over the same endpoint, as JSON, and it
    // has seen this test's tune and SpMV lifecycles.
    let flightrec = scrape("/debug/flightrec");
    assert!(flightrec.starts_with("HTTP/1.0 200 OK\r\n"), "{flightrec}");
    assert!(
        flightrec.contains("Content-Type: application/json\r\n"),
        "{flightrec}"
    );
    for marker in ["\"admitted\"", "\"queue_pop\"", "\"exec_end\"", "\"reply\""] {
        assert!(flightrec.contains(marker), "missing {marker}:\n{flightrec}");
    }

    // Only GET is served: anything else on a known path is a 405 that
    // names the allowed method.
    let mut stream = TcpStream::connect(metrics_addr).expect("scraper connects");
    stream
        .write_all(b"POST /metrics HTTP/1.0\r\n\r\n")
        .expect("request writes");
    let mut body = String::new();
    {
        use std::io::Read;
        stream.read_to_string(&mut body).expect("response reads");
    }
    assert!(
        body.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"),
        "{body}"
    );
    assert!(body.contains("Allow: GET\r\n"), "{body}");

    client.store_stats().expect("frame protocol still serves");
    stop(server, &dir);
}

#[test]
fn v4_clients_get_a_typed_version_mismatch() {
    let dir = temp_dir("v4compat");
    let server = quick_daemon(&dir, ServerConfig::default());

    // There is one wire version.  A v4 peer (bare payload, version stamp 4)
    // is not misread as v5: it gets one typed error naming both versions —
    // in a frame a current reader decodes — and the connection closes.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let payload = alpha_net::proto::encode_request(&Request::StoreStats);
    let mut frame = Vec::new();
    frame.extend_from_slice(&NET_MAGIC);
    frame.extend_from_slice(&4u32.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&payload);
    raw.write_all(&frame).unwrap();

    let reply = read_frame(&mut raw).expect("error frame comes back");
    match decode_response(&reply).expect("decodes") {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::BadFrame);
            assert!(
                message.contains("version 4") && message.contains(&PROTOCOL_VERSION.to_string()),
                "got: {message}"
            );
        }
        other => panic!("expected a version-mismatch error, got {other:?}"),
    }
    assert!(
        matches!(
            read_frame(&mut raw),
            Err(ProtoError::Closed) | Err(ProtoError::Io(_))
        ),
        "framing is lost after a foreign version: the daemon closes"
    );
    // Current-version clients are unaffected.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.store_stats().expect("v5 client still served");
    drop(client);
    stop(server, &dir);
}
