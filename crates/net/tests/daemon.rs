//! Daemon-level tests: protocol robustness against a live socket, admission
//! control, job-table GC, cross-connection warm-store hits and clean
//! shutdown.

use alpha_matrix::gen;
use alpha_net::proto::{
    decode_response, encode_request_traced, read_frame, request_frame, write_frame, Request,
    Response, MAX_FRAME_LEN, NET_MAGIC, PROTOCOL_VERSION,
};
use alpha_net::{
    Client, ErrorKind, JobState, NetError, NetServer, ProtoError, ServerConfig, TenantStats,
};
use alpha_serve::{DesignStore, TuningService};
use alpha_telemetry::FlightKind;
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

/// [`quick_daemon`] with a metrics registry of its own, so counters scraped
/// from it count this daemon only (tests in this binary share the
/// process-wide default).
fn isolated_daemon(dir: &PathBuf, config: ServerConfig) -> NetServer {
    let service = TuningService::new(
        DesignStore::open_with_registry(dir, alpha_telemetry::Registry::new())
            .expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        },
    );
    NetServer::spawn("127.0.0.1:0", service, config).expect("daemon binds")
}

/// One request on a raw connection, answered by one decoded response.
fn exchange(stream: &mut TcpStream, request: &Request) -> Response {
    stream
        .write_all(&request_frame(0, request).expect("frame fits"))
        .expect("request writes");
    decode_response(&read_frame(stream).expect("a response frame")).expect("decodes")
}

/// The by-reference request naming `matrix`.
fn by_reference(matrix: &alpha_matrix::CsrMatrix, device: &str) -> Request {
    Request::SubmitTuneRef {
        digest: matrix.digest(),
        rows: matrix.rows() as u64,
        cols: matrix.cols() as u64,
        nnz: matrix.nnz() as u64,
        device: device.to_string(),
    }
}

/// `net_tune_by_reference_total{outcome}` as (hit, need_matrix).
fn by_reference_outcomes(client: &mut Client) -> (u64, u64) {
    let outcome = |client: &mut Client, outcome: &str| {
        scraped(
            client,
            &format!("net_tune_by_reference_total{{outcome=\"{outcome}\"}}"),
        )
    };
    (outcome(client, "hit"), outcome(client, "need_matrix"))
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
    let mut retry_hints_ms = Vec::new();
    for i in 0..12u64 {
        let matrix = gen::powerlaw(256, 256, 6, 2.0, 100 + i);
        match client.submit_tune(&matrix, "A100") {
            Ok(job) => admitted.push(job),
            Err(NetError::Busy {
                queue_capacity,
                retry_after_ms,
            }) => {
                assert_eq!(queue_capacity, 1);
                retry_hints_ms.push(retry_after_ms);
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        !retry_hints_ms.is_empty(),
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

    // Each Busy answer's hint is the value of one shed event, in µs.
    let shed_us: Vec<u64> = server
        .flight_recorder()
        .snapshot()
        .iter()
        .filter(|e| e.kind == FlightKind::Shed)
        .map(|e| e.value_us)
        .collect();
    let hints_us: Vec<u64> = retry_hints_ms.iter().map(|ms| ms * 1000).collect();
    assert_eq!(shed_us, hints_us);

    // The daemon's job counts are its tenants' rows summed, a job answered
    // by reference included.
    let hit = client
        .submit_tune(&matrix, "A100")
        .expect("a by-reference hit");
    assert_ne!(
        hit, job,
        "the first hit on an upload files a job of its own"
    );
    let stats = client.store_stats().unwrap();
    assert_eq!(stats.jobs_completed, admitted.len() as u64 + 2);
    let tenants = client.tenant_stats().unwrap();
    let sum = |row: fn(&TenantStats) -> u64| tenants.iter().map(row).sum::<u64>();
    assert_eq!(stats.jobs_submitted, sum(|t| t.submitted));
    assert_eq!(stats.jobs_rejected, sum(|t| t.rejected));
    assert_eq!(stats.jobs_completed, sum(|t| t.completed));
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
    let server = isolated_daemon(&dir, ServerConfig::default());
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

    // A brand-new connection (the same anonymous tenant) re-submitting the
    // same matrix names it by digest and is answered with the program the
    // first job still holds: zero fresh evaluations, the identical design,
    // and a new job whose kernel computes y = A·x.
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
    assert_eq!(
        scraped(&mut client, "serve_loop_select_total"),
        selections_before,
        "a repeat answer measures nothing"
    );
    let x: Vec<f32> = (0..192).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect();
    let y = client.spmv(job, &x).expect("the new job serves SpMV");
    let expected = matrix.spmv(&x).expect("reference SpMV");
    assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);

    // The scrape says which path answered: two uploads that searched, and
    // one program handed back by reference, before the tuning service.
    let metrics = client.metrics().expect("metrics frame");
    for line in [
        "net_tune_by_reference_total{outcome=\"hit\"} 1",
        "net_tune_by_reference_total{outcome=\"need_matrix\"} 2",
        "serve_tune_total{path=\"searched\"} 2",
        "serve_tune_total{path=\"resident\"} 0",
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
    // One terminal job is kept: the first repeat's job drops the upload's,
    // and a job of another matrix drops the last holder of the program.
    let server = isolated_daemon(
        &dir,
        ServerConfig {
            max_terminal_jobs: 1,
            ..ServerConfig::default()
        },
    );
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
    let mut repeat_jobs = std::collections::BTreeSet::new();
    for i in 0..15 {
        let client = &mut connections[i % 2];
        let job = client.submit_tune(&matrix, "A100").unwrap();
        repeat_jobs.insert(job);
        let repeat = client.wait_job(job, POLL, DEADLINE).unwrap();
        assert_eq!(repeat.fresh_evaluations, 0, "repeat {i}");
        assert_eq!(repeat.kernel_shape, first.kernel_shape, "repeat {i}");
        assert_eq!(repeat.operator_graph, first.operator_graph, "repeat {i}");
        let y = client.spmv(job, &x).expect("the newest job serves SpMV");
        assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);
    }
    // Every repeat was a by-reference hit on the daemon's event loop; none
    // reached the tuning service.  The first hit filed a job, and every
    // later one — on either connection — was answered with that same job,
    // so the burst cost one terminal slot.
    let [client, _] = &mut connections;
    assert_eq!(by_reference_outcomes(client), (15, 1));
    assert_eq!(path_count(client, "resident"), 0);
    assert_eq!(path_count(client, "stored"), 0);
    assert_eq!(repeat_jobs.len(), 1, "{repeat_jobs:?}");
    assert!(!repeat_jobs.contains(&job));
    assert_eq!(client.store_stats().unwrap().jobs_gced, 1);

    // Another matrix's job pushes the last of them out of the table: nobody
    // holds the program any more, so the digest is answered `NeedMatrix`,
    // the client uploads without being asked to, and the context is
    // answered from its stored winner — with a program that is as right as
    // the shared one was.
    let other = gen::powerlaw(192, 160, 5, 2.0, 92);
    let job = client.submit_tune(&other, "A100").unwrap();
    client.wait_job(job, POLL, DEADLINE).unwrap();
    let job = client.submit_tune(&matrix, "A100").unwrap();
    let rebuilt = client.wait_job(job, POLL, DEADLINE).unwrap();
    assert_eq!(rebuilt.fresh_evaluations, 0);
    assert_eq!(rebuilt.kernel_shape, first.kernel_shape);
    assert_eq!(rebuilt.operator_graph, first.operator_graph);
    assert_eq!(by_reference_outcomes(client), (15, 3));
    assert_eq!(path_count(client, "stored"), 1);
    assert_eq!(path_count(client, "resident"), 0);
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
    // The uploads, then one job per matrix: its first hit by reference
    // filed it, and every later hit was answered with it.
    assert_eq!(stats.jobs_completed, 2 * matrices.len() as u64);

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
    client.wait_job(job, POLL, DEADLINE).expect("tunes");
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
        "net_tune_by_reference_total{outcome=\"hit\"}",
        "net_tune_by_reference_total{outcome=\"need_matrix\"}",
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
    // or a v5 one (trace id first, stamp 5) is not misread as v6: it gets
    // one typed error naming both versions — in a frame a current reader
    // decodes — and the connection closes.
    for (version, payload) in [
        (4u32, alpha_net::proto::encode_request(&Request::StoreStats)),
        (5, encode_request_traced(0, &Request::StoreStats)),
    ] {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&NET_MAGIC);
        frame.extend_from_slice(&version.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&payload);
        raw.write_all(&frame).unwrap();

        let reply = read_frame(&mut raw).expect("error frame comes back");
        match decode_response(&reply).expect("decodes") {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::BadFrame);
                assert!(
                    message.contains(&format!("version {version}"))
                        && message.contains(&PROTOCOL_VERSION.to_string()),
                    "got: {message}"
                );
            }
            other => panic!("v{version}: expected a version-mismatch error, got {other:?}"),
        }
        assert!(
            matches!(
                read_frame(&mut raw),
                Err(ProtoError::Closed) | Err(ProtoError::Io(_))
            ),
            "framing is lost after a foreign version: the daemon closes"
        );
    }
    // Current-version clients are unaffected.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.store_stats().expect("v6 client still served");
    drop(client);
    stop(server, &dir);
}

#[test]
fn a_digest_reaches_only_its_own_tenants_uploads() {
    let dir = temp_dir("digest_tenants");
    let server = isolated_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let matrix = gen::powerlaw(160, 128, 4, 2.0, 41);
    let named = by_reference(&matrix, "A100");
    let hello = |stream: &mut TcpStream, client_id: u64| {
        let welcome = exchange(stream, &Request::Hello { client_id });
        assert!(matches!(welcome, Response::Welcome { .. }), "{welcome:?}");
    };

    // Tenant 1 uploads: its first submit names the digest, is asked for the
    // matrix, and sends it.
    let (mut first, _) = Client::connect_as(addr, 1).unwrap();
    let uploaded = first.submit_tune(&matrix, "A100").unwrap();
    first.wait_job(uploaded, POLL, DEADLINE).unwrap();

    // Tenant 2 names the same digest and is asked for the matrix: another
    // tenant's upload is not its own.  So is an anonymous connection, which
    // is tenant 0.
    let mut second = TcpStream::connect(addr).unwrap();
    hello(&mut second, 2);
    assert_eq!(exchange(&mut second, &named), Response::NeedMatrix);
    let mut anonymous = TcpStream::connect(addr).unwrap();
    assert_eq!(exchange(&mut anonymous, &named), Response::NeedMatrix);
    // Tenant 1 itself is answered by reference, on any of its connections.
    let mut again = TcpStream::connect(addr).unwrap();
    hello(&mut again, 1);
    assert!(matches!(
        exchange(&mut again, &named),
        Response::Submitted { .. }
    ));

    // Tenant 2's own upload gets it a job of its own — the tuning service
    // shares the program, since it compared the content — and from then on
    // tenant 2 is answered by reference too.
    let (mut client, _) = Client::connect_as(addr, 2).unwrap();
    let own = client.submit_tune(&matrix, "A100").unwrap();
    assert_ne!(own, uploaded);
    let summary = client.wait_job(own, POLL, DEADLINE).unwrap();
    assert_eq!(summary.fresh_evaluations, 0);
    assert!(matches!(
        exchange(&mut second, &named),
        Response::Submitted { .. }
    ));
    // Hits: tenant 1 once, tenant 2 once.  Misses: both uploads' first
    // attempts, tenant 2's and tenant 0's digest-only requests.
    assert_eq!(by_reference_outcomes(&mut client), (2, 4));
    drop((first, second, anonymous, again, client));
    stop(server, &dir);
}

#[test]
fn a_hit_needs_the_uploaded_shape_and_serves_the_uploaded_bits() {
    let dir = temp_dir("digest_shape");
    let server = isolated_daemon(&dir, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let matrix = gen::uniform_random(256, 192, 6, 43);
    let uploaded = client.submit_tune(&matrix, "A100").unwrap();
    let first = client.wait_job(uploaded, POLL, DEADLINE).unwrap();
    let x: Vec<f32> = (0..192).map(|i| (i % 9) as f32 * 0.75 - 3.0).collect();
    let bits = |y: Vec<f32>| y.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    let uploaded_y = bits(client.spmv(uploaded, &x).unwrap());

    // The digest alone is not enough: rows, columns, nnz and the device must
    // be the upload's too, or the daemon asks for the matrix.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let (digest, rows, cols, nnz) = (matrix.digest(), 256, 192, matrix.nnz() as u64);
    let named = |digest, rows, cols, nnz, device: &str| Request::SubmitTuneRef {
        digest,
        rows,
        cols,
        nnz,
        device: device.to_string(),
    };
    for wrong in [
        named(digest, rows + 1, cols, nnz, "A100"),
        named(digest, rows, cols - 1, nnz, "A100"),
        named(digest, rows, cols, nnz + 1, "A100"),
        named(digest, rows, cols, nnz, "RTX2080"),
        named(
            {
                let mut other = digest;
                other[31] ^= 0x80;
                other
            },
            rows,
            cols,
            nnz,
            "A100",
        ),
    ] {
        assert_eq!(
            exchange(&mut raw, &wrong),
            Response::NeedMatrix,
            "{wrong:?}"
        );
    }
    match exchange(&mut raw, &named(digest, rows, cols, nnz, "H100")) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownDevice),
        other => panic!("expected UnknownDevice, got {other:?}"),
    }

    // The exact shape (device names are case-insensitive) is a hit: a job
    // that is `Done` at its first poll, reporting the upload's design and
    // serving bitwise the upload's `y`.
    let Response::Submitted { job_id } =
        exchange(&mut raw, &named(digest, rows, cols, nnz, "a100"))
    else {
        panic!("the exact shape must be a hit")
    };
    let hit = match client.poll_job(job_id).unwrap() {
        JobState::Done(summary) => summary,
        other => panic!("a hit is Done when it is submitted, got {other:?}"),
    };
    assert_eq!(hit.fresh_evaluations, 0);
    assert_eq!(hit.queue_wait_secs, 0.0);
    assert_eq!(
        (&hit.operator_graph, &hit.kernel_shape, hit.gflops),
        (&first.operator_graph, &first.kernel_shape, first.gflops)
    );
    assert_eq!(bits(client.spmv(job_id, &x).unwrap()), uploaded_y);
    assert_eq!(by_reference_outcomes(&mut client), (1, 6));
    let stats = client.store_stats().unwrap();
    assert_eq!((stats.jobs_submitted, stats.jobs_completed), (2, 2));
    drop((client, raw));
    stop(server, &dir);
}

/// Two different matrices of one shape with one 64-bit fingerprint, and the
/// index of an entry that differs between them.  The fingerprint's striped
/// hash adds `lo(d ^ key) · hi(d ^ key)` per lane word `d` of a stripe, and
/// `d` itself to the neighbouring lane: where the low element of `d` equals
/// the low half of its key the product is 0 whatever the high element is,
/// so raising that element by one in one stripe and lowering it by one in
/// another stripe of the same block leaves every lane as it was.  The keys
/// are the hash's SplitMix64 outputs, stripe-major (`alpha_matrix::hash`).
fn fingerprint_colliding_pair() -> (alpha_matrix::CsrMatrix, alpha_matrix::CsrMatrix, usize) {
    const LANES: usize = 8;
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let keys: Vec<u64> = (0..16 * LANES)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    // A lane whose key's low half, read as a value, is a moderate finite
    // number in two stripes of the first block.
    let moderate = |key: u64| {
        let value = f32::from_bits(key as u32);
        value.is_normal() && (1e-20..1e20).contains(&value.abs())
    };
    let (lane, [up, down]) = (0..LANES)
        .find_map(|lane| {
            let mut stripes = (0..16).filter(|&s| moderate(keys[s * LANES + lane]));
            Some((lane, [stripes.next()?, stripes.next()?]))
        })
        .expect("some lane has two usable keys");
    // 64 × 64, eight entries per row: the 512 values are two blocks.
    let (rows, per_row) = (64, 8);
    let offsets: Vec<u32> = (0..=rows).map(|r| (r * per_row) as u32).collect();
    let columns: Vec<u32> = (0..rows)
        .flat_map(|r| (0..per_row).map(move |j| (j * 8 + r % 8) as u32))
        .collect();
    let mut values = vec![1.0f32; rows * per_row];
    for stripe in [up, down] {
        values[16 * stripe + 2 * lane] = f32::from_bits(keys[stripe * LANES + lane] as u32);
    }
    let mut shifted = values.clone();
    let [raised, lowered] = [up, down].map(|stripe| 16 * stripe + 2 * lane + 1);
    shifted[raised] = f32::from_bits(shifted[raised].to_bits() + 1);
    shifted[lowered] = f32::from_bits(shifted[lowered].to_bits() - 1);
    let build = |values| {
        alpha_matrix::CsrMatrix::from_raw(rows, 64, offsets.clone(), columns.clone(), values)
            .expect("valid CSR")
    };
    (build(values), build(shifted), raised)
}

#[test]
fn a_fingerprint_collision_is_never_answered_by_reference() {
    let (genuine, forged, entry) = fingerprint_colliding_pair();
    assert_ne!(genuine, forged);
    assert_eq!(
        genuine.fingerprint(),
        forged.fingerprint(),
        "the pair collides on the fast hash"
    );
    assert_ne!(genuine.digest(), forged.digest());
    // `x` picks the column of the entry that differs: every row of `y` is
    // then one stored value, exact under any summation order, and the row
    // of that entry tells the two matrices apart.
    let (row, column) = (entry / 8, genuine.col_indices()[entry] as usize);
    let mut x = vec![0.0f32; 64];
    x[column] = 1.0;
    let [genuine_y, forged_y] = [&genuine, &forged].map(|m| m.spmv(&x).expect("reference"));
    assert_ne!(genuine_y[row].to_bits(), forged_y[row].to_bits());

    let dir = temp_dir("digest_collision");
    let server = isolated_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    // One anonymous client uploads the forged matrix.  A later anonymous
    // client — the same tenant 0 — naming the genuine one is asked for it,
    // and its job computes the genuine `y`.
    let mut forger = Client::connect(addr).unwrap();
    let forged_job = forger.submit_tune(&forged, "A100").unwrap();
    forger.wait_job(forged_job, POLL, DEADLINE).unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    assert_eq!(
        exchange(&mut raw, &by_reference(&genuine, "A100")),
        Response::NeedMatrix
    );
    let mut client = Client::connect(addr).unwrap();
    let job = client.submit_tune(&genuine, "A100").unwrap();
    client.wait_job(job, POLL, DEADLINE).unwrap();
    assert_eq!(client.spmv(job, &x).unwrap(), genuine_y);

    // From then on each is answered by reference, with its own program.
    for (matrix, expected) in [(&genuine, &genuine_y), (&forged, &forged_y)] {
        let Response::Submitted { job_id } = exchange(&mut raw, &by_reference(matrix, "A100"))
        else {
            panic!("an uploaded matrix is a hit")
        };
        let y = client.spmv(job_id, &x).unwrap();
        assert_eq!(y[row].to_bits(), expected[row].to_bits());
        assert_eq!(&y, expected);
    }
    // Misses: the forged upload's first attempt, the raw probe and the
    // genuine upload's first attempt.
    assert_eq!(by_reference_outcomes(&mut client), (2, 3));
    drop((forger, raw, client));
    stop(server, &dir);
}

#[test]
fn a_burst_of_hits_does_not_evict_another_tenants_finished_job() {
    let dir = temp_dir("digest_burst");
    // Two terminal jobs are kept: without reuse, the second hit of a burst
    // would push tenant 2's finished job out of the table.
    let server = isolated_daemon(
        &dir,
        ServerConfig {
            max_terminal_jobs: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let (mut first, _) = Client::connect_as(addr, 1).unwrap();
    let (mut second, _) = Client::connect_as(addr, 2).unwrap();
    let burst_matrix = gen::powerlaw(128, 128, 4, 2.0, 51);
    let kept_matrix = gen::uniform_random(128, 96, 4, 52);
    let uploaded = first.submit_tune(&burst_matrix, "A100").unwrap();
    first.wait_job(uploaded, POLL, DEADLINE).unwrap();
    let kept = second.submit_tune(&kept_matrix, "A100").unwrap();
    let finished = second.wait_job(kept, POLL, DEADLINE).unwrap();

    // Tenant 1 resubmits at event-loop speed: one job answers every hit.
    let hits: std::collections::BTreeSet<u64> = (0..200)
        .map(|_| first.submit_tune(&burst_matrix, "A100").unwrap())
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(by_reference_outcomes(&mut first), (200, 2));
    // The hit job took the upload's slot; tenant 2's job is still there.
    assert_eq!(first.store_stats().unwrap().jobs_gced, 1);
    match second.poll_job(kept).unwrap() {
        JobState::Done(summary) => assert_eq!(summary, finished),
        other => panic!("tenant 2's finished job was evicted: {other:?}"),
    }
    let x = vec![1.0f32; 96];
    let y = second.spmv(kept, &x).expect("tenant 2's job still serves");
    let expected = kept_matrix.spmv(&x).expect("reference SpMV");
    assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);
    drop((first, second));
    stop(server, &dir);
}
