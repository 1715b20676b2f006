//! Structured protocol fuzzing against a live daemon.
//!
//! A seeded corpus of valid frames is mutated — bit flips, length-field
//! tampering, truncation at every byte offset, duplicated frames,
//! interleaved partial frames across two connections — and thrown at the
//! event-loop server.  The daemon must answer every mutation with a typed
//! error or a clean close: never a panic, never a hang, and never a leaked
//! job-table entry (checked with `StoreStats` before/after).

use alpha_matrix::gen;
use alpha_net::proto::{
    decode_request_traced, decode_response, encode_request_traced, encode_response, read_frame,
    write_frame, Request, Response, MAX_FRAME_LEN, NET_MAGIC, PROTOCOL_VERSION,
};
use alpha_net::{Client, NetServer, ServerConfig};
use alpha_serve::{DesignStore, TuningService};
use alphasparse::SearchConfig;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

const POLL: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alpha_fuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(dir: &PathBuf, config: ServerConfig) -> NetServer {
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

fn stop(server: NetServer, dir: &PathBuf) {
    let mut client = Client::connect(server.local_addr()).expect("connects for shutdown");
    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

/// Deterministic xorshift64* stream for reproducible mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Raw frame bytes (header + payload) for a request payload.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16 + payload.len());
    write_frame(&mut bytes, payload).expect("corpus payloads fit the cap");
    bytes
}

/// A valid by-reference submission payload (no daemon holds its program).
fn by_reference_payload() -> Vec<u8> {
    let matrix = gen::uniform_random(24, 24, 3, 9);
    encode_request_traced(
        0,
        &Request::SubmitTuneRef {
            digest: matrix.digest(),
            rows: 24,
            cols: 24,
            nnz: matrix.nnz() as u64,
            device: "TestGPU".to_string(),
        },
    )
}

/// The seeded corpus: one valid payload per request family the fuzzer may
/// mutate, plus a `NeedMatrix` answer arriving where a request belongs.
/// `Shutdown` is deliberately absent — it is a *valid* request, and a mutant
/// that happens to decode as one would end the daemon under test rather
/// than exercise its robustness.
fn corpus() -> Vec<Vec<u8>> {
    vec![
        encode_request_traced(0, &Request::StoreStats),
        encode_request_traced(0, &Request::TenantStats),
        encode_request_traced(0, &Request::Hello { client_id: 42 }),
        encode_request_traced(0, &Request::PollJob { job_id: 7 }),
        encode_request_traced(
            0,
            &Request::Spmv {
                job_id: 3,
                x: vec![1.0; 16],
            },
        ),
        encode_request_traced(
            0,
            &Request::SubmitTune {
                matrix: gen::uniform_random(24, 24, 3, 9),
                device: "TestGPU".to_string(),
            },
        ),
        by_reference_payload(),
        [0u8; 8]
            .into_iter()
            .chain(encode_response(&Response::NeedMatrix))
            .collect(),
    ]
}

/// Sends raw bytes on a fresh connection and reads one frame back with a
/// timeout.  Returns the decoded response, or `None` for a clean
/// close/timeout-free error.  Panics only if the daemon wedges (read
/// timeout = the daemon neither answered nor closed).
fn probe(addr: SocketAddr, bytes: &[u8], expect_activity: bool) -> Option<Response> {
    let mut raw = TcpStream::connect(addr).expect("daemon accepts");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    if raw.write_all(bytes).is_err() {
        return None; // Daemon already closed on us mid-write: a clean close.
    }
    match read_frame(&mut raw) {
        Ok(payload) => Some(
            decode_response(&payload)
                .expect("whatever the daemon answers must decode as a valid response"),
        ),
        Err(e) => {
            if expect_activity {
                let msg = e.to_string();
                assert!(
                    !msg.contains("timed out") && !msg.contains("WouldBlock"),
                    "daemon neither answered nor closed: {msg}"
                );
            }
            None
        }
    }
}

#[test]
fn mutated_frames_yield_typed_errors_or_clean_closes_and_leak_nothing() {
    let dir = temp_dir("mutants");
    let server = spawn_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let corpus = corpus();
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    let mut observed_submissions = 0u64;

    for round in 0..200u64 {
        let payload = &corpus[(round as usize) % corpus.len()];
        let mut mutated = payload.clone();
        for _ in 0..1 + rng.next() % 4 {
            let at = (rng.next() as usize) % mutated.len();
            mutated[at] ^= (rng.next() % 255 + 1) as u8;
        }
        // A mutant that decodes as a *valid* Shutdown would legitimately
        // stop the daemon — skip it; every other mutant is fair game.
        if matches!(decode_request_traced(&mutated), Ok((_, Request::Shutdown))) {
            continue;
        }
        if let Some(response) = probe(addr, &framed(mutated.as_slice()), false) {
            match response {
                Response::Error { .. }
                | Response::Status { .. }
                | Response::Stats(_)
                | Response::Welcome { .. }
                | Response::Tenants(_)
                | Response::Busy { .. }
                | Response::MetricsText { .. }
                | Response::NeedMatrix
                | Response::SpmvResult { .. } => {}
                Response::Submitted { .. } => observed_submissions += 1,
                Response::TraceSpans { .. } => {}
                Response::ShuttingDown => panic!("no mutant may shut the daemon down"),
            }
        }
    }

    // Every admitted mutant drains to a terminal record; nothing else may
    // survive in the job table.
    let mut client = Client::connect(addr).expect("daemon is alive after the fuzz");
    let stats = loop {
        let stats = client.store_stats().expect("stats after fuzz");
        if stats.queue_depth == 0 && stats.jobs_resident == stats.jobs_submitted {
            break stats;
        }
        std::thread::sleep(POLL);
    };
    assert_eq!(
        stats.jobs_submitted, observed_submissions,
        "the job table must track exactly the submissions the fuzzer saw admitted"
    );

    // And the daemon still does real work.
    let matrix = gen::powerlaw(96, 96, 4, 2.0, 5);
    let job = client.submit_tune(&matrix, "A100").expect("still admits");
    client.wait_job(job, POLL, DEADLINE).expect("still tunes");
    stop(server, &dir);
}

#[test]
fn truncation_at_every_byte_offset_leaks_nothing() {
    let dir = temp_dir("truncate");
    let server = spawn_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let upload = framed(&encode_request_traced(
        0,
        &Request::SubmitTune {
            matrix: gen::uniform_random(8, 8, 2, 3),
            device: "TestGPU".to_string(),
        },
    ));

    // Cut each valid submission frame — the upload and the by-reference one
    // — at every byte boundary and vanish: 0 bytes (bare connect),
    // mid-header, exactly-header, mid-payload, one-short-of-complete.  None
    // of these may admit a job.
    for frame in [upload, framed(&by_reference_payload())] {
        for offset in 0..frame.len() {
            let mut raw = TcpStream::connect(addr).expect("daemon accepts");
            raw.write_all(&frame[..offset]).expect("partial write");
            drop(raw);
        }
    }

    let mut client = Client::connect(addr).expect("daemon alive after truncation storm");
    let stats = client.store_stats().expect("stats frame");
    assert_eq!(stats.jobs_submitted, 0, "no truncated frame may admit work");
    assert_eq!(stats.jobs_resident, 0, "no job-table entries may leak");
    assert_eq!(stats.queue_depth, 0);
    let matrix = gen::powerlaw(64, 64, 4, 2.0, 7);
    let job = client.submit_tune(&matrix, "A100").expect("still admits");
    client.wait_job(job, POLL, DEADLINE).expect("still tunes");
    stop(server, &dir);
}

#[test]
fn length_field_tampering_gets_a_typed_error_or_clean_close() {
    let dir = temp_dir("lengths");
    // A short frame deadline: a length that promises more bytes than come
    // is torn down by the slow-loris sweep instead of idling out the probe.
    let server = spawn_daemon(
        &dir,
        ServerConfig {
            frame_deadline: Duration::from_secs(1),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    for payload in [
        encode_request_traced(0, &Request::PollJob { job_id: 1 }),
        by_reference_payload(),
    ] {
        // Claimed lengths the header can lie with: zero, short,
        // long-but-legal, over the cap, and absurd.  (A *smaller* length
        // makes the daemon parse the payload tail as a next header —
        // framing lost, clean close; a larger one leaves it waiting for
        // bytes that never come, which the slow-loris deadline owns.)
        let lies: [u64; 5] = [
            0,
            payload.len() as u64 - 1,
            payload.len() as u64 + 1,
            MAX_FRAME_LEN + 1,
            u64::MAX,
        ];
        for lie in lies {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&NET_MAGIC);
            bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            bytes.extend_from_slice(&lie.to_le_bytes());
            bytes.extend_from_slice(&payload);
            if let Some(response) = probe(addr, &bytes, false) {
                assert!(
                    matches!(response, Response::Error { .. } | Response::Status { .. }),
                    "a length lie of {lie} must answer a typed frame, got {response:?}"
                );
            }
        }
    }

    let mut client = Client::connect(addr).expect("daemon alive after tampering");
    let stats = client.store_stats().expect("stats frame");
    assert_eq!(stats.jobs_submitted, 0);
    let matrix = gen::powerlaw(64, 64, 4, 2.0, 6);
    let job = client.submit_tune(&matrix, "A100").expect("still admits");
    client.wait_job(job, POLL, DEADLINE).expect("still tunes");
    stop(server, &dir);
}

#[test]
fn duplicated_and_pipelined_frames_answer_in_order() {
    let dir = temp_dir("pipeline");
    let server = spawn_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();

    // Three frames in one write — a duplicated poll plus a stats request.
    // The event loop must answer all three, in order, on one connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut burst = Vec::new();
    burst.extend_from_slice(&framed(&encode_request_traced(
        0,
        &Request::PollJob { job_id: 9 },
    )));
    burst.extend_from_slice(&framed(&encode_request_traced(
        0,
        &Request::PollJob { job_id: 9 },
    )));
    burst.extend_from_slice(&framed(&encode_request_traced(0, &Request::StoreStats)));
    raw.write_all(&burst).unwrap();

    for expected_poll in [true, true, false] {
        let payload = read_frame(&mut raw).expect("pipelined response");
        let response = decode_response(&payload).expect("decodes");
        if expected_poll {
            assert!(
                matches!(response, Response::Status { job_id: 9, .. }),
                "expected a poll answer, got {response:?}"
            );
        } else {
            assert!(
                matches!(response, Response::Stats(_)),
                "expected stats, got {response:?}"
            );
        }
    }
    stop(server, &dir);
}

#[test]
fn interleaved_partial_frames_across_connections_stay_isolated() {
    let dir = temp_dir("interleave");
    let server = spawn_daemon(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let frame_a = framed(&encode_request_traced(0, &Request::PollJob { job_id: 11 }));
    let frame_b = framed(&encode_request_traced(0, &Request::StoreStats));

    // A sends half a frame and stalls; B's complete frame must be answered
    // while A is mid-frame; then A finishes and gets its own answer.
    // Per-connection reassembly state must never bleed across sockets.
    let mut conn_a = TcpStream::connect(addr).unwrap();
    conn_a
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conn_b = TcpStream::connect(addr).unwrap();
    conn_b
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let split = frame_a.len() / 2;
    conn_a.write_all(&frame_a[..split]).unwrap();

    conn_b.write_all(&frame_b).unwrap();
    let payload = read_frame(&mut conn_b).expect("B answered while A is mid-frame");
    assert!(matches!(
        decode_response(&payload).expect("decodes"),
        Response::Stats(_)
    ));

    conn_a.write_all(&frame_a[split..]).unwrap();
    let payload = read_frame(&mut conn_a).expect("A answered after completing its frame");
    assert!(matches!(
        decode_response(&payload).expect("decodes"),
        Response::Status { job_id: 11, .. }
    ));
    stop(server, &dir);
}
