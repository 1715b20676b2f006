//! One traced conversation with a live daemon, stitched into a Chrome trace.
//!
//! A binary of its own: `enable_tracing` / `drain_spans` act on a
//! process-global span ring, which the daemon tests of `daemon.rs` would
//! otherwise share.

use alpha_matrix::gen::PatternFamily;
use alpha_net::{Client, NetServer, ServerConfig};
use alpha_serve::{DesignStore, TuningService};
use alphasparse::SearchConfig;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The spans one fully traced tune request must show, client submit to
/// server reply.
const TUNE_TRACE_STAGES: [&str; 5] = [
    "client.submit",
    "net.admission",
    "net.queue_wait",
    "net.tune_exec",
    "net.reply",
];

/// The spans a tune answered by reference must show: the daemon's event
/// loop admits it and replies, and no queue or tuning worker is involved.
const HIT_TRACE_STAGES: [&str; 3] = ["client.submit_ref", "net.admission", "net.reply"];

const POLL: Duration = Duration::from_millis(2);
const DEADLINE: Duration = Duration::from_secs(120);

#[test]
fn a_tune_request_is_traced_from_client_submit_to_server_reply() {
    let dir = std::env::temp_dir().join(format!("alpha_net_traced_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    alpha_telemetry::enable_tracing(65_536);

    let service = TuningService::new(
        DesignStore::open_with_registry(&dir, alpha_telemetry::Registry::new())
            .expect("store opens"),
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 3,
            ..SearchConfig::default()
        },
    );
    let server = NetServer::spawn(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 2,
            // Pin every traced request's flight events: this run exists to
            // produce attribution, not to sample it.
            slow_request_us: 1,
            ..ServerConfig::default()
        },
    )
    .expect("daemon binds");
    let flightrec = server.flight_recorder().clone();

    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let mut summaries = Vec::new();
    // The last matrix is large enough that identifying it (a pass over its
    // 32 k non-zeros) is a visible part of serving it.
    let mut matrix = None;
    for (i, rows) in [96, 96, 96, 4096].into_iter().enumerate() {
        let family = PatternFamily::ALL[i % PatternFamily::ALL.len()];
        let matrix =
            matrix.insert(family.generate(rows, if rows == 96 { 4 } else { 8 }, 31_000 + i as u64));
        let job = client
            .submit_tune_with_backoff(matrix, "A100", POLL, DEADLINE)
            .expect("admitted");
        summaries.push((job, client.wait_job(job, POLL, DEADLINE).expect("tunes")));
        let x = vec![1.0f32; matrix.cols()];
        let y = client.spmv(job, &x).expect("remote SpMV runs");
        let expected = matrix.spmv(&x).expect("reference SpMV");
        assert!(alpha_matrix::max_scaled_error(&y, expected.as_slice()) <= 1e-5);
    }
    // Submitted again, the last matrix is a by-reference hit.
    let repeat = client
        .submit_tune(matrix.as_ref().expect("four matrices tuned"), "A100")
        .expect("admitted");
    let hit = client
        .wait_job(repeat, POLL, DEADLINE)
        .expect("a hit is Done");
    assert_eq!(hit.fresh_evaluations, 0);

    // One fetch drains the shared ring.  In-process, client- and server-side
    // spans land in the *same* ring, so the fetch returns both halves and
    // the `client.` name prefix partitions them by origin; over a real wire
    // the fetch would return only the server half and a local
    // `drain_spans` the client half.
    let fetch = client.fetch_trace().expect("trace frame");
    let (client_spans, server_spans): (Vec<_>, Vec<_>) = fetch
        .spans
        .iter()
        .cloned()
        .partition(|s| s.name.starts_with("client."));
    let stitched =
        alpha_telemetry::stitch_chrome_trace(&client_spans, &server_spans, fetch.clock_offset_us());
    // Kept under the target directory so it can be opened in Perfetto.
    let artifact = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced.json");
    std::fs::write(&artifact, &stitched).expect("artifact writes");

    // The stitched array holds both halves of the conversation...
    assert!(stitched.starts_with("[\n") && stitched.ends_with("]\n"));
    assert!(!client_spans.is_empty() && !server_spans.is_empty());
    assert_eq!(stitched.matches("\"pid\": 1,").count(), client_spans.len());
    assert_eq!(stitched.matches("\"pid\": 2,").count(), server_spans.len());

    // What a job reports about itself is what its spans say: time in the
    // queue, then everything the tuning worker did for it — identifying the
    // matrix included.
    for (job, summary) in &summaries {
        let span_us = |name: &str| -> f64 {
            let of_job = |s: &&alpha_telemetry::OwnedSpan| {
                s.name == name && s.arg == Some(("job".to_string(), *job))
            };
            let span = server_spans.iter().find(of_job);
            span.unwrap_or_else(|| panic!("job {job} has no {name} span"))
                .dur_us as f64
        };
        let reported_us = (summary.queue_wait_secs + summary.wall_secs) * 1e6;
        let spans_us = span_us("net.queue_wait") + span_us("net.tune_exec");
        assert!(
            (reported_us - spans_us).abs() <= 500.0,
            "job {job} reports {reported_us:.0} us, its spans cover {spans_us:.0} us"
        );
    }

    // ...and at least one trace id names every stage of a tune request.
    let mut stages_by_trace: HashMap<u64, HashSet<&str>> = HashMap::new();
    for span in fetch.spans.iter().filter(|s| s.trace_id != 0) {
        stages_by_trace
            .entry(span.trace_id)
            .or_default()
            .insert(span.name.as_str());
    }
    let complete = stages_by_trace
        .values()
        .filter(|names| TUNE_TRACE_STAGES.iter().all(|stage| names.contains(stage)))
        .count();
    assert!(
        complete >= 1,
        "no trace id covers {TUNE_TRACE_STAGES:?}: {stages_by_trace:?}"
    );
    // The hit's trace id, from the flight event that admitted its job,
    // covers admission and reply on the event loop and nothing else.
    let hit_trace = flightrec
        .snapshot()
        .into_iter()
        .find(|e| e.job_id == repeat && e.class == "tune_ref")
        .expect("the hit's admission was recorded")
        .trace_id;
    let hit_stages = &stages_by_trace[&hit_trace];
    assert!(
        HIT_TRACE_STAGES
            .iter()
            .all(|stage| hit_stages.contains(stage)),
        "the hit's trace misses a stage of {HIT_TRACE_STAGES:?}: {hit_stages:?}"
    );
    assert!(
        !hit_stages.contains("net.queue_wait") && !hit_stages.contains("net.tune_exec"),
        "a hit never queues or tunes: {hit_stages:?}"
    );

    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();
    alpha_telemetry::disable_tracing();
    let _ = std::fs::remove_dir_all(&dir);

    // The flight recorder attributes the slowest request's latency to its
    // stages, and that request is one this client sent.
    let slow = flightrec
        .slowest_trace()
        .expect("a traced request completed inside the recorder's window");
    assert!(stages_by_trace.contains_key(&slow.trace_id));
    assert!(slow.effective_total() > 0);
    assert_eq!(
        slow.effective_total(),
        slow.queue_wait_us + slow.exec_us + slow.unattributed_us()
    );
}
