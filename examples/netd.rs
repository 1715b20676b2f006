//! netd: the tuning daemon end to end, in one process.
//!
//! Spawns an `alpha-net` daemon on a loopback port, then plays a realistic
//! serving day against it: **two concurrent clients** tune a 20-matrix
//! fleet (submitting over the wire, polling, running remote SpMV), and a
//! second wave re-submits the same fleet across *fresh connections* — every
//! one named by its content digest and answered on the daemon's event loop
//! with the program its first-wave job still holds, without the matrix
//! crossing the wire again and without a poll: one request per tune
//! (checked against the daemon's `net_tune_by_reference_total` and
//! `net_requests_total` counters; had those jobs been collected,
//! the client would upload and the stored winners in the daemon's warm
//! `DesignStore` would answer, with zero fresh kernel evaluations and no
//! search either way, per `serve_tune_total`).  It then reports which
//! executor answered each remote SpMV (`net_spmv_exec_total{path}`: the exec
//! pool for a request that was the daemon's only work, the exec worker's own
//! thread otherwise).  Ends with a clean client-initiated shutdown.
//!
//! ```text
//! cargo run --release --example netd
//! cargo run --release --example netd -- --metrics-addr 127.0.0.1:9184 --fleet 4
//! ```
//!
//! With `--metrics-addr` the daemon also serves `GET /metrics` (Prometheus
//! text exposition) over plain HTTP on the same event loop, and the run
//! ends with a self-scrape of the endpoint.  `--fleet N` sizes the matrix
//! fleet (default 20; CI smoke runs use a small N).

use alpha_suite::matrix::gen::PatternFamily;
use alpha_suite::matrix::CsrMatrix;
use alpha_suite::net::{Client, JobSummary, NetServer, ServerConfig};
use alpha_suite::search::SearchConfig;
use alpha_suite::serve::{DesignStore, TuningService};
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(600);

fn fleet(size: usize) -> Vec<CsrMatrix> {
    (0..size)
        .map(|i| {
            let family = PatternFamily::ALL[i % PatternFamily::ALL.len()];
            let rows = if i % 2 == 0 { 1_024 } else { 4_096 };
            family.generate(rows, 8, 9_000 + i as u64)
        })
        .collect()
}

/// One client's tune phase of a wave: submit each matrix (with backoff) and
/// wait for its job.  A job answered by reference is `Done` in the reply to
/// its submission, so its wait sends nothing.
fn tune_all(client: &mut Client, matrices: &[CsrMatrix]) -> Vec<(u64, JobSummary)> {
    matrices
        .iter()
        .map(|matrix| {
            let job = client
                .submit_tune_with_backoff(matrix, "A100", Duration::from_millis(10), DEADLINE)
                .expect("submission admitted");
            (
                job,
                client.wait_job(job, POLL, DEADLINE).expect("job finishes"),
            )
        })
        .collect()
}

/// One client's SpMV phase: prove each job's wire kernel computes the real
/// product.
fn verify_all(client: &mut Client, matrices: &[CsrMatrix], tuned: &[(u64, JobSummary)]) {
    for (matrix, (job, _)) in matrices.iter().zip(tuned) {
        let x = vec![1.0; matrix.cols()];
        let y = client.spmv(*job, &x).expect("remote SpMV runs");
        let reference = matrix.spmv(&x).expect("reference SpMV");
        let error = alpha_suite::matrix::max_scaled_error(&y, reference.as_slice());
        assert!(error <= 1e-4, "remote SpMV drifted: {error}");
    }
}

/// `--metrics-addr ADDR` and `--fleet N` from the command line; anything
/// else aborts with usage.
fn parse_args() -> (Option<std::net::SocketAddr>, usize) {
    let mut metrics_addr = None;
    let mut fleet_size = 20usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-addr" => {
                let value = args.next().expect("--metrics-addr needs an ADDR value");
                metrics_addr = Some(value.parse().expect("--metrics-addr must be host:port"));
            }
            "--fleet" => {
                let value = args.next().expect("--fleet needs a count");
                fleet_size = value.parse().expect("--fleet must be a positive integer");
                assert!(fleet_size >= 2, "--fleet needs at least 2 matrices");
            }
            other => panic!("unknown argument {other:?} (try --metrics-addr ADDR, --fleet N)"),
        }
    }
    (metrics_addr, fleet_size)
}

/// The value of one series — its name with its label set — in a scrape.
fn series(scrape: &str, series: &str) -> u64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("scrape has no {series}"))
}

/// `net_tune_by_reference_total{outcome}` as (hit, need_matrix).
fn by_reference(client: &mut Client) -> (u64, u64) {
    let scrape = client.metrics().expect("metrics frame");
    let outcome = |outcome: &str| {
        series(
            &scrape,
            &format!("net_tune_by_reference_total{{outcome=\"{outcome}\"}}"),
        )
    };
    (outcome("hit"), outcome("need_matrix"))
}

/// One blocking HTTP/1.0 GET against the daemon's metrics lane, returning
/// the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("scraper connects");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("scrape request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("scrape response reads");
    assert!(
        response.starts_with("HTTP/1.0 200 OK\r\n"),
        "GET {path} failed: {response}"
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

fn main() {
    let (metrics_addr, fleet_size) = parse_args();
    let store_dir = std::env::temp_dir().join(format!("alpha_netd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let service = TuningService::new(
        DesignStore::open(&store_dir).expect("store opens"),
        SearchConfig {
            max_iterations: 30,
            mutations_per_seed: 3,
            ..SearchConfig::default()
        },
    );
    let config = ServerConfig {
        metrics_addr,
        ..ServerConfig::default()
    };
    let server = NetServer::spawn("127.0.0.1:0", service, config).expect("daemon binds");
    let addr = server.local_addr();
    println!("daemon listening on {addr}");
    if let Some(metrics) = server.metrics_addr() {
        println!("metrics endpoint on http://{metrics}/metrics");
    }

    let matrices = fleet(fleet_size);
    let (left, right) = matrices.split_at(matrices.len() / 2);
    println!(
        "fleet: {} matrices ({} pattern families), two concurrent clients\n",
        matrices.len(),
        PatternFamily::ALL.len()
    );

    let mut client = Client::connect(addr).expect("observer client connects");
    // `net_requests_total` less this closure's own scrapes (each a request,
    // counted before it is answered): two readings with nothing else from
    // the observer between them differ by what the waves sent.
    let mut scrapes = 0;
    let mut requests = |client: &mut Client| {
        scrapes += 1;
        let total = series(
            &client.metrics().expect("metrics frame"),
            "net_requests_total",
        );
        total - scrapes
    };
    for wave in 1..=2 {
        let mut clients = [left, right].map(|_| Client::connect(addr).expect("client connects"));
        let before = by_reference(&mut client);
        let requests_before = requests(&mut client);
        let start = Instant::now();
        // Tune and wait on both clients at once, then count what that cost
        // on the wire before any SpMV is sent.
        let tuned: Vec<Vec<(u64, JobSummary)>> = std::thread::scope(|scope| {
            let shares = clients.iter_mut().zip([left, right]);
            let handles: Vec<_> = shares
                .map(|(c, share)| scope.spawn(move || tune_all(c, share)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let tune_requests = requests(&mut client) - requests_before;
        std::thread::scope(|scope| {
            for ((c, share), jobs) in clients.iter_mut().zip([left, right]).zip(&tuned) {
                scope.spawn(move || verify_all(c, share, jobs));
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let summaries = tuned.iter().flatten().map(|(_, summary)| summary);
        let fresh: u64 = summaries.clone().map(|s| s.fresh_evaluations).sum();
        let warm = summaries.filter(|s| s.warm_started).count();
        println!(
            "wave {wave}: {:>2} jobs in {wall:.2} s wall-clock",
            tuned.iter().map(Vec::len).sum::<usize>()
        );
        println!("  fresh kernel evaluations: {fresh}");
        println!("  warm-started searches:    {warm}");
        let after = by_reference(&mut client);
        let (hits, uploads) = (after.0 - before.0, after.1 - before.1);
        if wave == 1 {
            assert!(fresh > 0, "the cold wave must actually search");
            assert_eq!(uploads, matrices.len() as u64, "every cold tune uploads");
        } else {
            assert_eq!(
                fresh, 0,
                "the second wave must be served entirely from the warm store"
            );
            println!("  -> 100% of the wave served from the warm store, across fresh connections");
            // Every first-wave job still holds its program: each
            // resubmission is a digest, answered `Done` without an upload
            // and without a poll.
            assert_eq!(
                (hits, uploads),
                (matrices.len() as u64, 0),
                "every second-wave resubmission must be a hit by reference"
            );
            assert_eq!(
                tune_requests, hits,
                "a tune answered by reference is one request"
            );
            println!(
                "second wave: {hits} tunes answered by reference in {tune_requests} requests, \
                 {uploads} uploads"
            );
        }
    }

    let stats = client.store_stats().expect("stats frame");
    println!(
        "\ndaemon counters: {} submitted, {} completed, {} rejected (backpressure), {} GC'd",
        stats.jobs_submitted, stats.jobs_completed, stats.jobs_rejected, stats.jobs_gced
    );
    println!(
        "store tier: {} memory hits, {} disk loads, {} cold starts",
        stats.store_memory_hits, stats.store_disk_loads, stats.store_cold_starts
    );

    // Which path answered each tune, from the daemon's own registry: the
    // whole second wave must have been lookups — by digest on the event
    // loop, or in the tuning service of the program a first-wave job still
    // holds or of the stored winner.  A replayed search is a searched
    // context that lost its stored answer.
    let scrape = client.metrics().expect("metrics frame");
    let counter = |name: &str| series(&scrape, name);
    let answered = |path: &str| counter(&format!("serve_tune_total{{path=\"{path}\"}}"));
    let hits = counter("net_tune_by_reference_total{outcome=\"hit\"}");
    let (resident, stored) = (answered("resident"), answered("stored"));
    assert!(
        hits + resident + stored >= matrices.len() as u64,
        "second wave of {} tunes, but only {hits} + {resident} + {stored} answered by lookup",
        matrices.len()
    );
    assert_eq!(answered("replayed"), 0, "no tune may replay its search");
    println!(
        "{} tunes answered by lookup ({hits} by reference, {resident} resident programs, \
         {stored} stored winners; {} searched, 0 replayed)",
        hits + resident + stored,
        answered("searched")
    );
    // Which executor answered each remote SpMV: the exec pool when it was
    // the daemon's only work, its exec worker's own thread otherwise.  Each
    // wave ran one SpMV per matrix.
    let exec = |path: &str| counter(&format!("net_spmv_exec_total{{path=\"{path}\"}}"));
    let (pooled, inline) = (exec("pool"), exec("inline"));
    assert_eq!(
        pooled + inline,
        2 * matrices.len() as u64,
        "every remote SpMV runs on exactly one path"
    );
    println!("remote SpMVs: {pooled} on the exec pool, {inline} inline beside other work");

    if let Some(metrics) = server.metrics_addr() {
        let body = http_get(metrics, "/metrics");
        let lines = body.lines().count();
        println!("\nself-scrape of http://{metrics}/metrics: {lines} samples, e.g.");
        for prefix in [
            "net_requests_total",
            "net_tune_exec_us_count",
            "serve_store_",
        ] {
            if let Some(line) = body.lines().find(|l| l.starts_with(prefix)) {
                println!("  {line}");
            }
        }
        assert!(
            body.lines().any(|l| l.starts_with("net_requests_total")),
            "scrape must carry the wire-level families"
        );
        // The flight recorder rides the same lane: its dump must already
        // hold the stages of the traffic the waves produced.
        let dump = http_get(metrics, "/debug/flightrec");
        for stage in [
            "net.admitted",
            "net.queue_wait",
            "net.tune_exec",
            "net.exec",
            "net.request",
        ] {
            assert!(
                dump.contains(&format!("\"name\": \"{stage}\"")),
                "flight recorder saw no {stage} event after two waves"
            );
        }
        let events = dump.matches("\"ph\": \"X\"").count();
        println!("flight recorder: {events} buffered events at http://{metrics}/debug/flightrec");
    }

    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();
    println!("\nclean shutdown: accept loop, workers and connections all joined");

    let _ = std::fs::remove_dir_all(&store_dir);
}
