//! Subjects: the serving tier, warm and mixed.
//!
//! **Warm** — an in-process daemon over a store that already holds the fleet:
//! closed-loop connections alternate one warm tune (submit until `Done`) with
//! a burst of remote SpMVs.  `alpha-serve` store lookup/decode, `alpha-net`
//! proto/reactor/admission and the rebuild-from-winner path dominate; search
//! does nothing and the kernel is a fraction of a remote call.
//!
//! **Mixed** — a fresh daemon and store: one writer connection submits cold
//! tunes of new matrices back to back while one reader connection runs
//! closed-loop remote SpMV over resident jobs.  Writes beside reads through
//! the same daemon, store and worker pools: a gain for remote SpMV that
//! starves tuning (or the reverse), store persist cost and warm-start from
//! stored winners only show here.

use crate::fleet::{self, timed_calls, Subject};
use crate::metrics::Report;
use crate::prom;
use crate::scale::{
    share, BUSY_BACKOFF, DEVICE, JOB_POLL, MIXED_RESIDENT_SEED_OFFSET, MIXED_WRITER_SEED_OFFSET,
    OP_DEADLINE, WARM_SEED_OFFSET,
};
use crate::stats::{median, percentile};
use crate::trace::ThreadTrace;
use crate::Ctx;
use alpha_matrix::gen::PatternFamily;
use alpha_net::proto::{self, Request, Response};
use alpha_net::{Client, JobSummary, NetError, NetServer, ServerConfig, ServerStats};
use alpha_search::DesignCache;
use alpha_serve::{DesignStore, TuneRequest, TuningService};
use alphasparse::{DeviceProfile, SearchConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

fn service_config(ctx: &Ctx<'_>) -> SearchConfig {
    SearchConfig {
        max_iterations: ctx.sizes.serve_budget,
        mutations_per_seed: ctx.sizes.serve_mutations,
        ..SearchConfig::default()
    }
}

/// An in-process daemon over its own store directory.  Dropping it shuts the
/// daemon down, joins its threads and removes the directory — on the failure
/// paths too.
pub struct Daemon {
    server: Option<NetServer>,
    pub addr: SocketAddr,
    pub dir: PathBuf,
}

impl Daemon {
    fn start(ctx: &Ctx<'_>, name: &str) -> Result<Daemon, String> {
        let dir = ctx.scratch.join(name);
        // A registry of its own, so that `Client::metrics()` of one daemon does
        // not carry the other daemon's `net_spmv_latency_us`.
        let store = DesignStore::open_with_registry(&dir, alpha_telemetry::Registry::new())
            .map_err(|e| format!("store {}: {e}", dir.display()))?;
        let service = TuningService::new(store, service_config(ctx));
        let server = NetServer::spawn("127.0.0.1:0", service, ServerConfig::default())
            .map_err(|e| format!("daemon: {e}"))?;
        Ok(Daemon {
            addr: server.local_addr(),
            server: Some(server),
            dir,
        })
    }

    /// Shuts the daemon down and joins it; the store directory stays.
    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
        // Best effort: a leftover directory is inside the checkout's ignored
        // output directory.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `Busy` answers absorbed by retrying, across both serving subjects.
#[derive(Default)]
pub struct Retries(AtomicU64);

/// One remote tune as the client saw it.  Times are milliseconds at the
/// reference host speed, the daemon's own (`JobSummary`) included.
struct RemoteTune {
    job: u64,
    /// Submit until `Done`.
    client_ms: f64,
    queue_wait_ms: f64,
    exec_ms: f64,
    fresh_evaluations: u64,
    warm_started: bool,
}

/// Submits `subject`'s matrix and waits for `Done`.  One operation.
fn remote_tune(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    client: &mut Client,
    retries: &Retries,
    subject: &Subject,
) -> Option<RemoteTune> {
    let op = ctx.ops.attempt();
    trace.enter("op.remote_tune", op);
    let (submitted, submit_secs) = trace.timed("net.submit_tune", op, || {
        client.submit_tune_counting_backoff(&subject.matrix, DEVICE, BUSY_BACKOFF, OP_DEADLINE)
    });
    let outcome = submitted.and_then(|(job, busy)| {
        retries.0.fetch_add(busy, Ordering::Relaxed);
        let (summary, wait_secs) = trace.timed("net.wait_job", op, || {
            client.wait_job(job, JOB_POLL, OP_DEADLINE)
        });
        let summary: JobSummary = summary?;
        let speed = ctx.tracer.speed().factor();
        Ok(RemoteTune {
            job,
            client_ms: (submit_secs + wait_secs) * 1e3,
            queue_wait_ms: summary.queue_wait_secs * speed * 1e3,
            exec_ms: summary.wall_secs * speed * 1e3,
            fresh_evaluations: summary.fresh_evaluations,
            warm_started: summary.warm_started,
        })
    });
    trace.leave();
    outcome
        .map_err(|e| {
            ctx.ops
                .fail(&format!("remote tune of {}: {e}", subject.name()))
        })
        .ok()
}

/// One checked remote SpMV; returns the client-observed round trip in
/// microseconds, `Busy` retries included.  One operation.
fn remote_spmv(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    client: &mut Client,
    retries: &Retries,
    job: u64,
    subject: &Subject,
) -> Option<f64> {
    let op = ctx.ops.attempt();
    let start = Instant::now();
    let mut total_secs = 0.0;
    loop {
        let (result, secs) = trace.timed("net.client_spmv", op, || client.spmv(job, &subject.x));
        total_secs += secs;
        match result {
            Ok(y) => {
                ctx.ops.check("remote SpMV", &y, &subject.y_ref);
                return Some(total_secs * 1e6);
            }
            Err(NetError::Busy { retry_after_ms, .. }) if start.elapsed() < OP_DEADLINE => {
                retries.0.fetch_add(1, Ordering::Relaxed);
                let pause = std::time::Duration::from_millis(retry_after_ms).max(BUSY_BACKOFF);
                std::thread::sleep(pause);
                total_secs += pause.as_secs_f64();
            }
            Err(e) => {
                ctx.ops
                    .fail(&format!("remote SpMV on {}: {e}", subject.name()));
                return None;
            }
        }
    }
}

/// Tunes `fleet` cold through the daemon over one connection.
fn tune_fleet(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    daemon: &Daemon,
    retries: &Retries,
    fleet: &[Subject],
) -> Result<Vec<u64>, String> {
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    Ok(fleet
        .iter()
        .filter_map(|subject| remote_tune(ctx, trace, &mut client, retries, subject))
        .map(|tune| tune.job)
        .collect())
}

/// The `wanted` percentile, with a note when the sample count only supports
/// a lower one.
fn tail(report: &mut Report, name: &str, samples: &[f64], wanted: f64) -> f64 {
    let (value, used) = percentile(samples, wanted);
    if used < wanted && !samples.is_empty() {
        report.note(format!(
            "{name}: {} samples support p{:.1}, reported in place of p{:.0}",
            samples.len(),
            used * 100.0,
            wanted * 100.0
        ));
    }
    value
}

// ---------------------------------------------------------------------------
// Warm
// ---------------------------------------------------------------------------

pub struct Warm {
    /// The closed-loop connections, kept open across the rounds.  Declared
    /// before the daemon so they close before it shuts down.
    clients: Vec<Client>,
    daemon: Daemon,
    fleet: Vec<Subject>,
    /// The warm tunes, in submission order.
    tunes: Vec<RemoteTune>,
    spmv_us: Vec<f64>,
    /// The daemon's own counters and metrics text after the timed phase.
    stats: Option<ServerStats>,
    metrics_text: String,
}

pub fn warm_setup(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    retries: &Retries,
) -> Result<Warm, String> {
    let daemon = Daemon::start(ctx, "warm-store")?;
    let fleet = fleet::fleet(
        trace,
        &PatternFamily::ALL,
        ctx.sizes.warm_fleet,
        ctx.sizes.serve_rows,
        ctx.sizes.serve_row_len,
        ctx.seed + WARM_SEED_OFFSET,
    );
    tune_fleet(ctx, trace, &daemon, retries, &fleet)?;
    let clients = (0..ctx.connections)
        .map(|_| Client::connect(daemon.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Warm {
        daemon,
        fleet,
        clients,
        tunes: Vec::new(),
        spmv_us: Vec::new(),
        stats: None,
        metrics_text: String::new(),
    })
}

/// What one closed-loop connection measured.
#[derive(Default)]
struct ConnectionSamples {
    tunes: Vec<RemoteTune>,
    spmv_us: Vec<f64>,
}

/// The warm-serving operations of one round: every connection runs its share
/// of iterations, concurrently with the others.
pub fn warm_round(ctx: &Ctx<'_>, warm: &mut Warm, retries: &Retries, round: usize) {
    let (iterations, before) = share(ctx.counts.warm_iterations, round);
    let fleet = &warm.fleet;
    let per_connection: Vec<ConnectionSamples> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .clients
            .iter_mut()
            .enumerate()
            .map(|(connection, client)| {
                scope.spawn(move || {
                    let mut trace = ctx.tracer.thread();
                    let mut samples = ConnectionSamples::default();
                    for iteration in before..before + iterations {
                        let subject =
                            &fleet[(connection + iteration * ctx.connections) % fleet.len()];
                        let Some(tune) = remote_tune(ctx, &mut trace, client, retries, subject)
                        else {
                            continue;
                        };
                        if tune.fresh_evaluations != 0 {
                            ctx.ops.fail(&format!(
                                "warm tune of {} cost {} fresh evaluations",
                                subject.name(),
                                tune.fresh_evaluations
                            ));
                        }
                        for _ in 0..ctx.counts.warm_spmv {
                            samples.spmv_us.extend(remote_spmv(
                                ctx, &mut trace, client, retries, tune.job, subject,
                            ));
                        }
                        samples.tunes.push(tune);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });

    // Iteration k of every connection ran concurrently: interleave by k so
    // "first" and "last" mean the order the daemon saw.
    let mut per_connection: Vec<(std::vec::IntoIter<RemoteTune>, Vec<f64>)> = per_connection
        .into_iter()
        .map(|c| (c.tunes.into_iter(), c.spmv_us))
        .collect();
    loop {
        let before = warm.tunes.len();
        for (tunes, _) in &mut per_connection {
            warm.tunes.extend(tunes.next());
        }
        if warm.tunes.len() == before {
            break;
        }
    }
    warm.spmv_us
        .extend(per_connection.into_iter().flat_map(|c| c.1));
}

/// Reads the daemon's own counters and metrics text once the rounds are over.
pub fn warm_finish(warm: &mut Warm) {
    if let Some(client) = warm.clients.first_mut() {
        warm.stats = client.store_stats().ok();
        warm.metrics_text = client.metrics().unwrap_or_default();
    }
}

impl Warm {
    fn tune_ms(&self) -> Vec<f64> {
        self.tunes.iter().map(|t| t.client_ms).collect()
    }
}

pub fn warm_end_to_end(warm: &Warm, report: &mut Report) {
    report.set("warm_tune_ms_p50", median(&warm.tune_ms()));
    report.set("remote_spmv_us_p50", median(&warm.spmv_us));
    let p90 = tail(report, "remote_spmv_us_p90", &warm.spmv_us, 0.90);
    report.set("remote_spmv_us_p90", p90);
}

/// Median microseconds of `reps` calls of `f`, after a fresh reading of the
/// host's speed.
fn median_us<R>(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    span: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    ctx.tracer.refresh_speed();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (result, secs) = trace.timed(span, 0, &mut f);
            std::hint::black_box(result);
            secs * 1e6
        })
        .collect();
    median(&samples)
}

/// Codec cost on the workload's real payloads.
fn codec_layers(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    subject: &Subject,
    report: &mut Report,
) {
    let reps = ctx.sizes.probe_calls;
    let spmv_request = Request::Spmv {
        job_id: 1,
        x: subject.x.clone(),
    };
    let spmv_response = Response::SpmvResult {
        y: subject.y_ref.clone(),
    };
    let submit = Request::SubmitTune {
        matrix: subject.matrix.clone(),
        device: DEVICE.to_string(),
    };
    let request_bytes = proto::encode_request(&spmv_request);
    let response_bytes = proto::encode_response(&spmv_response);
    let submit_bytes = proto::encode_request(&submit);
    report.set(
        "net.encode_spmv_request_us",
        median_us(ctx, trace, "net.encode_request", reps, || {
            proto::encode_request(&spmv_request)
        }),
    );
    report.set(
        "net.decode_spmv_request_us",
        median_us(ctx, trace, "net.decode_request", reps, || {
            proto::decode_request(&request_bytes)
        }),
    );
    report.set(
        "net.encode_spmv_response_us",
        median_us(ctx, trace, "net.encode_response", reps, || {
            proto::encode_response(&spmv_response)
        }),
    );
    report.set(
        "net.decode_spmv_response_us",
        median_us(ctx, trace, "net.decode_response", reps, || {
            proto::decode_response(&response_bytes)
        }),
    );
    report.set(
        "net.encode_submit_us",
        median_us(ctx, trace, "net.encode_request", reps, || {
            proto::encode_request(&submit)
        }),
    );
    report.set(
        "net.decode_submit_us",
        median_us(ctx, trace, "net.decode_request", reps, || {
            proto::decode_request(&submit_bytes)
        }),
    );
    // Payload bytes of one remote SpMV, request plus response.
    report.set(
        "net.spmv_frame_bytes",
        (request_bytes.len() + response_bytes.len()) as f64,
    );
    report.set("net.submit_frame_bytes", submit_bytes.len() as f64);
}

/// Store calls timed on the directory the daemon warmed (the daemon is
/// stopped; same-process reopens of a store are allowed).
fn store_layers(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    warm: &Warm,
    report: &mut Report,
) -> Result<(), String> {
    let reps = ctx.sizes.probe_calls;
    let dir = &warm.daemon.dir;
    let open = || DesignStore::open(dir).map_err(|e| format!("reopen store: {e}"));
    open()?;
    report.set(
        "serve.store_open_ms",
        median_us(ctx, trace, "serve.store_open", reps, || {
            DesignStore::open(dir).is_ok()
        }) / 1e3,
    );

    // The same pipeline in-process: the first pass loads every context from
    // disk, the second is the memory-tier path the daemon's warm tunes take.
    let service = TuningService::new(open()?, service_config(ctx));
    let requests: Vec<TuneRequest> = warm
        .fleet
        .iter()
        .map(|s| TuneRequest::new(s.matrix.clone(), DeviceProfile::a100()))
        .collect();
    let mut inproc_ms = Vec::new();
    let mut local_us = Vec::new();
    let mut keys = Vec::new();
    for pass in 0..2 {
        for (request, subject) in requests.iter().zip(&warm.fleet) {
            let op = ctx.ops.attempt();
            ctx.tracer.refresh_speed();
            let (mut served, secs) = trace.timed("serve.tune_batch", op, || {
                service.tune_batch(std::slice::from_ref(request))
            });
            let served = match served.pop() {
                Some(Ok(served)) => served,
                Some(Err(e)) => {
                    ctx.ops.fail(&format!("in-process warm tune: {e}"));
                    continue;
                }
                None => {
                    ctx.ops.fail("in-process warm tune: empty batch result");
                    continue;
                }
            };
            if pass == 0 {
                keys.push(served.context_key);
                continue;
            }
            inproc_ms.push(secs * 1e3);
            // The same design the daemon serves, run without the wire.
            let kernel = served.tuned.native_kernel();
            let mut y = vec![0.0; subject.matrix.rows()];
            let calls = timed_calls(ctx, trace, "cpu.run_into", subject, &mut y, reps, |x, y| {
                kernel.run_into(x, y, ctx.threads)
            });
            local_us.push(median(&calls) / 1e3);
        }
    }
    let inproc = median(&inproc_ms);
    let local = median(&local_us);
    report.set("serve.warm_tune_inproc_ms", inproc);
    report.set("cpu.local_spmv_us", local);
    let remote_p50 = median(&warm.spmv_us);
    report.set("net.spmv_wire_overhead_us", remote_p50 - local);
    report.set(
        "net.warm_tune_overhead_ms",
        median(&warm.tune_ms()) - inproc,
    );

    let store = service.store();
    let key = *keys
        .first()
        .ok_or("no context key: every in-process tune failed")?;
    report.set(
        "serve.cache_for_memory_us",
        median_us(ctx, trace, "serve.cache_for", reps, || {
            store.cache_for(key).is_ok()
        }),
    );
    report.set(
        "serve.persist_ms",
        median_us(ctx, trace, "serve.persist", reps, || {
            store.persist(key).is_ok()
        }) / 1e3,
    );
    report.set(
        "serve.winners_ms",
        median_us(ctx, trace, "serve.winners", reps, || {
            store.winners().map(|w| w.len())
        }) / 1e3,
    );
    // Capacity 1 and alternating contexts: every call is a disk load.
    let cold_tier = open()?.with_memory_capacity(1);
    let mut next = 0;
    report.set(
        "serve.cache_for_disk_ms",
        median_us(ctx, trace, "serve.cache_for_disk", reps, || {
            next += 1;
            cold_tier.cache_for(keys[next % keys.len()]).is_ok()
        }) / 1e3,
    );
    if keys.len() > 1 && cold_tier.stats().disk_loads < reps {
        report.note("serve.cache_for_disk_ms: some calls were memory hits".to_string());
    }

    let cache = store
        .cache_for(key)
        .map_err(|e| format!("cache_for: {e}"))?;
    let bytes = cache.to_bytes();
    report.set("search.acds_bytes", bytes.len() as f64);
    report.set(
        "search.acds_encode_ms",
        median_us(ctx, trace, "search.acds_encode", reps, || cache.to_bytes()) / 1e3,
    );
    report.set(
        "search.acds_decode_ms",
        median_us(ctx, trace, "search.acds_decode", reps, || {
            DesignCache::from_bytes(&bytes).is_ok()
        }) / 1e3,
    );
    Ok(())
}

pub fn warm_layers(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    warm: &mut Warm,
    report: &mut Report,
) -> Result<(), String> {
    let p99 = tail(report, "net.remote_spmv_us_p99", &warm.spmv_us, 0.99);
    report.set("net.remote_spmv_us_p99", p99);
    let exec = prom::histogram(&warm.metrics_text, "net_spmv_latency_us");
    report.set(
        "net.server_spmv_exec_us_p50",
        exec.map_or(f64::NAN, |h| h.quantile(0.5)),
    );
    let column = |f: fn(&RemoteTune) -> f64| -> Vec<f64> { warm.tunes.iter().map(f).collect() };
    report.set(
        "net.tune_queue_wait_ms_p50",
        median(&column(|t| t.queue_wait_ms)),
    );
    report.set("net.tune_exec_ms_p50", median(&column(|t| t.exec_ms)));
    // Resident-job drift: the first against the last 64 warm tunes (or halves,
    // when fewer ran).
    let tune_ms = warm.tune_ms();
    let window = 64.min(tune_ms.len() / 2).max(1).min(tune_ms.len());
    report.set("net.warm_tune_ms_first64", median(&tune_ms[..window]));
    report.set(
        "net.warm_tune_ms_last64",
        median(&tune_ms[tune_ms.len() - window..]),
    );
    let stats = warm.stats.unwrap_or_default();
    let (hits, loads) = (
        stats.store_memory_hits as f64,
        stats.store_disk_loads as f64,
    );
    report.set("serve.store_memory_hits", hits);
    report.set("serve.store_disk_loads", loads);
    report.set(
        "serve.store_hit_ratio",
        hits / (hits + loads + stats.store_cold_starts as f64).max(1.0),
    );
    report.set("net.jobs_resident", stats.jobs_resident as f64);

    codec_layers(ctx, trace, &warm.fleet[0], report);
    warm.daemon.stop();
    store_layers(ctx, trace, warm, report)
}

// ---------------------------------------------------------------------------
// Mixed
// ---------------------------------------------------------------------------

pub struct Mixed {
    daemon: Daemon,
    reader: Client,
    writer: Client,
    resident: Vec<Subject>,
    jobs: Vec<u64>,
    /// New matrices the writer submits.
    writes: Vec<Subject>,
    idle_us: Vec<f64>,
    busy_us: Vec<f64>,
    cold: Vec<RemoteTune>,
    writer_secs: f64,
}

pub fn mixed_setup(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    retries: &Retries,
) -> Result<Mixed, String> {
    let daemon = Daemon::start(ctx, "mixed-store")?;
    let resident = fleet::fleet(
        trace,
        &PatternFamily::ALL,
        ctx.sizes.mixed_resident,
        ctx.sizes.serve_rows,
        ctx.sizes.serve_row_len,
        ctx.seed + MIXED_RESIDENT_SEED_OFFSET,
    );
    let jobs = tune_fleet(ctx, trace, &daemon, retries, &resident)?;
    if jobs.len() != resident.len() {
        return Err("serve_mixed: a resident job failed to tune".to_string());
    }
    let writes = fleet::fleet(
        trace,
        &PatternFamily::ALL,
        ctx.counts.mixed_tunes,
        ctx.sizes.serve_rows,
        ctx.sizes.serve_row_len,
        ctx.seed + MIXED_WRITER_SEED_OFFSET,
    );
    let connect = || Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"));
    Ok(Mixed {
        reader: connect()?,
        writer: connect()?,
        daemon,
        resident,
        jobs,
        writes,
        idle_us: Vec::new(),
        busy_us: Vec::new(),
        cold: Vec::new(),
        writer_secs: 0.0,
    })
}

/// The mixed-serving operations of one round: the reader's share of idle
/// baseline calls, then the writer's share of cold tunes with the reader
/// running closed-loop beside it until the writer is done.
pub fn mixed_round(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    mixed: &mut Mixed,
    retries: &Retries,
    round: usize,
) {
    let (resident, jobs) = (&mixed.resident, &mixed.jobs);
    let reader = &mut mixed.reader;
    let mut read = |trace: &mut ThreadTrace<'_>, call: usize| {
        let slot = call % jobs.len();
        remote_spmv(ctx, trace, reader, retries, jobs[slot], &resident[slot])
    };
    let (idle_calls, idle_before) = share(ctx.counts.mixed_idle_calls, round);
    ctx.tracer.refresh_speed();
    for call in idle_before..idle_before + idle_calls {
        mixed.idle_us.extend(read(trace, call));
    }

    let (tunes, tunes_before) = share(ctx.counts.mixed_tunes, round);
    if tunes == 0 {
        return;
    }
    let writes = &mixed.writes[tunes_before..tunes_before + tunes];
    let writer = &mut mixed.writer;
    let done = AtomicBool::new(false);
    // Reader and writer measure concurrently from here on, so the host's
    // speed is read now.
    ctx.tracer.refresh_speed();
    let (cold, writer_secs) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut trace = ctx.tracer.thread();
            trace.enter("op.writer_slice", 0);
            let start = Instant::now();
            let cold: Vec<RemoteTune> = writes
                .iter()
                .filter_map(|s| remote_tune(ctx, &mut trace, writer, retries, s))
                .collect();
            let secs = start.elapsed().as_secs_f64() * ctx.tracer.speed().factor();
            trace.leave();
            done.store(true, Ordering::SeqCst);
            (cold, secs)
        });
        let mut call = 0;
        while !done.load(Ordering::SeqCst) {
            mixed.busy_us.extend(read(trace, call));
            call += 1;
        }
        handle.join().expect("writer thread panicked")
    });
    mixed.cold.extend(cold);
    mixed.writer_secs += writer_secs;
}

pub fn mixed_end_to_end(mixed: &Mixed, report: &mut Report) {
    report.set(
        "mixed_tune_per_s",
        mixed.cold.len() as f64 / mixed.writer_secs,
    );
    report.set("mixed_spmv_us_p50", median(&mixed.busy_us));
}

/// Bytes of every file under `dir`.
fn directory_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|entry| match entry.metadata() {
                Ok(meta) if meta.is_dir() => directory_bytes(&entry.path()),
                Ok(meta) => meta.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

pub fn mixed_layers(mixed: &Mixed, report: &mut Report) {
    let column = |f: fn(&RemoteTune) -> f64| -> Vec<f64> { mixed.cold.iter().map(f).collect() };
    report.set("net.cold_tune_ms_p50", median(&column(|t| t.client_ms)));
    report.set(
        "net.cold_tune_queue_wait_ms_p50",
        median(&column(|t| t.queue_wait_ms)),
    );
    report.set("net.cold_tune_exec_ms_p50", median(&column(|t| t.exec_ms)));
    let tunes = mixed.cold.len().max(1) as f64;
    report.set(
        "search.fresh_evaluations_per_tune",
        column(|t| t.fresh_evaluations as f64).iter().sum::<f64>() / tunes,
    );
    report.set(
        "serve.warm_started_share",
        mixed.cold.iter().filter(|t| t.warm_started).count() as f64 / tunes,
    );
    report.set(
        "serve.store_bytes",
        directory_bytes(&mixed.daemon.dir) as f64,
    );
    let (idle, busy) = (median(&mixed.idle_us), median(&mixed.busy_us));
    report.set("net.idle_spmv_us_p50", idle);
    report.set("net.mixed_spmv_slowdown", busy / idle);
    let p90 = tail(report, "net.mixed_spmv_us_p90", &mixed.busy_us, 0.90);
    report.set("net.mixed_spmv_us_p90", p90);
}

impl Retries {
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// All matrices generated for the serving subjects.
pub fn subjects<'a>(warm: &'a Warm, mixed: &'a Mixed) -> impl Iterator<Item = &'a Subject> {
    warm.fleet
        .iter()
        .chain(&mixed.resident)
        .chain(&mixed.writes)
}

/// Tune jobs the two daemons finished during the timed phase.
pub fn jobs_finished(warm: &Warm, mixed: &Mixed) -> usize {
    warm.tunes.len() + mixed.cold.len()
}
