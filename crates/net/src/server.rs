//! The `alpha-net` daemon: an event-loop TCP server that puts the whole
//! tuning pipeline behind a socket.
//!
//! ```text
//!                     ┌────────────── event loop (1 thread) ──────────────┐
//!   TCP ── accept ──▶ │ reactor (epoll/kqueue) ── per-conn frame         │
//!                     │   nonblocking sockets     reassembly + outbox    │
//!                     └──────┬──────────────▲──────────────▲─────────────┘
//!            SubmitTune      │try_push      │Busy(retry)   │completions + waker
//!                            ▼              │              │
//!            job queue (one bounded FIFO) ────────── tune workers
//!                            │                         │    ▲
//!            Spmv ──▶ exec queue ───── exec workers ───┼────┘
//!                            │                    files│
//!            SubmitTuneRef ──┼──▶ by-digest view ◀─────┘
//!                            │        │hit: the service's resident
//!                            │        │program, a Done job, no queue
//!            PollJob ◀── job table (FIFO terminal GC)
//! ```
//!
//! Two structural properties, each an answer to a production failure mode:
//!
//! * **No thread per socket.**  One event-loop thread multiplexes every
//!   connection through a [`Reactor`]: readiness-driven nonblocking reads
//!   feed per-connection [`FrameAssembler`]s (the one frame reader, with
//!   its frame-before-trust, slow-loris-deadline and chunked-receive
//!   invariants), and responses drain through per-connection outboxes
//!   with partial-write tracking.  256 idle connections cost 256 small
//!   structs, not 256 stacks.
//! * **Bounded admission with backpressure.**  Admission is one bound over
//!   one FIFO ([`TaskQueue`]): a submission that finds the queue full is
//!   answered [`Response::Busy`] at once, with a `retry_after_ms` estimate
//!   derived from the measured tuning EWMA and the current queue depth —
//!   and SpMV traffic is never shed at tune admission at all.  The job
//!   table is one map under one lock, touched once per request.
//!
//! A daemon serves one trust domain: every connection is the same client
//! to it.  A tune that names its matrix by digest
//! ([`Request::SubmitTuneRef`]) is answered on the loop itself when an
//! upload of that content left a program some job still holds: a lookup in
//! the daemon's view and the service's resident map answers with the
//! `Done` status of a job that holds it — no queue, no worker, no hash, no
//! compare, and no poll after (the digest is BLAKE2b-256; see the
//! `by_digest` module).  Anything else is answered [`Response::NeedMatrix`]
//! and the client uploads.
//!
//! Long-running work never blocks the loop: tuning runs on worker threads
//! that drain the admission queue, and remote SpMV is offloaded to exec
//! workers that post completed response frames back through a completion
//! list plus reactor wake.  An SpMV that is the daemon's only work fans out
//! over the exec pool; one with company runs on its exec worker's thread
//! (see `exec_loop`), with bitwise the same `y`.  While a connection has
//! an SpMV in flight its subsequent requests are deferred (per-connection
//! FIFO responses), not reordered.
//!
//! The code is split by lane: `event_loop` (accept, reassembly, dispatch,
//! outboxes, sweeps), `tune_lane` (admission, tunes by reference, tuning
//! workers), `exec_lane` (SpMV offload, exec workers), `http` (the metrics
//! endpoint) and `queue` (the bounded FIFO both lanes drain).  This module
//! holds the configuration, the daemon handle and the state they share.

use crate::by_digest::DigestView;
use crate::proto::{
    response_frame, ErrorKind, FrameAssembler, JobState, JobSummary, Request, Response,
    ServerStats, MAX_FRAME_SECS,
};
use crate::reactor::{Event, Interest, Reactor, Waker};
use crate::{NetError, ProtoError};
use alpha_matrix::Scalar;
use alpha_serve::{TuneRequest, TuningService};
use alpha_telemetry::{Counter, FlightRecorder, Gauge, Histogram, Registry, SpanEvent};
use alphasparse::{DeviceProfile, TunedSpmv};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod event_loop;
mod exec_lane;
mod http;
mod queue;
mod tune_lane;

use event_loop::EventLoop;
use exec_lane::{exec_loop, ExecTask};
use queue::TaskQueue;
use tune_lane::worker_loop;

/// Resolves a wire device name to a device profile.  Matching is
/// case-insensitive over the built-in profiles (`A100`, `RTX2080`,
/// `TestGPU`).
pub fn device_by_name(name: &str) -> Option<DeviceProfile> {
    [
        DeviceProfile::a100(),
        DeviceProfile::rtx2080(),
        DeviceProfile::test_profile(),
    ]
    .into_iter()
    .find(|profile| profile.name.eq_ignore_ascii_case(name))
}

/// Tunables of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Jobs the admission queue holds before new submissions are rejected
    /// with backpressure.
    pub queue_capacity: usize,
    /// Tuning worker threads draining the queue (0 = one per available
    /// core, capped at 4 — tuning saturates cores on its own).
    pub workers: usize,
    /// Terminal (done/failed) job records kept before the oldest are
    /// garbage-collected.  GC'd jobs poll as
    /// [`JobState::Unknown`](crate::proto::JobState::Unknown).
    pub max_terminal_jobs: usize,
    /// Wall-clock budget for one frame to arrive completely, measured from
    /// its first byte — the slow-loris bound.  Defaults to
    /// [`MAX_FRAME_SECS`]; chaos tests shrink it to trip fast.
    pub frame_deadline: Duration,
    /// Address of the plaintext HTTP debug endpoint (`GET /metrics` answers
    /// the Prometheus text exposition, `GET /debug/flightrec` the flight
    /// recorder's JSON dump).  Served by the same event loop — no extra
    /// thread, and a stalled scraper can never block the frame protocol.
    /// `None` disables the endpoint.
    pub metrics_addr: Option<SocketAddr>,
    /// Slow-request threshold, µs.  A traced request whose in-server time
    /// (queue wait + execution) reaches this bound gets its flight-recorder
    /// events pinned, so the requests most worth diagnosing survive ring
    /// wrap.  `0` disables pinning.
    pub slow_request_us: u64,
    /// Where to dump the flight recorder's JSON on daemon shutdown (the
    /// black box survives the crash site).  `None` skips the dump.
    pub flightrec_dump: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            workers: 0,
            max_terminal_jobs: 1024,
            frame_deadline: Duration::from_secs(MAX_FRAME_SECS),
            metrics_addr: None,
            slow_request_us: 500_000,
            flightrec_dump: None,
        }
    }
}

/// One job's lifecycle record in the in-memory job table.
enum Job {
    Queued {
        request: Box<TuneRequest>,
        /// When the job was admitted — a tuning worker turns this into the
        /// queue-wait component of the job's [`JobSummary`].
        enqueued: Instant,
        /// The submission: its trace id, which the worker threads into its
        /// spans and flight events, and its job id.
        req: RequestTag,
    },
    Running,
    Done {
        tuned: Arc<TunedSpmv>,
        summary: JobSummary,
    },
    Failed {
        error: String,
    },
}

impl Job {
    fn is_terminal(&self) -> bool {
        matches!(self, Job::Done { .. } | Job::Failed { .. })
    }
}

/// Which lane a request runs in: it names the class of the request's
/// stage events and picks the histograms its stages feed.
#[derive(Clone, Copy)]
enum Lane {
    Tune,
    TuneRef,
    Spmv,
}

impl Lane {
    fn class(self) -> &'static str {
        match self {
            Lane::Tune => "tune",
            Lane::TuneRef => "tune_ref",
            Lane::Spmv => "spmv",
        }
    }
}

/// The request a record belongs to: every stage event of one request names
/// the same trace and job.
#[derive(Clone, Copy)]
struct RequestTag {
    lane: Lane,
    /// `0` = untraced.
    trace_id: u64,
    /// `0` before the daemon assigned one.
    job_id: u64,
}

/// The one event of request stage `stage` that took `value_us` µs: it ends
/// now and carries arg `job`.  A shed lasts 0 µs; it carries the job the
/// request named (an SpMV's), and only a shed with no job yet (a tune's)
/// carries the `Busy` answer's retry-after in µs instead, as
/// `retry_after_us`.
fn stage_event(req: RequestTag, stage: &'static str, value_us: u64) -> SpanEvent {
    let (dur_us, arg) = match stage {
        "net.shed" if req.job_id == 0 => (0, ("retry_after_us".into(), value_us)),
        "net.shed" => (0, ("job".into(), req.job_id)),
        _ => (value_us, ("job".into(), req.job_id)),
    };
    SpanEvent {
        arg: Some(arg),
        trace_id: req.trace_id,
        class: req.lane.class(),
        ..SpanEvent::ending_now(stage, dur_us)
    }
}

struct Shared {
    service: Arc<TuningService>,
    config: ServerConfig,
    /// Job records by id.
    jobs: Mutex<HashMap<u64, Job>>,
    next_job_id: AtomicU64,
    /// Terminal job ids, oldest first — the GC order (one small lock touched
    /// once per job *completion*, not per request).
    terminal_order: Mutex<VecDeque<u64>>,
    /// Admission queue of job ids: one bound over one FIFO.
    queue: TaskQueue<u64>,
    /// SpMV offload lane: the event loop pushes, exec workers pop.
    exec_queue: TaskQueue<ExecTask>,
    /// Which digests were uploaded: with the service's resident map, what
    /// answers a [`Request::SubmitTuneRef`].
    by_digest: DigestView,
    /// Tunes by reference answered with a resident program / with
    /// [`Response::NeedMatrix`] (`net_tune_by_reference_total{outcome}`).
    by_reference_hit: Counter,
    by_reference_need_matrix: Counter,
    /// Finished SpMV response frames waiting for the loop to collect
    /// (token, encoded frame); posting wakes the reactor.
    completions: Mutex<Vec<(usize, Vec<u8>)>>,
    /// Offloaded SpMVs not yet delivered into an outbox — drained to zero
    /// before a shutdown completes.
    exec_inflight: AtomicU64,
    /// Tunes a worker is executing right now (raised around `tune_batch`).
    /// With [`Shared::exec_inflight`] it tells an exec worker whether its
    /// SpMV is the daemon's only work.  `Relaxed` suffices: it publishes no
    /// data, and a stale read only picks the other path, whose `y` is the
    /// same.
    tunes_executing: AtomicU64,
    /// Lifetime job counts, as [`ServerStats`] reports them.
    jobs_submitted: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_gced: AtomicU64,
    shutdown: AtomicBool,
    open_connections: AtomicU64,
    /// EWMA of tuning execution time in microseconds (0 = no sample yet);
    /// the basis of the `retry_after_ms` hint in `Busy` responses.
    tune_ewma_us: AtomicU64,
    worker_count: usize,
    /// Long-lived execution pool for remote SpMV, used by an SpMV that is
    /// the daemon's only work: it never spawns a thread and never queues
    /// behind the tuning workers' candidate batches.  An SpMV that has
    /// company runs on its exec worker's own thread instead (see
    /// [`exec_loop`]), because the pool runs one job at a time.
    exec_pool: alpha_parallel::Pool,
    /// Remote SpMVs answered on [`Shared::exec_pool`] / on their exec
    /// worker's own thread (`net_spmv_exec_total{path}`).
    spmv_exec_pool: Counter,
    spmv_exec_inline: Counter,
    waker: Waker,
    /// The service's telemetry registry.  The daemon layers its own wire-
    /// and loop-level families on top of the store/search/kernel metrics
    /// the lower layers already record there, so one scrape sees the whole
    /// pipeline.
    registry: Arc<Registry>,
    /// Seconds (as µs buckets) a tune job waited in the admission queue.
    tune_queue_wait: Histogram,
    /// Tuning execution time per job, µs.
    tune_exec: Histogram,
    /// Server-side SpMV latency: request receipt to response posted, µs.
    spmv_latency: Histogram,
    /// Event-loop work per tick (poll wait excluded), µs — the "never
    /// blocks the loop" invariant, measured.
    tick_hist: Histogram,
    /// Decoded-but-undispatched requests across all connections.
    deferred_depth: Gauge,
    /// Scrapes answered on the HTTP metrics endpoint.
    http_scrapes: Counter,
    /// Request frames received (`net_requests_total`), and responses that
    /// were `Busy` (`net_busy_total`) or a typed error (`net_errors_total`).
    requests: Counter,
    busy: Counter,
    errors: Counter,
    /// The always-on black box: request lifecycle events for after-the-fact
    /// diagnosis, dumpable via `GET /debug/flightrec` and at shutdown.
    flightrec: Arc<FlightRecorder>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let store = self.service.store_stats();
        let jobs_resident = self.jobs.lock().expect("job table poisoned").len();
        ServerStats {
            store_memory_hits: store.memory_hits as u64,
            store_disk_loads: store.disk_loads as u64,
            store_cold_starts: store.cold_starts as u64,
            store_evictions: store.evictions as u64,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_gced: self.jobs_gced.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            jobs_resident: jobs_resident as u64,
            open_connections: self.open_connections.load(Ordering::Relaxed),
        }
    }

    /// Marks a job terminal, counts it, and garbage-collects the oldest
    /// terminal records beyond the configured bound.
    fn finish_job(&self, job_id: u64, outcome: Job) {
        debug_assert!(outcome.is_terminal());
        let count = match outcome {
            Job::Done { .. } => &self.jobs_completed,
            _ => &self.jobs_failed,
        };
        count.fetch_add(1, Ordering::Relaxed);
        self.jobs
            .lock()
            .expect("job table poisoned")
            .insert(job_id, outcome);
        // FIFO GC: the oldest terminal record goes first.
        let mut order = self.terminal_order.lock().expect("terminal order poisoned");
        order.push_back(job_id);
        while order.len() > self.config.max_terminal_jobs {
            let oldest = order.pop_front().expect("len checked");
            self.jobs
                .lock()
                .expect("job table poisoned")
                .remove(&oldest);
            self.jobs_gced.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one stage of a request as one [`SpanEvent`] named `stage`,
    /// lasting the stage's measured `value_us` and ending now, tagged with
    /// the request's trace id, lane and `job` arg (a shed's arg is
    /// its retry-after in µs instead).  The event goes to the flight ring and,
    /// while tracing is on, to the trace ring — except `net.tune_exec`,
    /// which a guard at its call site already traces, because the search's
    /// spans nest under it.  The stage's histogram, if it has one, observes
    /// the same value.  `net.request` (the in-server total) applies the
    /// slow-request policy: a traced request whose total crossed
    /// [`ServerConfig::slow_request_us`] gets its events pinned so they
    /// survive ring wrap.
    fn record(&self, req: RequestTag, stage: &'static str, value_us: u64) {
        match (req.lane, stage) {
            (Lane::Tune, "net.queue_wait") => self.tune_queue_wait.observe(value_us),
            (Lane::Tune, "net.tune_exec") => self.tune_exec.observe(value_us),
            (Lane::Spmv, "net.request") => self.spmv_latency.observe(value_us),
            _ => {}
        }
        let event = stage_event(req, stage, value_us);
        if alpha_telemetry::tracing_enabled() && stage != "net.tune_exec" {
            alpha_telemetry::record_span(event.clone());
        }
        self.flightrec.record(event);
        let threshold = self.config.slow_request_us;
        if stage == "net.request" && threshold > 0 && req.trace_id != 0 && value_us >= threshold {
            self.flightrec.pin(req.trace_id);
        }
    }

    /// Records a shed request and returns the answer; see [`stage_event`]
    /// for what the event carries.
    fn shed(&self, req: RequestTag, busy: Response) -> Response {
        if let Response::Busy { retry_after_ms, .. } = busy {
            self.record(req, "net.shed", retry_after_ms.saturating_mul(1000));
        }
        busy
    }

    /// Flags the daemon as shutting down, closes the admission queue
    /// (tuning workers drain and exit) and wakes the event loop.
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // Already shutting down.
        }
        self.queue.close();
        self.waker.wake();
    }
}

/// A running daemon: the event-loop thread, its tuning worker pool, and the
/// SpMV exec workers.
///
/// The server binds in [`NetServer::spawn`] and runs until a
/// [`Request::Shutdown`] frame arrives (or [`NetServer::request_shutdown`]
/// is called locally); [`NetServer::join`] then reaps every thread for a
/// clean exit.  Connect clients to [`NetServer::local_addr`].
pub struct NetServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    loop_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    exec_handles: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the event
    /// loop, the tuning worker pool and the SpMV exec workers over
    /// `service`.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        service: TuningService,
        config: ServerConfig,
    ) -> Result<NetServer, NetError> {
        let listener = listen(addr).map_err(ProtoError::from)?;
        let local = listener.local_addr().map_err(ProtoError::from)?;
        let reactor = Reactor::new().map_err(ProtoError::from)?;
        let waker = reactor.waker();
        let metrics_listener = config
            .metrics_addr
            .map(listen)
            .transpose()
            .map_err(ProtoError::from)?;
        let metrics_local = metrics_listener.as_ref().and_then(|l| l.local_addr().ok());
        let registry = service.registry().clone();

        let worker_count = if config.workers == 0 {
            alpha_parallel::default_threads().min(4)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            service: Arc::new(service),
            jobs: Mutex::new(HashMap::new()),
            next_job_id: AtomicU64::new(0),
            terminal_order: Mutex::new(VecDeque::new()),
            queue: TaskQueue::bounded(
                config.queue_capacity,
                registry.gauge("net_queue_depth", &[("lane", "tune")]),
            ),
            exec_queue: TaskQueue::bounded(
                1024,
                registry.gauge("net_queue_depth", &[("lane", "exec")]),
            ),
            by_digest: DigestView::default(),
            completions: Mutex::new(Vec::new()),
            exec_inflight: AtomicU64::new(0),
            tunes_executing: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_gced: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            open_connections: AtomicU64::new(0),
            tune_ewma_us: AtomicU64::new(0),
            worker_count,
            exec_pool: alpha_parallel::Pool::new(0),
            waker,
            config,
            tune_queue_wait: registry.histogram("net_tune_queue_wait_us", &[]),
            tune_exec: registry.histogram("net_tune_exec_us", &[]),
            spmv_latency: registry.histogram("net_spmv_latency_us", &[]),
            spmv_exec_pool: registry.counter("net_spmv_exec_total", &[("path", "pool")]),
            spmv_exec_inline: registry.counter("net_spmv_exec_total", &[("path", "inline")]),
            by_reference_hit: registry
                .counter("net_tune_by_reference_total", &[("outcome", "hit")]),
            by_reference_need_matrix: registry
                .counter("net_tune_by_reference_total", &[("outcome", "need_matrix")]),
            tick_hist: registry.histogram("net_loop_tick_us", &[]),
            deferred_depth: registry.gauge("net_deferred_depth", &[]),
            http_scrapes: registry.counter("net_http_scrapes_total", &[]),
            requests: registry.counter("net_requests_total", &[]),
            busy: registry.counter("net_busy_total", &[]),
            errors: registry.counter("net_errors_total", &[]),
            flightrec: Arc::new(FlightRecorder::default()),
            registry,
        });

        let lane = |name: &str, count: usize, body: fn(&Shared)| -> Vec<JoinHandle<()>> {
            (0..count)
                .map(|i| {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name(format!("alpha-net-{name}-{i}"))
                        .spawn(move || body(&shared))
                        .expect("lane thread spawns")
                })
                .collect()
        };
        let worker_handles = lane("worker", worker_count, worker_loop);
        let exec_handles = lane("exec", alpha_parallel::default_threads().min(4), exec_loop);
        let loop_handle = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("alpha-net-loop".to_string())
                .spawn(move || EventLoop::new(reactor, listener, metrics_listener, shared).run())
                .expect("event-loop thread spawns")
        };

        Ok(NetServer {
            addr: local,
            metrics_addr: metrics_local,
            shared,
            loop_handle: Some(loop_handle),
            worker_handles,
            exec_handles,
        })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address of the HTTP metrics endpoint, when
    /// [`ServerConfig::metrics_addr`] configured one (resolved, so a port-0
    /// request reports the real ephemeral port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The daemon's telemetry registry — shared with the underlying
    /// [`TuningService`], so it carries the whole pipeline's metric
    /// families, not just the wire-level ones.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Live daemon counters (the same snapshot a
    /// [`Request::StoreStats`] frame returns).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The daemon's always-on flight recorder (the same events
    /// `GET /debug/flightrec` dumps) — request lifecycle attribution
    /// without a tracing sink installed.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.flightrec
    }

    /// Initiates shutdown from the hosting process, exactly as a
    /// [`Request::Shutdown`] frame would: stop admitting, drain the queue,
    /// wake the event loop.
    pub fn request_shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Waits for the daemon to finish shutting down: the event loop, every
    /// tuning worker and every exec worker.  Call after a shutdown was
    /// requested (by a client frame or [`NetServer::request_shutdown`]);
    /// the in-flight jobs still queued at shutdown are completed, not
    /// dropped.
    pub fn join(mut self) {
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
        // The loop closed the exec queue on exit; both pools drain and stop.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        for handle in self.exec_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("workers", &self.worker_handles.len())
            .field("stats", &self.shared.stats())
            .finish()
    }
}

/// A nonblocking listener bound to `addr`.
fn listen(addr: impl ToSocketAddrs) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Microseconds elapsed since `since`.
fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Best-effort human-readable text out of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Encodes a response into raw frame bytes (header + payload, one buffer)
/// ready for an outbox.
fn frame_bytes(response: &Response) -> Vec<u8> {
    response_frame(response).expect("responses fit the frame cap")
}

#[cfg(test)]
mod tests {
    use super::http::{
        head_complete, http_response, http_route, HttpRoute, PROMETHEUS_TEXT, TEXT_PLAIN,
    };
    use super::*;

    #[test]
    fn device_names_resolve_case_insensitively() {
        assert_eq!(device_by_name("a100").unwrap().name, "A100");
        assert_eq!(device_by_name("RTX2080").unwrap().name, "RTX2080");
        assert_eq!(device_by_name("testgpu").unwrap().name, "TestGPU");
        assert!(device_by_name("H100").is_none());
    }

    #[test]
    fn a_shed_spmv_names_its_job() {
        let req = RequestTag {
            lane: Lane::Spmv,
            trace_id: 11,
            job_id: 42,
        };
        let event = stage_event(req, "net.shed", 1_000);
        assert_eq!(event.arg, Some(("job".into(), 42)));
        assert_eq!((event.dur_us, event.trace_id), (0, 11));
        assert_eq!(event.class, "spmv");
    }

    #[test]
    fn a_shed_tune_carries_its_retry_hint() {
        let req = RequestTag {
            lane: Lane::Tune,
            trace_id: 0,
            job_id: 0,
        };
        let event = stage_event(req, "net.shed", 25_000);
        assert_eq!(event.arg, Some(("retry_after_us".into(), 25_000)));
        assert_eq!((event.dur_us, event.class), (0, "tune"));
        // Any other stage lasts its value and names the job.
        let exec = stage_event(RequestTag { job_id: 7, ..req }, "net.queue_wait", 250);
        assert_eq!((exec.dur_us, exec.arg), (250, Some(("job".into(), 7))));
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.queue_capacity > 0);
        assert!(config.max_terminal_jobs > 0);
        assert!(config.frame_deadline >= Duration::from_secs(1));
        assert!(config.metrics_addr.is_none());
        assert!(config.slow_request_us > 0);
        assert!(config.flightrec_dump.is_none());
    }

    #[test]
    fn http_request_lines_are_routed_strictly() {
        assert!(matches!(
            http_route(b"GET /metrics HTTP/1.0\r\n\r\n"),
            HttpRoute::Metrics
        ));
        assert!(matches!(
            http_route(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpRoute::Metrics
        ));
        assert!(matches!(
            http_route(b"GET /metrics?debug=1 HTTP/1.0\r\n\r\n"),
            HttpRoute::Metrics
        ));
        assert!(matches!(
            http_route(b"GET /debug/flightrec HTTP/1.0\r\n\r\n"),
            HttpRoute::FlightRec
        ));
        assert!(matches!(
            http_route(b"GET /metricsx HTTP/1.0\r\n\r\n"),
            HttpRoute::NotFound
        ));
        assert!(matches!(
            http_route(b"GET / HTTP/1.0\r\n\r\n"),
            HttpRoute::NotFound
        ));
        assert!(matches!(
            http_route(b"POST /metrics HTTP/1.0\r\n\r\n"),
            HttpRoute::MethodNotAllowed
        ));
        assert!(matches!(
            http_route(b"DELETE /debug/flightrec HTTP/1.0\r\n\r\n"),
            HttpRoute::MethodNotAllowed
        ));
        assert!(matches!(
            http_route(b"\xff\xfe not utf8\r\n\r\n"),
            HttpRoute::NotFound
        ));

        assert!(head_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert!(head_complete(b"GET /metrics\n\n"));
        assert!(!head_complete(b"GET /metrics HTTP/1.0\r\n"));
    }

    #[test]
    fn http_responses_carry_exact_content_length() {
        let bytes = http_response("200 OK", PROMETHEUS_TEXT, "abc");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(!text.contains("Allow:"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }

    #[test]
    fn method_not_allowed_advertises_the_allowed_method() {
        let bytes = http_response("405 Method Not Allowed", TEXT_PLAIN, "only GET\n");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"));
        assert!(text.contains("Allow: GET\r\n"));
        assert!(text.contains("Content-Type: text/plain\r\n"));
    }
}
