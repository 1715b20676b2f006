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
//!            sharded job queue (hashed by tenant) ── tune workers
//!                            │                         │    ▲
//!            Spmv ──▶ exec queue ───── exec workers ───┼────┘
//!                            │                    files│
//!            SubmitTuneRef ──┼──▶ by-digest view ◀─────┘
//!                            │        │hit: the service's resident
//!                            │        │program, a Done job, no queue
//!            PollJob ◀── job table (FIFO terminal GC)
//! ```
//!
//! Three structural properties, each an answer to a production failure
//! mode:
//!
//! * **No thread per socket.**  One event-loop thread multiplexes every
//!   connection through a [`Reactor`]: readiness-driven nonblocking reads
//!   feed per-connection [`FrameAssembler`]s (the frame-before-trust,
//!   slow-loris-deadline and chunked-receive invariants carry over from the
//!   blocking reader), and responses drain through per-connection outboxes
//!   with partial-write tracking.  256 idle connections cost 256 small
//!   structs, not 256 stacks.
//! * **Per-tenant admission order.**  The admission queue is a
//!   [`ShardedTaskQueue`] hashed by tenant — one tenant's storm lands in
//!   one shard while workers drain shards round-robin.  The job table is one
//!   map under one lock, touched once per request.
//! * **Weighted multi-tenant admission.**  Connections identify as a
//!   tenant with [`Request::Hello`]; each tenant's queue credit is its
//!   weight share of the capacity across *active* tenants, so a tuning
//!   storm from one tenant cannot starve another's submissions — and SpMV
//!   traffic is never shed at admission at all.  Rejections carry a
//!   `retry_after_ms` estimate derived from the measured tuning EWMA and
//!   current queue depth.
//!
//! A tune that names its matrix by digest ([`Request::SubmitTuneRef`]) is
//! answered on the loop itself when the tenant's upload of that content
//! left a program some job still holds: a lookup in the tenant's view and
//! the service's resident map answers with the `Done` status of a job that
//! holds it — no queue, no worker, no hash, no compare, and no poll after
//! (the digest is BLAKE2b-256; see the `by_digest` module).  Anything else
//! is answered [`Response::NeedMatrix`] and the client uploads.
//!
//! Long-running work never blocks the loop: tuning runs on worker threads
//! that drain the sharded queue, and remote SpMV is offloaded to exec
//! workers that post completed response frames back through a completion
//! list plus reactor wake.  An SpMV that is the daemon's only work fans out
//! over the exec pool; one with company runs on its exec worker's thread
//! (see `exec_loop`), with bitwise the same `y`.  While a connection has
//! an SpMV in flight its subsequent requests are deferred (per-connection
//! FIFO responses), not reordered.

use crate::by_digest::DigestView;
use crate::proto::{
    decode_request_traced, response_frame, ErrorKind, FrameAssembler, JobState, JobSummary,
    Request, Response, ServerStats, TenantStats, MAX_FRAME_SECS,
};
use crate::reactor::{Event, Interest, Reactor, Waker};
use crate::{NetError, ProtoError};
use alpha_matrix::Scalar;
use alpha_parallel::{PushError, ShardedTaskQueue};
use alpha_serve::{TuneRequest, TuningService};
use alpha_telemetry::{Counter, FlightKind, FlightRecorder, Gauge, Histogram, Registry};
use alphasparse::{DeviceProfile, TunedSpmv};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Per-tenant admission weights as `(client_id, weight)` pairs; tenants
    /// not listed (including the anonymous tenant 0) get weight 1.  A
    /// tenant's queue credit is its weight share of `queue_capacity` over
    /// the currently *active* tenants.
    pub tenant_weights: Vec<(u64, u64)>,
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
            tenant_weights: Vec::new(),
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
        /// The submission: its tenant, for fairness accounting at
        /// completion, and its trace id, which the worker threads into its
        /// spans and flight events.
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

/// The lifetime job counts the tenant table does not keep (see
/// [`ServerStats`]); the queue fields are sampled live.
#[derive(Default)]
struct Counters {
    failed: AtomicU64,
    gced: AtomicU64,
}

/// One tenant's fairness ledger, and its share of the daemon's job counts:
/// [`ServerStats`]' submitted, rejected and completed jobs are the sums of
/// these rows.
struct TenantState {
    weight: u64,
    submitted: u64,
    rejected: u64,
    completed: u64,
    /// Jobs currently sitting in the admission queue (decremented when a
    /// worker picks the job up) — the quantity the credit bound applies to.
    queued: u64,
}

/// Which lane a request runs in: it names the class of the request's
/// flight events and picks the histograms its stages feed.
#[derive(Clone, Copy)]
enum Lane {
    Tune,
    TuneRef,
    Spmv,
}

/// The request a record belongs to: every flight event and span of one
/// request names the same tenant, trace and job.
#[derive(Clone, Copy)]
struct RequestTag {
    lane: Lane,
    /// `0` = anonymous.
    tenant: u64,
    /// `0` = untraced.
    trace_id: u64,
    /// `0` before the daemon assigned one.
    job_id: u64,
}

/// A remote SpMV offloaded off the event loop.
struct ExecTask {
    token: usize,
    tuned: Arc<TunedSpmv>,
    x: Vec<Scalar>,
    /// When the event loop received the request — start of the
    /// `net_spmv_latency_us` window, so the histogram covers exec-queue
    /// wait plus kernel time, the latency the client actually eats.
    received: Instant,
    req: RequestTag,
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
    /// Admission queue, sharded by tenant hash: workers drain shards
    /// round-robin, so queued tenants share worker attention.
    queue: ShardedTaskQueue<u64>,
    /// SpMV offload lane: the event loop pushes, exec workers pop.  One
    /// shard: a global FIFO.
    exec_queue: ShardedTaskQueue<ExecTask>,
    /// Which tenant uploaded which digest: with the service's resident map,
    /// what answers a [`Request::SubmitTuneRef`].
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
    tenants: Mutex<BTreeMap<u64, TenantState>>,
    counters: Counters,
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
    /// The always-on black box: request lifecycle events for after-the-fact
    /// diagnosis, dumpable via `GET /debug/flightrec` and at shutdown.
    flightrec: Arc<FlightRecorder>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let store = self.service.store_stats();
        let jobs_resident = self.jobs.lock().expect("job table poisoned").len();
        let [mut jobs_submitted, mut jobs_rejected, mut jobs_completed] = [0; 3];
        for t in self.tenants.lock().expect("tenant table poisoned").values() {
            jobs_submitted += t.submitted;
            jobs_rejected += t.rejected;
            jobs_completed += t.completed;
        }
        ServerStats {
            store_memory_hits: store.memory_hits as u64,
            store_disk_loads: store.disk_loads as u64,
            store_cold_starts: store.cold_starts as u64,
            store_evictions: store.evictions as u64,
            jobs_submitted,
            jobs_rejected,
            jobs_completed,
            jobs_failed: self.counters.failed.load(Ordering::Relaxed),
            jobs_gced: self.counters.gced.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            jobs_resident: jobs_resident as u64,
            open_connections: self.open_connections.load(Ordering::Relaxed),
        }
    }

    /// `tenant`'s row of the table, made with its configured weight the
    /// first time the tenant is seen.
    fn tenant_row<'t>(
        &self,
        tenants: &'t mut BTreeMap<u64, TenantState>,
        tenant: u64,
    ) -> &'t mut TenantState {
        tenants.entry(tenant).or_insert_with(|| TenantState {
            weight: self
                .config
                .tenant_weights
                .iter()
                .find(|(id, _)| *id == tenant)
                .map_or(1, |(_, w)| (*w).max(1)),
            submitted: 0,
            rejected: 0,
            completed: 0,
            queued: 0,
        })
    }

    /// The daemon's estimate of when a shed submission is worth retrying:
    /// measured tuning EWMA scaled by the queue backlog per worker, clamped
    /// to [1 ms, 10 s].  Before any job has finished the estimate is a flat
    /// 50 ms.
    fn retry_after_ms(&self) -> u64 {
        let ewma_us = self.tune_ewma_us.load(Ordering::Relaxed);
        if ewma_us == 0 {
            return 50;
        }
        let backlog = (self.queue.len() as u64).max(1);
        let per_worker = backlog.div_ceil(self.worker_count.max(1) as u64);
        (ewma_us / 1000).saturating_mul(per_worker).clamp(1, 10_000)
    }

    /// Weighted admission: the tenant may hold at most
    /// `max(1, queue_capacity · w / W_active)` queued jobs, where
    /// `W_active` sums the weights of tenants with queued work (the
    /// requester included).  With a single active tenant the credit is the
    /// whole capacity — exactly the unweighted daemon — and with rivals it
    /// degrades proportionally, never to zero.
    fn try_admit(&self, tenant_id: u64) -> Result<(), Response> {
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        self.tenant_row(&mut tenants, tenant_id);
        let mut w_active = 0u64;
        for (id, t) in tenants.iter() {
            if t.queued > 0 || *id == tenant_id {
                w_active += t.weight;
            }
        }
        let capacity = self.queue.capacity() as u64;
        let me = tenants.get_mut(&tenant_id).expect("just inserted");
        let credit = ((capacity * me.weight) / w_active.max(1)).max(1);
        if me.queued >= credit {
            me.rejected += 1;
            return Err(Response::Busy {
                queue_capacity: capacity,
                retry_after_ms: self.retry_after_ms(),
            });
        }
        me.queued += 1;
        me.submitted += 1;
        Ok(())
    }

    /// Rolls back a [`Shared::try_admit`] whose queue push failed.
    fn unadmit(&self, tenant_id: u64, shed: bool) {
        let mut tenants = self.tenants.lock().expect("tenant table poisoned");
        if let Some(t) = tenants.get_mut(&tenant_id) {
            t.queued = t.queued.saturating_sub(1);
            t.submitted = t.submitted.saturating_sub(1);
            if shed {
                t.rejected += 1;
            }
        }
    }

    fn tenant_snapshot(&self) -> Vec<TenantStats> {
        let tenants = self.tenants.lock().expect("tenant table poisoned");
        tenants
            .iter()
            .map(|(id, t)| TenantStats {
                client_id: *id,
                weight: t.weight,
                submitted: t.submitted,
                rejected: t.rejected,
                completed: t.completed,
                queued: t.queued,
            })
            .collect()
    }

    /// Marks a job terminal, credits its tenant, and garbage-collects the
    /// oldest terminal records beyond the configured bound.
    fn finish_job(&self, job_id: u64, tenant: u64, outcome: Job) {
        debug_assert!(outcome.is_terminal());
        if !matches!(outcome, Job::Done { .. }) {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
        } else if let Some(t) = self
            .tenants
            .lock()
            .expect("tenant table poisoned")
            .get_mut(&tenant)
        {
            t.completed += 1;
        }
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
            self.counters.gced.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one stage of a request: its flight event and, where the
    /// stage has them, its histogram observation and span, all from the one
    /// measured `value_us`.  `net.tune_exec` is the one stage span written
    /// by a guard at its call site instead, because the search's spans nest
    /// under it.  A reply applies the slow-request policy: a traced request
    /// whose in-server time crossed [`ServerConfig::slow_request_us`] gets
    /// its flight events pinned so they survive ring wrap.
    fn record(&self, req: RequestTag, kind: FlightKind, value_us: u64) {
        let span = |name| {
            let start = alpha_telemetry::now_us().saturating_sub(value_us);
            alpha_telemetry::record_span(name, start, value_us, Some(("job", req.job_id)));
        };
        match (req.lane, kind) {
            (Lane::Tune, FlightKind::QueuePop) => {
                self.tune_queue_wait.observe(value_us);
                span("net.queue_wait");
            }
            (Lane::Tune, FlightKind::ExecEnd) => self.tune_exec.observe(value_us),
            (Lane::Spmv, FlightKind::ExecEnd) => span("net.exec"),
            (Lane::Spmv, FlightKind::Reply) => self.spmv_latency.observe(value_us),
            _ => {}
        }
        let class = match (req.lane, kind) {
            (Lane::Tune, FlightKind::Error) => "tune_failed",
            (Lane::Spmv, FlightKind::Error) => "spmv_failed",
            (Lane::Tune, _) => "tune",
            (Lane::TuneRef, _) => "tune_ref",
            (Lane::Spmv, _) => "spmv",
        };
        self.flightrec
            .record(kind, req.tenant, req.trace_id, req.job_id, value_us, class);
        let threshold = self.config.slow_request_us;
        if kind == FlightKind::Reply && threshold > 0 && req.trace_id != 0 && value_us >= threshold
        {
            self.flightrec.pin(req.trace_id);
        }
    }

    /// Records a shed request, whose flight event carries the `Busy`
    /// answer's retry-after in µs, and returns the answer.
    fn shed(&self, req: RequestTag, busy: Response) -> Response {
        if let Response::Busy { retry_after_ms, .. } = busy {
            self.record(req, FlightKind::Shed, retry_after_ms.saturating_mul(1000));
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
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Proto(e.into()))?;
        let local = listener
            .local_addr()
            .map_err(|e| NetError::Proto(e.into()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Proto(e.into()))?;
        let reactor = Reactor::new().map_err(|e| NetError::Proto(e.into()))?;
        let waker = reactor.waker();
        let metrics_listener = match config.metrics_addr {
            Some(metrics_addr) => {
                let metrics_listener =
                    TcpListener::bind(metrics_addr).map_err(|e| NetError::Proto(e.into()))?;
                metrics_listener
                    .set_nonblocking(true)
                    .map_err(|e| NetError::Proto(e.into()))?;
                Some(metrics_listener)
            }
            None => None,
        };
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
            queue: ShardedTaskQueue::bounded(config.queue_capacity, ADMISSION_SHARDS),
            exec_queue: ShardedTaskQueue::bounded(1024, 1),
            by_digest: DigestView::default(),
            completions: Mutex::new(Vec::new()),
            exec_inflight: AtomicU64::new(0),
            tunes_executing: AtomicU64::new(0),
            tenants: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
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
            flightrec: Arc::new(FlightRecorder::default()),
            registry,
        });

        let mut worker_handles = Vec::with_capacity(worker_count);
        for worker in 0..worker_count {
            let shared = shared.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("alpha-net-worker-{worker}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns"),
            );
        }
        let exec_count = alpha_parallel::default_threads().min(4);
        let mut exec_handles = Vec::with_capacity(exec_count);
        for exec in 0..exec_count {
            let shared = shared.clone();
            exec_handles.push(
                std::thread::Builder::new()
                    .name(format!("alpha-net-exec-{exec}"))
                    .spawn(move || exec_loop(&shared))
                    .expect("exec thread spawns"),
            );
        }
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

    /// Live per-tenant fairness accounting (the same snapshot a
    /// [`Request::TenantStats`] frame returns).
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared.tenant_snapshot()
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

/// One tuning worker: drains job ids from the sharded queue until it is
/// closed and empty, tuning each through the shared service.
fn worker_loop(shared: &Shared) {
    while let Some(job_id) = shared.queue.pop() {
        let (request, queue_wait_secs, req) = {
            let mut table = shared.jobs.lock().expect("job table poisoned");
            match table.remove(&job_id) {
                Some(Job::Queued {
                    request,
                    enqueued,
                    req,
                }) => {
                    table.insert(job_id, Job::Running);
                    (request, enqueued.elapsed().as_secs_f64(), req)
                }
                // The entry must exist and be queued — submission inserted
                // it before pushing the id.  Anything else is a logic bug;
                // recover by dropping the phantom id.
                other => {
                    if let Some(job) = other {
                        table.insert(job_id, job);
                    }
                    continue;
                }
            }
        };
        // The job has left the queue: its tenant's credit frees up now.
        {
            let mut tenants = shared.tenants.lock().expect("tenant table poisoned");
            if let Some(t) = tenants.get_mut(&req.tenant) {
                t.queued = t.queued.saturating_sub(1);
            }
        }
        // The request's trace id follows the job onto this thread: every
        // span below (including the search engine's own `search.l*` spans)
        // tags itself with it, and the queue wait becomes a retroactive
        // span bracketing [enqueue, pop].
        let prev_trace = alpha_telemetry::set_current_trace_id(req.trace_id);
        let wait_us = (queue_wait_secs * 1e6) as u64;
        shared.record(req, FlightKind::QueuePop, wait_us);
        let started = Instant::now();
        // A hostile or degenerate matrix must cost its own job, never the
        // worker: a panicking search is caught and reported as a failed
        // job, keeping the worker pool at full strength.
        let work = std::panic::AssertUnwindSafe(|| {
            shared.service.tune_batch(std::slice::from_ref(&*request))
        });
        shared.tunes_executing.fetch_add(1, Ordering::Relaxed);
        let mut served = {
            let _span = alpha_telemetry::span!("net.tune_exec", job = job_id);
            match std::panic::catch_unwind(work) {
                Ok(served) => served,
                Err(payload) => {
                    let what = panic_message(payload.as_ref());
                    vec![Err(format!("tuning panicked: {what}"))]
                }
            }
        };
        shared.tunes_executing.fetch_sub(1, Ordering::Relaxed);
        let exec_us = elapsed_us(started);
        shared.record(req, FlightKind::ExecEnd, exec_us);
        // EWMA (α = 1/4) of tuning time feeds the Busy retry-after hint;
        // racy read-modify-write is fine for an estimate.
        let prev = shared.tune_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            exec_us
        } else {
            prev - prev / 4 + exec_us / 4
        };
        shared.tune_ewma_us.store(next.max(1), Ordering::Relaxed);
        let outcome = match served.pop().expect("one request yields one result") {
            Ok(tune) => {
                let summary = job_summary(
                    &tune.tuned,
                    tune.fresh_evaluations as u64,
                    tune.warm_started,
                    tune.wall_secs,
                    queue_wait_secs,
                );
                // Filed before the job turns `Done`, so a client that saw
                // it finish finds the program by digest.  The service hashed
                // the uploaded bytes (the digest is memoised in the
                // request's matrix): the cold path pays for the digest, a
                // hit never does.
                shared.by_digest.file(
                    &shared.service,
                    req.tenant,
                    request.matrix.digest(),
                    &request.device,
                );
                // The service's own handle: while this job is in the table,
                // repeat tunes of its matrix get this program back.
                Job::Done {
                    tuned: tune.tuned,
                    summary,
                }
            }
            Err(error) => {
                shared.record(req, FlightKind::Error, 0);
                Job::Failed { error }
            }
        };
        shared.finish_job(job_id, req.tenant, outcome);
        // The job's total in-server latency: admission to terminal state.
        shared.record(req, FlightKind::Reply, wait_us.saturating_add(exec_us));
        alpha_telemetry::set_current_trace_id(prev_trace);
    }
}

/// Microseconds elapsed since `since`.
fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// What a `Done` job reports about `tuned`: the design fields, read off the
/// program, and what this job cost.
fn job_summary(
    tuned: &TunedSpmv,
    fresh_evaluations: u64,
    warm_started: bool,
    wall_secs: f64,
    queue_wait_secs: f64,
) -> JobSummary {
    JobSummary {
        gflops: tuned.gflops(),
        operator_graph: tuned.operator_graph(),
        fresh_evaluations,
        warm_started,
        wall_secs,
        queue_wait_secs,
        // Lowers the native kernel eagerly: Spmv requests for the job then
        // hit a pre-resolved specialized loop.
        kernel_shape: tuned.kernel_shape(),
    }
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

/// One exec worker: runs offloaded SpMVs and posts the encoded response
/// frame back to the event loop.  As in the tuning lane, a panicking kernel
/// costs its own request, not the worker.
///
/// Where an SpMV runs follows what the daemon is doing when the worker picks
/// it up.  Alone — the only SpMV in flight and no tune executing — it fans
/// out over [`Shared::exec_pool`].  Otherwise it runs on this thread through
/// a private `Pool::new(1)`, which spawns nothing: the exec pool runs one job
/// at a time, so a second request would wait out the first on its submit
/// lock, and during a tune a fork-join waits for a worker that competes with
/// the tuning threads for the cores.  Both paths split the work into the
/// kernel's own `workers_for(0)` shares (a function of the kernel and the
/// host, never of load) and run them in the same order, so `y` is bitwise
/// the same either way.
fn exec_loop(shared: &Shared) {
    let inline = alpha_parallel::Pool::new(1);
    while let Some(task) = shared.exec_queue.pop() {
        let alone = shared.exec_inflight.load(Ordering::Relaxed) == 1
            && shared.tunes_executing.load(Ordering::Relaxed) == 0;
        let pool = if alone {
            shared.spmv_exec_pool.inc();
            &shared.exec_pool
        } else {
            shared.spmv_exec_inline.inc();
            &inline
        };
        let prev_trace = alpha_telemetry::set_current_trace_id(task.req.trace_id);
        let started = Instant::now();
        let run = std::panic::AssertUnwindSafe(|| task.tuned.run_with_pool(&task.x, pool));
        let outcome = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            Err(format!(
                "SpMV panicked: {}",
                panic_message(payload.as_ref())
            ))
        });
        shared.record(task.req, FlightKind::ExecEnd, elapsed_us(started));
        let response = match outcome {
            Ok(y) => Response::SpmvResult { y },
            Err(e) => {
                shared.record(task.req, FlightKind::Error, 0);
                Response::Error {
                    kind: ErrorKind::InvalidInput,
                    message: e,
                }
            }
        };
        // The latency the client eats: exec-queue wait plus kernel time.
        shared.record(task.req, FlightKind::Reply, elapsed_us(task.received));
        alpha_telemetry::set_current_trace_id(prev_trace);
        shared
            .completions
            .lock()
            .expect("completions poisoned")
            .push((task.token, frame_bytes(&response)));
        shared.waker.wake();
    }
}

/// Encodes a response into raw frame bytes (header + payload, one buffer)
/// ready for an outbox.
fn frame_bytes(response: &Response) -> Vec<u8> {
    response_frame(response).expect("responses fit the frame cap")
}

/// Shards of the admission queue.  Its workers drain the shards round-robin,
/// so tenants hashed to different shards take turns — the per-tenant
/// fairness floor under a storm.
const ADMISSION_SHARDS: usize = 8;

/// Reactor token of the listening socket; connection tokens count up from
/// [`FIRST_CONN_TOKEN`].
const LISTENER_TOKEN: usize = 0;
/// Reactor token of the optional metrics HTTP listener.
const METRICS_LISTENER_TOKEN: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// Upper bound on one HTTP scrape request's head; a peer that sends more
/// is answered 400 and closed.
const MAX_HTTP_REQUEST: usize = 8 * 1024;

/// Wall-clock bound on one scrape connection, open to flushed.  A scraper
/// that dribbles its request or never drains the response is torn down —
/// the HTTP lane's slow-loris sweep.
const HTTP_DEADLINE: Duration = Duration::from_secs(10);

/// Deferred-request bound per connection: while an SpMV is in flight (or
/// the client pipelines faster than responses drain) at most this many
/// decoded requests wait; beyond it the connection's read interest drops
/// until the backlog drains — per-connection backpressure, not memory
/// growth.
const MAX_DEFERRED: usize = 64;

/// Most bytes one connection is read for per readiness event, so one
/// firehose connection cannot starve the rest of a tick.
const READ_BUDGET: usize = 256 * 1024;

/// Size of the event loop's reusable receive buffer (see
/// [`FrameAssembler::read_from`]).
const READ_SCRATCH: usize = 64 * 1024;

/// Grace period for flushing outboxes after a shutdown is requested.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Per-tenant wire counters, cached per connection so the hot request path
/// never formats a label or re-resolves a registry handle.
struct ConnMetrics {
    requests: Counter,
    busy: Counter,
    errors: Counter,
}

impl ConnMetrics {
    fn for_tenant(registry: &Registry, tenant: u64) -> ConnMetrics {
        let id = tenant.to_string();
        ConnMetrics {
            requests: registry.counter("net_requests_total", &[("tenant", &id)]),
            busy: registry.counter("net_busy_total", &[("tenant", &id)]),
            errors: registry.counter("net_errors_total", &[("tenant", &id)]),
        }
    }
}

/// One scrape connection on the metrics HTTP endpoint: a tiny request in,
/// one response out, close.  Deliberately not a [`Conn`] — no deferral, no
/// pipelining, no half-close support, so the frame protocol's state
/// machine stays untouched by the HTTP lane.
struct HttpConn {
    stream: TcpStream,
    /// Buffered request bytes, capped at [`MAX_HTTP_REQUEST`].
    buf: Vec<u8>,
    /// The encoded response, built once the request head completes.
    out: Vec<u8>,
    /// Bytes of `out` already written (partial-write cursor).
    out_pos: usize,
    /// The response is built; only flushing remains.
    responded: bool,
    /// The peer is gone or the response flushed; drop at reap.
    dead: bool,
    /// Accept time — start of the [`HTTP_DEADLINE`] window.
    opened: Instant,
}

/// Per-connection state machine: reassembly in, ordered responses out.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Received request payloads waiting behind an in-flight SpMV —
    /// responses stay in request order.
    deferred: VecDeque<Vec<u8>>,
    /// Encoded response frames awaiting socket capacity.
    outbox: VecDeque<Vec<u8>>,
    /// Bytes of `outbox.front()` already written (partial-write cursor).
    out_pos: usize,
    /// An offloaded SpMV is in flight; requests behind it are deferred.
    pending_exec: bool,
    /// Tenant identity from `Hello` (0 = anonymous).
    tenant: u64,
    /// Flush the outbox, then close (framing lost, slow-loris deadline, or
    /// shutdown ack sent) — no further requests are processed.
    close_after_flush: bool,
    /// The peer sent EOF: finish answering what already arrived (half-close
    /// support), then close.
    eof: bool,
    /// The peer is gone; drop as soon as the event is processed.
    dead: bool,
    /// Interest currently registered with the reactor.
    registered: Interest,
    /// Cached per-tenant counters, re-resolved when `Hello` rebinds the
    /// tenant.
    metrics: ConnMetrics,
}

impl Conn {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.close_after_flush
                && !self.eof
                && !self.pending_exec
                && self.deferred.len() < MAX_DEFERRED,
            writable: !self.outbox.is_empty(),
        }
    }

    /// Nothing left to do for this connection: every owed response has been
    /// produced and flushed.
    fn drained(&self) -> bool {
        self.outbox.is_empty()
            && (self.close_after_flush
                || (self.eof && self.deferred.is_empty() && !self.pending_exec))
    }
}

struct EventLoop {
    reactor: Reactor,
    listener: TcpListener,
    /// The optional `GET /metrics` HTTP listener, sharing this reactor.
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
    conns: HashMap<usize, Conn>,
    /// Scrape connections, keyed in the same token space as `conns`.
    http_conns: HashMap<usize, HttpConn>,
    next_token: usize,
    shutdown_at: Option<Instant>,
    /// Receive buffer shared by every connection's reads (the loop is one
    /// thread, and a read's bytes are folded into the connection's
    /// assembler before the next read starts).
    read_scratch: Box<[u8]>,
}

impl EventLoop {
    fn new(
        reactor: Reactor,
        listener: TcpListener,
        metrics_listener: Option<TcpListener>,
        shared: Arc<Shared>,
    ) -> EventLoop {
        EventLoop {
            reactor,
            listener,
            metrics_listener,
            shared,
            conns: HashMap::new(),
            http_conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            shutdown_at: None,
            read_scratch: vec![0u8; READ_SCRATCH].into_boxed_slice(),
        }
    }

    fn run(mut self) {
        if self
            .reactor
            .register(
                self.listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READABLE,
            )
            .is_err()
        {
            return; // No reactor, no daemon.
        }
        if let Some(listener) = &self.metrics_listener {
            // A metrics listener that fails to register only disables the
            // endpoint; the daemon itself still runs.
            let _ = self.reactor.register(
                listener.as_raw_fd(),
                METRICS_LISTENER_TOKEN,
                Interest::READABLE,
            );
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            // The timeout doubles as the slow-loris sweep period and the
            // shutdown poll — no connection activity is needed to notice
            // either.
            let _ = self
                .reactor
                .poll(&mut events, Some(Duration::from_millis(100)));
            // The tick clock starts after poll returns: the histogram
            // measures loop *work*, not idle waiting.
            let tick_started = Instant::now();
            self.drain_completions();
            let batch: Vec<Event> = std::mem::take(&mut events);
            for event in batch {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if event.token == METRICS_LISTENER_TOKEN {
                    self.accept_metrics_ready();
                } else if self.http_conns.contains_key(&event.token) {
                    self.service_http(event);
                } else {
                    self.service_conn(event);
                }
            }
            self.sweep_deadlines();
            self.reap();
            let done = self.shutdown_tick();
            self.shared
                .tick_hist
                .observe_duration(tick_started.elapsed());
            if done {
                break;
            }
        }
        // Exit: close every socket, stop the exec lane (workers drain any
        // leftover tasks and exit; their completions go nowhere).
        let _ = self.reactor.deregister(self.listener.as_raw_fd());
        if let Some(listener) = &self.metrics_listener {
            let _ = self.reactor.deregister(listener.as_raw_fd());
        }
        for (_, conn) in self.conns.drain() {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.shared.deferred_depth.sub(conn.deferred.len() as i64);
        }
        for (_, conn) in self.http_conns.drain() {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        }
        self.shared.exec_queue.close();
        // The black box outlives the daemon: a configured dump path gets
        // the flight recorder's JSON on the way out, best-effort.
        if let Some(path) = &self.shared.config.flightrec_dump {
            let _ = std::fs::write(path, self.shared.flightrec.render_json());
        }
    }

    /// Delivers finished SpMV frames into their connections' outboxes and
    /// resumes the deferred request stream behind each.
    fn drain_completions(&mut self) {
        let completions: Vec<(usize, Vec<u8>)> = {
            let mut guard = self
                .shared
                .completions
                .lock()
                .expect("completions poisoned");
            std::mem::take(&mut *guard)
        };
        for (token, frame) in completions {
            self.shared.exec_inflight.fetch_sub(1, Ordering::Relaxed);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // Connection died while its SpMV ran.
            };
            conn.outbox.push_back(frame);
            conn.pending_exec = false;
            self.pump(token);
        }
    }

    /// Accepts every connection the listener has ready.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        continue; // Accept-and-drop: no new sessions.
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Nagle off: responses are complete frames, and letting
                    // them sit waiting for a delayed ACK adds ~40 ms to
                    // every round trip.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .reactor
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue; // Shed the connection under fd pressure.
                    }
                    self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            assembler: FrameAssembler::with_deadline(
                                self.shared.config.frame_deadline,
                            ),
                            deferred: VecDeque::new(),
                            outbox: VecDeque::new(),
                            out_pos: 0,
                            pending_exec: false,
                            tenant: 0,
                            close_after_flush: false,
                            eof: false,
                            dead: false,
                            registered: Interest::READABLE,
                            metrics: ConnMetrics::for_tenant(&self.shared.registry, 0),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // Transient accept failure; retry next tick.
            }
        }
    }

    /// Accepts every scrape connection the metrics listener has ready.
    fn accept_metrics_ready(&mut self) {
        let Some(listener) = &self.metrics_listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .reactor
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.http_conns.insert(
                        token,
                        HttpConn {
                            stream,
                            buf: Vec::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            responded: false,
                            dead: false,
                            opened: Instant::now(),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Drives one scrape connection: buffer the request head, answer once
    /// it completes, flush, close.  The exposition is rendered from a
    /// registry snapshot — no lock is held across the socket write, and a
    /// stalled scraper only stalls its own connection.
    fn service_http(&mut self, event: Event) {
        let Some(conn) = self.http_conns.get_mut(&event.token) else {
            return;
        };
        if (event.readable || event.closed) && !conn.responded {
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        if !head_complete(&conn.buf) {
                            conn.dead = true; // EOF before a full request.
                        }
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        if conn.buf.len() > MAX_HTTP_REQUEST {
                            break; // Judged below: oversized head is a 400.
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if !conn.dead {
                if conn.buf.len() > MAX_HTTP_REQUEST {
                    conn.out =
                        http_response("400 Bad Request", TEXT_PLAIN, "request head too large\n");
                    conn.responded = true;
                } else if head_complete(&conn.buf) {
                    conn.out = match http_route(&conn.buf) {
                        HttpRoute::Metrics => {
                            self.shared.http_scrapes.inc();
                            http_response(
                                "200 OK",
                                PROMETHEUS_TEXT,
                                &self.shared.registry.render_prometheus(),
                            )
                        }
                        HttpRoute::FlightRec => http_response(
                            "200 OK",
                            "application/json",
                            &self.shared.flightrec.render_json(),
                        ),
                        HttpRoute::MethodNotAllowed => http_response(
                            "405 Method Not Allowed",
                            TEXT_PLAIN,
                            "only GET is supported\n",
                        ),
                        HttpRoute::NotFound => http_response(
                            "404 Not Found",
                            TEXT_PLAIN,
                            "try GET /metrics or GET /debug/flightrec\n",
                        ),
                    };
                    conn.responded = true;
                }
            }
        }
        if conn.responded && !conn.dead {
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.dead = true; // Flushed: HTTP/1.0, connection closes.
            } else if !conn.dead {
                let _ =
                    self.reactor
                        .modify(conn.stream.as_raw_fd(), event.token, Interest::WRITABLE);
            }
        }
    }

    /// Handles one readiness event for one connection.
    fn service_conn(&mut self, event: Event) {
        if !self.conns.contains_key(&event.token) {
            return; // Stale event for a connection dropped earlier this tick.
        }
        if event.readable || event.closed {
            self.read_ready(event.token);
        }
        if event.writable {
            self.pump(event.token);
        }
    }

    /// Reads whatever the socket has (bounded per tick so one firehose
    /// connection cannot starve the rest), feeds the assembler, and
    /// processes completed frames in order.
    fn read_ready(&mut self, token: usize) {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut budget = READ_BUDGET;
            while budget > 0 {
                match conn.assembler.read_from(
                    &mut conn.stream,
                    &mut self.read_scratch,
                    budget,
                    &mut frames,
                ) {
                    Ok(0) => {
                        // Peer EOF: answer what already arrived (the peer
                        // may have half-closed), then close.
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => budget = budget.saturating_sub(n),
                    Err(ProtoError::Io(e)) => match e.kind() {
                        std::io::ErrorKind::WouldBlock => break,
                        std::io::ErrorKind::Interrupted => continue,
                        _ => {
                            conn.dead = true;
                            break;
                        }
                    },
                    Err(e) => {
                        // Framing lost (bad magic/version/length): one
                        // best-effort typed error, then the connection
                        // cannot continue.
                        conn.outbox.push_back(frame_bytes(&Response::Error {
                            kind: ErrorKind::BadFrame,
                            message: e.to_string(),
                        }));
                        conn.close_after_flush = true;
                        break;
                    }
                }
            }
            self.shared.deferred_depth.add(frames.len() as i64);
            conn.deferred.extend(frames);
        }
        self.process_deferred(token);
        self.pump(token);
    }

    /// Processes a connection's deferred requests in order, stopping at the
    /// first SpMV offload (responses must stay FIFO per connection).
    fn process_deferred(&mut self, token: usize) {
        loop {
            let payload = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.pending_exec || conn.close_after_flush {
                    return;
                }
                match conn.deferred.pop_front() {
                    Some(entry) => entry,
                    None => return,
                }
            };
            self.shared.deferred_depth.sub(1);
            self.handle_payload(token, &payload);
        }
    }

    /// Decodes and dispatches one request payload for `token`.
    fn handle_payload(&mut self, token: usize, payload: &[u8]) {
        if let Some(conn) = self.conns.get_mut(&token) {
            // Every arriving frame counts against its tenant, decodable or
            // not — the scrape-side view of per-tenant demand.
            conn.metrics.requests.inc();
        }
        // The assembler only completes frames stamped `PROTOCOL_VERSION`.
        let (trace_id, request) = match decode_request_traced(payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                // The frame boundary held, so the session survives a bad
                // payload with a typed error.
                self.push_response(
                    token,
                    &Response::Error {
                        kind: ErrorKind::BadFrame,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        // The request's trace id scopes every span and flight event below —
        // dispatch runs to completion on this thread before the next frame.
        let prev_trace = alpha_telemetry::set_current_trace_id(trace_id);
        self.dispatch(token, trace_id, request);
        alpha_telemetry::set_current_trace_id(prev_trace);
    }

    /// Dispatches one decoded request.
    fn dispatch(&mut self, token: usize, trace_id: u64, request: Request) {
        let shared = self.shared.clone();
        match request {
            Request::Hello { client_id } => {
                let mut tenants = shared.tenants.lock().expect("tenant table poisoned");
                let weight = shared.tenant_row(&mut tenants, client_id).weight;
                drop(tenants);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.tenant = client_id;
                    conn.metrics = ConnMetrics::for_tenant(&shared.registry, client_id);
                }
                self.push_response(token, &Response::Welcome { client_id, weight });
            }
            Request::TenantStats => {
                self.push_response(token, &Response::Tenants(shared.tenant_snapshot()));
            }
            Request::SubmitTune { matrix, device } => {
                let tenant = self.conns.get(&token).map(|c| c.tenant).unwrap_or(0);
                let response = {
                    let _span = alpha_telemetry::span!("net.admission", tenant = tenant);
                    submit_tune(&shared, tenant, trace_id, matrix, device)
                };
                self.push_response(token, &response);
            }
            Request::SubmitTuneRef {
                digest,
                rows,
                cols,
                nnz,
                device,
            } => {
                let tenant = self.conns.get(&token).map(|c| c.tenant).unwrap_or(0);
                let response = {
                    let _span = alpha_telemetry::span!("net.admission", tenant = tenant);
                    submit_tune_ref(
                        &shared,
                        tenant,
                        trace_id,
                        digest,
                        [rows, cols, nnz],
                        &device,
                    )
                };
                self.push_response(token, &response);
            }
            Request::PollJob { job_id } => {
                let table = shared.jobs.lock().expect("job table poisoned");
                let state = match table.get(&job_id) {
                    None => JobState::Unknown,
                    Some(Job::Queued { .. }) => JobState::Queued,
                    Some(Job::Running) => JobState::Running,
                    Some(Job::Done { summary, .. }) => JobState::Done(summary.clone()),
                    Some(Job::Failed { error }) => JobState::Failed {
                        error: error.clone(),
                    },
                };
                drop(table);
                self.push_response(token, &Response::Status { job_id, state });
            }
            Request::Spmv { job_id, x } => {
                let tenant = self.conns.get(&token).map(|c| c.tenant).unwrap_or(0);
                let tuned = {
                    let table = shared.jobs.lock().expect("job table poisoned");
                    match table.get(&job_id) {
                        None => Err(Response::Error {
                            kind: ErrorKind::UnknownJob,
                            message: format!(
                                "job {job_id} was never issued or has been garbage-collected"
                            ),
                        }),
                        Some(Job::Queued { .. }) | Some(Job::Running) => Err(Response::Error {
                            kind: ErrorKind::JobNotReady,
                            message: format!("job {job_id} is still tuning; poll until Done"),
                        }),
                        Some(Job::Failed { error }) => Err(Response::Error {
                            kind: ErrorKind::JobNotReady,
                            message: format!("job {job_id} failed: {error}"),
                        }),
                        Some(Job::Done { tuned, .. }) => Ok(tuned.clone()),
                    }
                };
                match tuned {
                    Err(response) => self.push_response(token, &response),
                    Ok(tuned) => {
                        // Offload: the kernel must not run on the loop.  The
                        // connection defers its later requests until the
                        // response frame comes back through `completions`.
                        let req = RequestTag {
                            lane: Lane::Spmv,
                            tenant,
                            trace_id,
                            job_id,
                        };
                        shared.exec_inflight.fetch_add(1, Ordering::Relaxed);
                        let task = ExecTask {
                            token,
                            tuned,
                            x,
                            received: Instant::now(),
                            req,
                        };
                        match shared.exec_queue.try_push(0, task) {
                            Ok(()) => {
                                shared.record(req, FlightKind::Admitted, 0);
                                if let Some(conn) = self.conns.get_mut(&token) {
                                    conn.pending_exec = true;
                                }
                            }
                            Err(_) => {
                                shared.exec_inflight.fetch_sub(1, Ordering::Relaxed);
                                let busy = Response::Busy {
                                    queue_capacity: shared.exec_queue.capacity() as u64,
                                    retry_after_ms: 1,
                                };
                                self.push_response(token, &shared.shed(req, busy));
                            }
                        }
                    }
                }
            }
            Request::StoreStats => {
                self.push_response(token, &Response::Stats(shared.stats()));
            }
            Request::Metrics => {
                // Rendering walks a snapshot of the registry — bounded,
                // allocation-only work; nothing here can block the loop.
                self.push_response(
                    token,
                    &Response::MetricsText {
                        text: shared.registry.render_prometheus(),
                    },
                );
            }
            Request::Trace => {
                // Hand the server-side half of every recorded span to the
                // client, plus the server clock "now" so the fetch round
                // trip can estimate the clock offset between the domains.
                let spans: Vec<alpha_telemetry::OwnedSpan> = alpha_telemetry::drain_spans()
                    .iter()
                    .map(alpha_telemetry::OwnedSpan::from)
                    .collect();
                self.push_response(
                    token,
                    &Response::TraceSpans {
                        server_now_us: alpha_telemetry::now_us(),
                        spans,
                    },
                );
            }
            Request::Shutdown => {
                shared.initiate_shutdown();
                self.push_response(token, &Response::ShuttingDown);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_flush = true;
                }
            }
        }
    }

    /// Queues a response frame on a connection and re-arms its interest.
    fn push_response(&mut self, token: usize, response: &Response) {
        if let Some(conn) = self.conns.get_mut(&token) {
            // Shed and failed requests are tallied here, at the single
            // choke point every response passes through.
            match response {
                Response::Busy { .. } => conn.metrics.busy.inc(),
                Response::Error { .. } => conn.metrics.errors.inc(),
                _ => {}
            }
            // The reply-flush span inherits the dispatching request's trace
            // id from the thread-local set in `handle_payload`.
            let _span = alpha_telemetry::span!("net.reply", tenant = conn.tenant);
            conn.outbox.push_back(frame_bytes(response));
        }
    }

    /// Writes as much outbox as the socket accepts and reconciles the
    /// connection's reactor interest with its current state.
    fn pump(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some(front) = conn.outbox.front() {
            match conn.stream.write(&front[conn.out_pos..]) {
                Ok(n) => {
                    conn.out_pos += n;
                    if conn.out_pos == front.len() {
                        conn.outbox.pop_front();
                        conn.out_pos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.drained() {
            conn.dead = true;
        }
        let desired = conn.desired_interest();
        if desired != conn.registered
            && !conn.dead
            && self
                .reactor
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.registered = desired;
        }
    }

    /// Tears down slow-loris connections: a partial frame older than the
    /// configured deadline closes the session (best-effort typed error
    /// first, matching the blocking server's `Truncated` behaviour).
    fn sweep_deadlines(&mut self) {
        let overdue: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.assembler.overdue() && !conn.close_after_flush)
            .map(|(token, _)| *token)
            .collect();
        for token in overdue {
            self.push_response(
                token,
                &Response::Error {
                    kind: ErrorKind::BadFrame,
                    message: "frame is truncated".to_string(),
                },
            );
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
            self.pump(token);
        }
        // The HTTP lane gets the same treatment: a scrape that has not
        // finished within its deadline — request dribbled or response
        // undrained — is torn down.
        for conn in self.http_conns.values_mut() {
            if conn.opened.elapsed() > HTTP_DEADLINE {
                conn.dead = true;
            }
        }
    }

    /// Drops dead connections and releases their reactor registrations.
    fn reap(&mut self) {
        let dead: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.dead)
            .map(|(token, _)| *token)
            .collect();
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.reactor.deregister(conn.stream.as_raw_fd());
                self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
                self.shared.deferred_depth.sub(conn.deferred.len() as i64);
            }
        }
        let dead_http: Vec<usize> = self
            .http_conns
            .iter()
            .filter(|(_, conn)| conn.dead)
            .map(|(token, _)| *token)
            .collect();
        for token in dead_http {
            if let Some(conn) = self.http_conns.remove(&token) {
                let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            }
        }
    }

    /// Returns true when the loop should exit: shutdown was requested and
    /// every outbox has drained (or the grace period expired).
    fn shutdown_tick(&mut self) -> bool {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let at = *self.shutdown_at.get_or_insert_with(Instant::now);
        let drained = self.conns.values().all(|c| c.outbox.is_empty())
            && self.shared.exec_inflight.load(Ordering::Relaxed) == 0;
        drained || at.elapsed() > SHUTDOWN_GRACE
    }
}

/// True once the buffered bytes contain a complete HTTP request head
/// (blank line), in either CRLF or bare-LF framing.
fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// `Content-Type` of the Prometheus text exposition; `version=0.0.4` is the
/// exposition format version scrapers negotiate on.
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4";
/// `Content-Type` of the plain diagnostic bodies (404/405/400).
const TEXT_PLAIN: &str = "text/plain";

/// Where an HTTP request line lands on the debug endpoint.
enum HttpRoute {
    /// `GET /metrics` — the Prometheus text exposition.
    Metrics,
    /// `GET /debug/flightrec` — the flight recorder's JSON dump.
    FlightRec,
    /// A known path with any method but `GET` — `405`, `Allow: GET`.
    MethodNotAllowed,
    /// Everything else.
    NotFound,
}

/// Routes one request line.  Query strings are tolerated on known paths —
/// Prometheus sends none, humans with curl sometimes do.
fn http_route(buf: &[u8]) -> HttpRoute {
    let line = buf.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let line = std::str::from_utf8(line)
        .unwrap_or("")
        .trim_end_matches('\r');
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or("");
    let known = path == "/metrics" || path == "/debug/flightrec";
    match (method, known) {
        ("GET", true) if path == "/metrics" => HttpRoute::Metrics,
        ("GET", true) => HttpRoute::FlightRec,
        (_, true) => HttpRoute::MethodNotAllowed,
        _ => HttpRoute::NotFound,
    }
}

/// Builds a minimal `HTTP/1.0` response with the headers a scraper needs.
/// A `405` additionally advertises `Allow: GET`.
fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let allow = if status.starts_with("405") {
        "Allow: GET\r\n"
    } else {
        ""
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n{allow}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The profile a tune submission's device names, or the typed error a
/// daemon that is shutting down, or does not know the device, answers.
fn submission_device(shared: &Shared, device: &str) -> Result<DeviceProfile, Response> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(Response::Error {
            kind: ErrorKind::ShuttingDown,
            message: "daemon is shutting down; no new work accepted".to_string(),
        });
    }
    device_by_name(device).ok_or_else(|| Response::Error {
        kind: ErrorKind::UnknownDevice,
        message: format!("unknown device {device:?} (try A100, RTX2080 or TestGPU)"),
    })
}

/// Admission + job-table insert for one tune submission, shared by the
/// event loop's dispatch.
fn submit_tune(
    shared: &Shared,
    tenant: u64,
    trace_id: u64,
    matrix: alpha_matrix::CsrMatrix,
    device: String,
) -> Response {
    let profile = match submission_device(shared, &device) {
        Ok(profile) => profile,
        Err(refused) => return refused,
    };
    let req = RequestTag {
        lane: Lane::Tune,
        tenant,
        trace_id,
        job_id: 0,
    };
    if let Err(busy) = shared.try_admit(tenant) {
        return shared.shed(req, busy);
    }
    let request = TuneRequest::new(matrix, profile);
    let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
    let req = RequestTag { job_id, ..req };
    shared.jobs.lock().expect("job table poisoned").insert(
        job_id,
        Job::Queued {
            request: Box::new(request),
            enqueued: Instant::now(),
            req,
        },
    );
    match shared.queue.try_push(tenant, job_id) {
        Ok(()) => {
            shared.record(req, FlightKind::Admitted, 0);
            Response::Submitted { job_id }
        }
        Err(push_error) => {
            // Admission failed at the global bound: nothing must remain of
            // the job.
            shared
                .jobs
                .lock()
                .expect("job table poisoned")
                .remove(&job_id);
            match push_error {
                PushError::Full(_) => {
                    shared.unadmit(tenant, true);
                    let busy = Response::Busy {
                        queue_capacity: shared.queue.capacity() as u64,
                        retry_after_ms: shared.retry_after_ms(),
                    };
                    shared.shed(req, busy)
                }
                PushError::Closed(_) => {
                    shared.unadmit(tenant, false);
                    Response::Error {
                        kind: ErrorKind::ShuttingDown,
                        message: "daemon is shutting down; no new work accepted".to_string(),
                    }
                }
            }
        }
    }
}

/// Answers a tune that names its matrix by digest, on the event loop: a
/// lookup in the tenant's view and the service's resident map, then either
/// [`Response::NeedMatrix`] or the `Done` status of a job that holds the
/// program the tenant's upload built, if its shape is the one named — the
/// reply a [`Request::PollJob`] of that job gives, so a warm tune is one
/// round trip.  That job is the one an earlier hit on the same upload
/// filed, while the job table still has it (its summary is read under the
/// lock that finds it), else a new one: a burst of hits takes one terminal
/// slot.  Nothing is queued, so admission credit is not consulted.
fn submit_tune_ref(
    shared: &Shared,
    tenant: u64,
    trace_id: u64,
    digest: [u8; 32],
    shape: [u64; 3],
    device: &str,
) -> Response {
    let started = Instant::now();
    let profile = match submission_device(shared, device) {
        Ok(profile) => profile,
        Err(refused) => return refused,
    };
    let hit = shared
        .by_digest
        .lookup(&shared.service, tenant, digest, &profile)
        .filter(|hit| {
            let stats = hit.program.matrix_stats();
            [stats.rows, stats.cols, stats.nnz].map(|n| n as u64) == shape
        });
    let Some(hit) = hit else {
        shared.by_reference_need_matrix.inc();
        return Response::NeedMatrix;
    };
    shared.by_reference_hit.inc();
    let live = hit.job.and_then(|job_id| {
        match shared.jobs.lock().expect("job table poisoned").get(&job_id) {
            Some(Job::Done { summary, .. }) => Some((job_id, summary.clone())),
            _ => None,
        }
    });
    let (job_id, summary) = match live {
        Some(live) => live,
        None => {
            let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            let mut tenants = shared.tenants.lock().expect("tenant table poisoned");
            shared.tenant_row(&mut tenants, tenant).submitted += 1;
            drop(tenants);
            let tuned = hit.program;
            let wall_secs = started.elapsed().as_secs_f64();
            let summary = job_summary(&tuned, 0, hit.warm_started, wall_secs, 0.0);
            shared.finish_job(
                job_id,
                tenant,
                Job::Done {
                    tuned,
                    summary: summary.clone(),
                },
            );
            shared
                .by_digest
                .answered_by(tenant, digest, &profile, job_id);
            (job_id, summary)
        }
    };
    let req = RequestTag {
        lane: Lane::TuneRef,
        tenant,
        trace_id,
        job_id,
    };
    shared.record(req, FlightKind::Admitted, 0);
    shared.record(req, FlightKind::Reply, elapsed_us(started));
    Response::Status {
        job_id,
        state: JobState::Done(summary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_names_resolve_case_insensitively() {
        assert_eq!(device_by_name("a100").unwrap().name, "A100");
        assert_eq!(device_by_name("RTX2080").unwrap().name, "RTX2080");
        assert_eq!(device_by_name("testgpu").unwrap().name, "TestGPU");
        assert!(device_by_name("H100").is_none());
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.queue_capacity > 0);
        assert!(config.max_terminal_jobs > 0);
        assert!(config.frame_deadline >= Duration::from_secs(1));
        assert!(config.tenant_weights.is_empty());
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
