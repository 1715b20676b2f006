//! The event loop: one thread multiplexes every connection through the
//! [`Reactor`] — accept, frame reassembly, dispatch into the lanes, ordered
//! responses out, deadline sweeps and shutdown.

use super::exec_lane::offload_spmv;
use super::http::HttpConn;
use super::tune_lane::{submit_tune, submit_tune_ref};
use super::*;
use crate::proto::decode_request_traced;

/// Reactor token of the listening socket; connection tokens count up from
/// [`FIRST_CONN_TOKEN`].
const LISTENER_TOKEN: usize = 0;
/// Reactor token of the optional metrics HTTP listener.
const METRICS_LISTENER_TOKEN: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

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
}

impl Conn {
    fn new(stream: TcpStream, shared: &Shared) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::with_deadline(shared.config.frame_deadline),
            deferred: VecDeque::new(),
            outbox: VecDeque::new(),
            out_pos: 0,
            pending_exec: false,
            close_after_flush: false,
            eof: false,
            dead: false,
            registered: Interest::READABLE,
        }
    }

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

pub(super) struct EventLoop {
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
    pub(super) fn new(
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

    pub(super) fn run(mut self) {
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
                    self.accept_ready(false);
                } else if event.token == METRICS_LISTENER_TOKEN {
                    self.accept_ready(true);
                } else if let Some(conn) = self.http_conns.get_mut(&event.token) {
                    conn.service(event, &self.shared, &self.reactor);
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
        self.conns.values_mut().for_each(|conn| conn.dead = true);
        self.reap();
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

    /// Accepts every connection the frame listener — or, with `metrics`, the
    /// metrics listener — has ready: nonblocking, Nagle off (responses are
    /// complete frames, and letting them sit waiting for a delayed ACK adds
    /// ~40 ms to every round trip), registered for reads under a fresh
    /// token.  While the daemon shuts down the frame lane accepts and drops.
    fn accept_ready(&mut self, metrics: bool) {
        let listener = match (metrics, &self.metrics_listener) {
            (false, _) => &self.listener,
            (true, Some(listener)) => listener,
            (true, None) => return,
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if !metrics && self.shared.shutdown.load(Ordering::SeqCst) {
                        continue; // Accept-and-drop: no new sessions.
                    }
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
                        continue; // Shed the connection under fd pressure.
                    }
                    if metrics {
                        self.http_conns.insert(token, HttpConn::new(stream));
                    } else {
                        self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
                        self.conns.insert(token, Conn::new(stream, &self.shared));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // Transient accept failure; retry next tick.
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
        // Every arriving frame counts, decodable or not — the scrape-side
        // view of demand.
        self.shared.requests.inc();
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
            Request::SubmitTune { matrix, device } => {
                let response = {
                    let _span = alpha_telemetry::span!("net.admission");
                    submit_tune(&shared, trace_id, matrix, device)
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
                let response = {
                    let _span = alpha_telemetry::span!("net.admission");
                    submit_tune_ref(&shared, trace_id, digest, [rows, cols, nnz], &device)
                };
                self.push_response(token, &response);
            }
            Request::PollJob { job_id } => {
                let state = shared.job_state(job_id);
                self.push_response(token, &Response::Status { job_id, state });
            }
            Request::Spmv { job_id, x } => {
                let req = RequestTag {
                    lane: Lane::Spmv,
                    trace_id,
                    job_id,
                };
                match offload_spmv(&shared, token, req, x) {
                    // The connection defers its later requests until the
                    // response frame comes back through `completions`.
                    Ok(()) => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.pending_exec = true;
                        }
                    }
                    Err(response) => self.push_response(token, &response),
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
                self.push_response(
                    token,
                    &Response::TraceSpans {
                        server_now_us: alpha_telemetry::now_us(),
                        spans: alpha_telemetry::drain_spans(),
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
                Response::Busy { .. } => self.shared.busy.inc(),
                Response::Error { .. } => self.shared.errors.inc(),
                _ => {}
            }
            // The reply-flush span inherits the dispatching request's trace
            // id from the thread-local set in `handle_payload`.
            let _span = alpha_telemetry::span!("net.reply");
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
    }

    /// Drops dead connections — and scrapes that are done or overdue — and
    /// releases their reactor registrations.
    fn reap(&mut self) {
        let (reactor, shared) = (&self.reactor, &self.shared);
        self.conns.retain(|_, conn| {
            if conn.dead {
                let _ = reactor.deregister(conn.stream.as_raw_fd());
                shared.open_connections.fetch_sub(1, Ordering::Relaxed);
                shared.deferred_depth.sub(conn.deferred.len() as i64);
            }
            !conn.dead
        });
        self.http_conns.retain(|_, conn| {
            let done = conn.done();
            if done {
                let _ = reactor.deregister(conn.stream.as_raw_fd());
            }
            !done
        });
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
