//! The typed `alpha-net` client: one TCP connection, blocking
//! request/response calls, typed errors.

use crate::proto::{
    decode_response, read_frame, request_frame, spmv_frame, submit_frame, ErrorKind, JobState,
    JobSummary, ProtoError, Request, Response, ServerStats,
};
use alpha_matrix::{CsrMatrix, Scalar};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One trace fetch: the server's half of a distributed trace plus the
/// local timestamps of the fetch round trip, which [`stitch`'s clock
/// estimate](alpha_telemetry::clock_offset_us) turns into a clock-domain
/// offset.
#[derive(Debug)]
pub struct TraceFetch {
    /// The server's µs-since-its-epoch clock when it answered.
    pub server_now_us: u64,
    /// Every span the server had recorded (its ring is drained).
    pub spans: Vec<alpha_telemetry::SpanEvent>,
    /// Client clock when the fetch request was written, µs.
    pub sent_us: u64,
    /// Client clock when the response arrived, µs.
    pub received_us: u64,
}

impl TraceFetch {
    /// The estimated client-minus-server clock offset, suitable for
    /// [`alpha_telemetry::stitch_chrome_trace`].
    pub fn clock_offset_us(&self) -> i64 {
        alpha_telemetry::clock_offset_us(self.sent_us, self.received_us, self.server_now_us)
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// The wire itself failed (I/O, framing, decoding).
    Proto(ProtoError),
    /// The daemon answered with a typed error.
    Server {
        /// Machine-readable classification.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// Admission control rejected the submission — the job queue is full.
    /// Nothing was enqueued; back off and retry.
    Busy {
        /// The daemon's queue bound, for sizing the backoff.
        queue_capacity: u64,
        /// The daemon's estimate of when retrying is worthwhile, in
        /// milliseconds (0 = immediately).
        retry_after_ms: u64,
    },
    /// The awaited job finished in failure.
    JobFailed {
        /// The failed job.
        job_id: u64,
        /// The server-side error.
        error: String,
    },
    /// The daemon sent a response that does not answer the request.
    UnexpectedResponse(String),
    /// [`Client::wait_job`] exceeded its deadline.
    Timeout {
        /// The job still pending when the deadline passed.
        job_id: u64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Proto(e) => write!(f, "{e}"),
            NetError::Server { kind, message } => write!(f, "server error [{kind}]: {message}"),
            NetError::Busy {
                queue_capacity,
                retry_after_ms,
            } => write!(
                f,
                "daemon is busy (job queue of {queue_capacity} is full); retry in ~{retry_after_ms} ms"
            ),
            NetError::JobFailed { job_id, error } => write!(f, "job {job_id} failed: {error}"),
            NetError::UnexpectedResponse(what) => {
                write!(f, "daemon sent an unexpected response: {what}")
            }
            NetError::Timeout { job_id } => write!(f, "timed out waiting for job {job_id}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

impl From<NetError> for String {
    fn from(e: NetError) -> Self {
        e.to_string()
    }
}

/// A blocking client for one `alpha-net` daemon.
///
/// Each client owns one TCP connection and issues one request at a time;
/// spin up several clients for concurrency (the daemon multiplexes every
/// connection on one event loop and runs the work on its worker pools).
pub struct Client {
    stream: TcpStream,
    /// xorshift64 state for minting per-request trace ids; seeded from
    /// hasher entropy at connect, kept odd so the sequence never hits 0
    /// (0 means "untraced" on the wire).
    trace_state: u64,
    /// Every job a [`Client::submit_tune`] was answered with already `Done`,
    /// with its summary, until [`Client::wait_job`] of that job takes it
    /// without asking.
    answered: HashMap<u64, JobSummary>,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr).map_err(ProtoError::from)?;
        stream.set_nodelay(true).map_err(ProtoError::from)?;
        let seed = {
            use std::hash::{BuildHasher, Hasher};
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
                | 1
        };
        Ok(Client {
            stream,
            trace_state: seed,
            answered: HashMap::new(),
        })
    }

    /// Mints the next request's trace id: a nonzero 64-bit value unique
    /// (with overwhelming probability) across clients and requests.
    fn mint_trace_id(&mut self) -> u64 {
        let mut x = self.trace_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.trace_state = x;
        x
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, NetError> {
        self.exchange(client_span_name(request), |trace_id| {
            request_frame(trace_id, request)
        })
    }

    /// One request/response exchange.  `frame` builds the complete request
    /// frame for the trace id it is handed; the frame goes out in a single
    /// write.  A typed error comes back as [`NetError::Server`], a shed
    /// request as [`NetError::Busy`].
    fn exchange(
        &mut self,
        span: &'static str,
        frame: impl FnOnce(u64) -> Result<Vec<u8>, ProtoError>,
    ) -> Result<Response, NetError> {
        // Every request is traced: mint an id, scope this thread's spans to
        // it, and carry it in the frame so the server's spans and flight
        // events tag themselves with the same id.
        let trace_id = self.mint_trace_id();
        let prev_trace = alpha_telemetry::set_current_trace_id(trace_id);
        let result = (|| -> Result<Response, NetError> {
            let _span = alpha_telemetry::span!(span);
            self.stream
                .write_all(&frame(trace_id)?)
                .map_err(ProtoError::from)?;
            let payload = read_frame(&mut self.stream)?;
            Ok(decode_response(&payload)?)
        })();
        alpha_telemetry::set_current_trace_id(prev_trace);
        match result? {
            Response::Error { kind, message } => Err(NetError::Server { kind, message }),
            Response::Busy {
                queue_capacity,
                retry_after_ms,
            } => Err(NetError::Busy {
                queue_capacity,
                retry_after_ms,
            }),
            other => Ok(other),
        }
    }

    /// Submits `matrix` for tuning on the named device, returning the job
    /// id.  A full queue is [`NetError::Busy`] — nothing was enqueued.
    ///
    /// The matrix is first named by its BLAKE2b-256 [`CsrMatrix::digest`] (one
    /// small frame, [`Request::SubmitTuneRef`]; the digest is computed on
    /// the first submit of a matrix value and memoised in it, so a repeat
    /// submit of the same value costs no hashing).  A daemon still holding
    /// the program an upload of the same content built answers with a job
    /// that is already `Done`, and its summary: the client keeps it until
    /// [`Client::wait_job`] of that job returns it without a round trip, so
    /// a warm tune is one request.
    /// Otherwise the daemon answers [`Response::NeedMatrix`] and the matrix
    /// is sent in full ([`Request::SubmitTune`]), to be polled.  Either way
    /// the caller gets a job id.
    pub fn submit_tune(&mut self, matrix: &CsrMatrix, device: &str) -> Result<u64, NetError> {
        let by_reference = Request::SubmitTuneRef {
            digest: matrix.digest(),
            rows: matrix.rows() as u64,
            cols: matrix.cols() as u64,
            nnz: matrix.nnz() as u64,
            device: device.to_string(),
        };
        let response = match self.roundtrip(&by_reference)? {
            Response::NeedMatrix => self.exchange("client.submit", |trace_id| {
                submit_frame(trace_id, matrix, device)
            })?,
            answered => answered,
        };
        match response {
            Response::Submitted { job_id } => Ok(job_id),
            Response::Status {
                job_id,
                state: JobState::Done(summary),
            } => {
                self.answered.insert(job_id, summary);
                Ok(job_id)
            }
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// [`Client::submit_tune`] with bounded retry on backpressure: sleeps
    /// `backoff` between attempts until the daemon admits the job or
    /// `deadline` elapses.  Every other error is returned immediately.
    pub fn submit_tune_with_backoff(
        &mut self,
        matrix: &CsrMatrix,
        device: &str,
        backoff: Duration,
        deadline: Duration,
    ) -> Result<u64, NetError> {
        self.submit_tune_counting_backoff(matrix, device, backoff, deadline)
            .map(|(job_id, _)| job_id)
    }

    /// [`Client::submit_tune_with_backoff`], additionally reporting how
    /// many [`NetError::Busy`] rejections were absorbed before admission —
    /// the backpressure signal a load generator wants to record.
    ///
    /// When the daemon's `Busy` carries a nonzero `retry_after_ms` hint, the
    /// wait honours it (capped at 4x the caller's `backoff` so a pessimistic
    /// daemon estimate cannot stall the client); otherwise the caller's
    /// `backoff` is used as-is.
    pub fn submit_tune_counting_backoff(
        &mut self,
        matrix: &CsrMatrix,
        device: &str,
        backoff: Duration,
        deadline: Duration,
    ) -> Result<(u64, u64), NetError> {
        let start = Instant::now();
        let mut rejections = 0u64;
        loop {
            match self.submit_tune(matrix, device) {
                Ok(job_id) => return Ok((job_id, rejections)),
                Err(NetError::Busy {
                    queue_capacity,
                    retry_after_ms,
                }) => {
                    rejections += 1;
                    if start.elapsed() >= deadline {
                        return Err(NetError::Busy {
                            queue_capacity,
                            retry_after_ms,
                        });
                    }
                    let hinted = Duration::from_millis(retry_after_ms);
                    let wait = if retry_after_ms > 0 {
                        hinted.min(backoff.saturating_mul(4)).max(backoff)
                    } else {
                        backoff
                    };
                    std::thread::sleep(wait);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Asks the daemon for a job's current state; it always sends a
    /// request.
    pub fn poll_job(&mut self, job_id: u64) -> Result<JobState, NetError> {
        match self.roundtrip(&Request::PollJob { job_id })? {
            Response::Status {
                job_id: answered,
                state,
            } if answered == job_id => Ok(state),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Polls `job_id` every `poll_interval` until it is terminal, then
    /// returns its summary.  A job a [`Client::submit_tune`] was answered
    /// with by reference came back `Done` with its summary, which is
    /// returned without sending a frame (once); any other job is polled,
    /// the first poll at once.  A failed job is [`NetError::JobFailed`]; a
    /// job the daemon no longer knows is an [`ErrorKind::UnknownJob`] server
    /// error; exceeding `deadline` is [`NetError::Timeout`].
    pub fn wait_job(
        &mut self,
        job_id: u64,
        poll_interval: Duration,
        deadline: Duration,
    ) -> Result<JobSummary, NetError> {
        if let Some(summary) = self.answered.remove(&job_id) {
            return Ok(summary);
        }
        let start = Instant::now();
        loop {
            match self.poll_job(job_id)? {
                JobState::Done(summary) => return Ok(summary),
                JobState::Failed { error } => return Err(NetError::JobFailed { job_id, error }),
                JobState::Unknown => {
                    return Err(NetError::Server {
                        kind: ErrorKind::UnknownJob,
                        message: format!("job {job_id} is unknown to the daemon"),
                    });
                }
                JobState::Queued | JobState::Running => {
                    if start.elapsed() >= deadline {
                        return Err(NetError::Timeout { job_id });
                    }
                    std::thread::sleep(poll_interval);
                }
            }
        }
    }

    /// Runs `y = A·x` remotely with a finished job's tuned kernel.  Under
    /// extreme load the daemon may shed the request with
    /// [`NetError::Busy`] (its execution lane is saturated) — nothing ran;
    /// retry after the hinted delay.
    pub fn spmv(&mut self, job_id: u64, x: &[Scalar]) -> Result<Vec<Scalar>, NetError> {
        match self.exchange("client.spmv", |trace_id| spmv_frame(trace_id, job_id, x))? {
            Response::SpmvResult { y } => Ok(y),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's store and job-table counters.
    pub fn store_stats(&mut self) -> Result<ServerStats, NetError> {
        match self.roundtrip(&Request::StoreStats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's full telemetry registry as a Prometheus text
    /// exposition — every counter, gauge and histogram the process has
    /// recorded, not just the curated [`ServerStats`] subset.  The same
    /// bytes are served over plain HTTP when the daemon was configured
    /// with a metrics address.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::MetricsText { text } => Ok(text),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Drains the daemon's span ring into a [`TraceFetch`]: the server-side
    /// half of every distributed trace recorded since the last fetch, plus
    /// the timestamps needed to map the server clock into this process's.
    /// Feed the result to [`alpha_telemetry::stitch_chrome_trace`] together
    /// with locally drained spans for one Chrome trace spanning both sides.
    pub fn fetch_trace(&mut self) -> Result<TraceFetch, NetError> {
        let sent_us = alpha_telemetry::now_us();
        let response = self.roundtrip(&Request::Trace)?;
        let received_us = alpha_telemetry::now_us();
        match response {
            Response::TraceSpans {
                server_now_us,
                spans,
            } => Ok(TraceFetch {
                server_now_us,
                spans,
                sent_us,
                received_us,
            }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Asks the daemon to shut down cleanly.  Returns once the daemon
    /// acknowledged; pair with
    /// [`NetServer::join`](crate::NetServer::join) on the hosting side.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}

/// The client-side span name of one request kind — all prefixed `client.`
/// so a stitcher can partition a shared in-process ring by origin.
fn client_span_name(request: &Request) -> &'static str {
    match request {
        Request::SubmitTune { .. } => "client.submit",
        Request::SubmitTuneRef { .. } => "client.submit_ref",
        Request::PollJob { .. } => "client.poll",
        Request::Spmv { .. } => "client.spmv",
        Request::StoreStats => "client.stats",
        Request::Metrics => "client.metrics",
        Request::Trace => "client.trace",
        Request::Shutdown => "client.shutdown",
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}
