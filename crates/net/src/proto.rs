//! The `alpha-net` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! +--------+-----------+------------------+---------------------+
//! | "ANET" | version   | payload length   | payload bytes       |
//! | 4 B    | u32 LE    | u64 LE           | (length bytes)      |
//! +--------+-----------+------------------+---------------------+
//! ```
//!
//! and the payload is one tagged message encoded with the exact
//! [`ByteWriter`]/[`ByteReader`] codec discipline the durable `ACDS` cache
//! files use (`alpha_search::persist`): little-endian integers, `f64` bit
//! patterns, length-prefixed UTF-8 strings, and bounds-checked counts.  The
//! invariants that make the protocol safe to expose to a socket:
//!
//! * **Nothing panics on adversarial input.**  Bad magic, an unsupported
//!   version, a truncated frame, an oversized length ([`MAX_FRAME_LEN`]) and
//!   undecodable payload bytes each map to a typed [`ProtoError`]; the
//!   server answers with a typed [`Response::Error`] where the stream is
//!   still framed, and closes the connection where framing is lost.
//! * **Counts are bounded before allocation.**  A corrupt element count can
//!   never drive an allocation larger than the (already length-capped)
//!   frame that carried it.
//! * **Versioning is explicit.**  A frame stamped with any version but
//!   [`PROTOCOL_VERSION`] is rejected with [`ProtoError::VersionMismatch`] —
//!   never misread.  Request payloads lead with an 8-byte `trace_id`
//!   ([`encode_request_traced`]/[`decode_request_traced`]); response
//!   payloads are the bare tagged message.
//!
//! Arrays (`x`, `y`, the three CSR arrays) cross the codec in bulk
//! ([`ByteWriter::f32s`]/[`ByteReader::f32s`]), and a frame a peer is about
//! to send is built — header, trace id, message — in one buffer sized from
//! the message ([`request_frame`], [`response_frame`]), so every byte is
//! copied once and reaches the socket in one write.
//!
//! This module holds the constants, [`ProtoError`] and the message types;
//! `framing` the header and the frame reader ([`FrameAssembler`], and
//! [`read_frame`] over it); `codec` the payload encoders, decoders and
//! frame builders.
//!
//! [`ByteWriter`]: alpha_search::ByteWriter
//! [`ByteReader`]: alpha_search::ByteReader
//! [`ByteWriter::f32s`]: alpha_search::ByteWriter::f32s
//! [`ByteReader::f32s`]: alpha_search::ByteReader::f32s

use alpha_matrix::{CsrMatrix, Scalar};
use alpha_search::persist::PersistError;

mod codec;
mod framing;
#[cfg(test)]
mod tests;

pub use codec::{
    decode_request, decode_request_traced, decode_response, encode_request, encode_request_traced,
    encode_response, request_frame, response_frame, spmv_frame, submit_frame,
};
pub use framing::{read_frame, write_frame, FrameAssembler};

/// Frame magic: every `alpha-net` frame starts with these four bytes.
pub const NET_MAGIC: [u8; 4] = *b"ANET";

/// Wire-protocol version this build speaks — the only one it accepts.  Bump
/// on any frame- or payload-layout change; a peer stamping anything else is
/// rejected with [`ProtoError::VersionMismatch`] instead of being misread.
/// (v2: [`JobSummary`] gained `queue_wait_secs`.  v3: [`Response::Busy`]
/// reports `retry_after_ms`, and [`ServerStats`] gained the
/// `jobs_resident` and `open_connections` gauges.  v4: observability —
/// [`Request::Metrics`] asks for the daemon's full telemetry registry and
/// is answered with [`Response::MetricsText`] carrying the Prometheus text
/// exposition.  v5: distributed tracing — request payloads lead with an
/// 8-byte `trace_id`, and [`Request::Trace`]/[`Response::TraceSpans`] fetch
/// the daemon's buffered spans for cross-process stitching.  v6: a tune may
/// name its matrix by content digest ([`Request::SubmitTuneRef`], answered
/// [`Response::NeedMatrix`] when the daemon holds no program for it), and
/// [`JobSummary`] lost its always-`true` `specialized` flag.  v7: a
/// [`Request::SubmitTuneRef`] hit is answered with its job's `Done`
/// [`Response::Status`], not [`Response::Submitted`].  v8: the connection
/// identity messages and their per-identity accounting are gone — request
/// tags 5 and 6 and response tags 7 and 8 are unassigned.)
pub const PROTOCOL_VERSION: u32 = 8;

/// Upper bound on one frame's payload length.  Large enough for a
/// multi-million-nonzero matrix submission, small enough that a corrupt or
/// hostile length field cannot drive an unbounded allocation.
pub const MAX_FRAME_LEN: u64 = 256 * 1024 * 1024;

/// Upper bound on a wire matrix's claimed row or column count.  Tuning a
/// submission allocates dense vectors of these sizes, so the dimension a
/// frame *claims* (as opposed to the data it carries, which
/// [`MAX_FRAME_LEN`] bounds) must itself be capped or a 16-byte mutant
/// could drive a terabyte allocation.
pub const MAX_MATRIX_DIM: u64 = 1 << 28;

/// Why encoding, decoding or transporting a frame failed.
#[derive(Debug)]
pub enum ProtoError {
    /// An underlying socket / I/O error.
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames (no partial
    /// frame was lost): the normal end of a session, not a fault.
    Closed,
    /// The frame does not start with [`NET_MAGIC`] — the peer is not
    /// speaking this protocol.
    BadMagic,
    /// The frame was produced by a different protocol version.
    VersionMismatch {
        /// Version found in the frame header.
        found: u32,
        /// Version this build speaks.
        expected: u32,
    },
    /// The frame header announces a payload larger than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Announced payload length.
        len: u64,
        /// The bound it exceeded.
        max: u64,
    },
    /// The stream ended in the middle of a frame, or a payload ended in the
    /// middle of a field.
    Truncated,
    /// The payload decoded to an impossible value (unknown message tag,
    /// invalid UTF-8, a matrix that fails CSR validation, …).
    Corrupt(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "wire I/O error: {e}"),
            ProtoError::Closed => write!(f, "connection closed by peer"),
            ProtoError::BadMagic => write!(f, "not an alpha-net frame (bad magic)"),
            ProtoError::VersionMismatch { found, expected } => write!(
                f,
                "peer speaks wire-protocol version {found}, this build speaks {expected}"
            ),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Truncated => write!(f, "frame is truncated"),
            ProtoError::Corrupt(msg) => write!(f, "frame payload is corrupt: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<PersistError> for ProtoError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Truncated => ProtoError::Truncated,
            PersistError::Corrupt(msg) => ProtoError::Corrupt(msg),
            // The payload codec itself never produces these two; map them
            // defensively in case a future helper does.
            PersistError::BadMagic => ProtoError::BadMagic,
            PersistError::VersionMismatch { .. } => {
                ProtoError::Corrupt("payload embeds a foreign cache-format version".to_string())
            }
        }
    }
}

/// Bytes of the frame header: magic, version, payload length.
const HEADER_LEN: usize = 16;

/// Wall-clock budget for receiving one complete frame, measured from its
/// *first byte*.  Any style of slow-loris — half a header then silence, or
/// a byte dribbled every 90 ms against a promised-huge payload — trips this
/// bound and tears the frame with [`ProtoError::Truncated`], so a hostile
/// peer can hold a reader for at most this long.  The clock is only *observed* when a `read` call
/// returns, so a blocking reader needs a read timeout on its stream for the
/// bound to be enforceable (without one — the trusting client side — it
/// never spuriously trips while parked in a single `read`).  The daemon does
/// not depend on that: its event loop never blocks in a read, and sweeps
/// every connection's [`FrameAssembler::overdue`] on each tick.
pub const MAX_FRAME_SECS: u64 = 60;

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a matrix for tuning on the named device.  Answered with
    /// [`Response::Submitted`] (a job id), [`Response::Busy`] (queue full —
    /// back off and retry) or a typed [`Response::Error`].
    SubmitTune {
        /// The matrix to tune.
        matrix: CsrMatrix,
        /// Device-profile name (see [`crate::device_by_name`]).
        device: String,
    },
    /// Ask for a job's current state.
    PollJob {
        /// Id returned by [`Response::Submitted`].
        job_id: u64,
    },
    /// Execute `y = A·x` with a finished job's tuned kernel.
    Spmv {
        /// Id of a job in the `Done` state.
        job_id: u64,
        /// The input vector (length = the job's matrix column count).
        x: Vec<Scalar>,
    },
    /// Ask for the daemon's store and job-table counters.
    StoreStats,
    /// Ask the daemon to stop accepting work and exit cleanly.
    Shutdown,
    /// Ask for the daemon's full telemetry registry — every counter, gauge
    /// and histogram the process has recorded, not just the curated
    /// [`ServerStats`] subset.  Answered with [`Response::MetricsText`]
    /// carrying the Prometheus text exposition (the same bytes the
    /// `--metrics-addr` HTTP endpoint serves).
    Metrics,
    /// Drain the daemon's buffered trace spans (v5+).  Answered with
    /// [`Response::TraceSpans`]; the caller stitches them against its own
    /// spans with `alpha_telemetry::stitch`, using the `server_now_us`
    /// stamp to align the two clock domains.  A daemon with tracing
    /// disabled answers with an empty span list.
    Trace,
    /// Submit a tune of a matrix uploaded before, named by its
    /// [`CsrMatrix::digest`] instead of sent (v6+).  A daemon that still
    /// holds the program an upload of that content built for the same
    /// device answers with the [`Response::Status`] of a job that holds it,
    /// in state [`JobState::Done`] — the reply a [`Request::PollJob`] of
    /// that job gives, so no poll follows (v7+); anything else — a program
    /// no job holds any more, dimensions or `nnz` that disagree — is
    /// [`Response::NeedMatrix`]:
    /// send [`Request::SubmitTune`] instead.  An unknown device or a daemon
    /// shutting down is the [`Response::Error`] an upload would get.
    SubmitTuneRef {
        /// [`CsrMatrix::digest`] of the matrix: its BLAKE2b-256.
        digest: [u8; 32],
        /// Its row count.
        rows: u64,
        /// Its column count.
        cols: u64,
        /// Its stored-entry count.
        nnz: u64,
        /// Device-profile name (see [`crate::device_by_name`]).
        device: String,
    },
}

/// A finished job's result, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Throughput of the winning design under the service's evaluator.
    pub gflops: f64,
    /// The winning operator graph, formatted for display.
    pub operator_graph: String,
    /// Fresh evaluations the request cost — 0 when it was answered with a
    /// program an earlier job still holds, or from the daemon's warm store.
    pub fresh_evaluations: u64,
    /// True when the search was seeded from stored winners of structurally
    /// similar matrices.
    pub warm_started: bool,
    /// Server-side wall-clock seconds a tuning worker spent on the job,
    /// from hashing the submitted matrix to the finished answer — or, for a
    /// job answered by reference, the event loop's lookup.
    pub wall_secs: f64,
    /// Seconds the job sat in the daemon's admission queue before a tuning
    /// worker picked it up.  Reported separately from `wall_secs` so load
    /// tests can attribute latency to queueing vs execution.
    pub queue_wait_secs: f64,
    /// The monomorphized-library shape key of the resident native kernel
    /// that will serve [`Request::Spmv`] for this job.
    pub kernel_shape: String,
}

/// Where one job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for a tuning worker.
    Queued,
    /// A tuning worker is searching right now.
    Running,
    /// Tuning finished; the kernel is resident and serves [`Request::Spmv`].
    Done(JobSummary),
    /// Tuning failed.
    Failed {
        /// Why the search failed.
        error: String,
    },
    /// The id was never issued, or the job's terminal record was
    /// garbage-collected.
    Unknown,
}

/// The daemon's counters: the backing store's memory tier plus the job
/// table and admission queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Store-tier `cache_for` calls answered by a resident cache.
    pub store_memory_hits: u64,
    /// Store-tier cache files loaded from disk.
    pub store_disk_loads: u64,
    /// Store-tier contexts created cold (never tuned before).
    pub store_cold_starts: u64,
    /// Store-tier caches evicted (written back) to respect capacity.
    pub store_evictions: u64,
    /// Jobs admitted to the queue over the daemon's lifetime.
    pub jobs_submitted: u64,
    /// Jobs rejected with [`Response::Busy`] backpressure.
    pub jobs_rejected: u64,
    /// Jobs that finished successfully.
    pub jobs_completed: u64,
    /// Jobs that finished in failure.
    pub jobs_failed: u64,
    /// Terminal job records garbage-collected from the job table.
    pub jobs_gced: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// The admission-control bound of the queue.
    pub queue_capacity: u64,
    /// Job records currently resident in the job table (all states,
    /// terminal included).  A leak detector: after every submitted job
    /// reaches a terminal state and GC runs, this converges to the retained
    /// terminal window, never grows without bound.
    pub jobs_resident: u64,
    /// Client connections currently open on the event loop.
    pub open_connections: u64,
}

/// Machine-readable classification of a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorKind {
    /// The request frame decoded to garbage (the framing itself was intact,
    /// so the connection stays usable).
    BadFrame = 0,
    /// The submitted device name matches no known profile.
    UnknownDevice = 1,
    /// The job id was never issued or has been garbage-collected.
    UnknownJob = 2,
    /// The job exists but is not in the `Done` state (still queued/running,
    /// or failed).
    JobNotReady = 3,
    /// The submitted matrix failed CSR validation.
    InvalidMatrix = 4,
    /// The SpMV input vector does not fit the job's matrix.
    InvalidInput = 5,
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown = 6,
    /// An internal server error.
    Internal = 7,
}

impl ErrorKind {
    fn from_tag(tag: u8) -> Result<Self, ProtoError> {
        Ok(match tag {
            0 => ErrorKind::BadFrame,
            1 => ErrorKind::UnknownDevice,
            2 => ErrorKind::UnknownJob,
            3 => ErrorKind::JobNotReady,
            4 => ErrorKind::InvalidMatrix,
            5 => ErrorKind::InvalidInput,
            6 => ErrorKind::ShuttingDown,
            7 => ErrorKind::Internal,
            other => {
                return Err(ProtoError::Corrupt(format!("unknown error kind {other}")));
            }
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            ErrorKind::BadFrame => "bad-frame",
            ErrorKind::UnknownDevice => "unknown-device",
            ErrorKind::UnknownJob => "unknown-job",
            ErrorKind::JobNotReady => "job-not-ready",
            ErrorKind::InvalidMatrix => "invalid-matrix",
            ErrorKind::InvalidInput => "invalid-input",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        };
        f.write_str(label)
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The tune request was admitted under this job id.
    Submitted {
        /// Poll this id with [`Request::PollJob`].
        job_id: u64,
    },
    /// Admission control rejected the request: the job queue (or, for an
    /// SpMV, the exec queue) is full.  Back off and retry — nothing was
    /// enqueued.
    Busy {
        /// The queue bound that was hit, so clients can size their backoff.
        queue_capacity: u64,
        /// The daemon's estimate of when retrying is worthwhile, from its
        /// current queue depth and measured per-job service time.  Zero
        /// means "immediately".
        retry_after_ms: u64,
    },
    /// Answer to [`Request::PollJob`], and to a [`Request::SubmitTuneRef`]
    /// hit, whose job is already [`JobState::Done`].
    Status {
        /// The polled (or hit) job id.
        job_id: u64,
        /// Its current state.
        state: JobState,
    },
    /// Answer to [`Request::Spmv`]: the product vector.
    SpmvResult {
        /// `y = A·x`, length = the job's matrix row count.
        y: Vec<Scalar>,
    },
    /// Answer to [`Request::StoreStats`].
    Stats(ServerStats),
    /// Answer to [`Request::Shutdown`]: the daemon is stopping.
    ShuttingDown,
    /// Answer to [`Request::SubmitTuneRef`] when the daemon holds no program
    /// for the named matrix: nothing was admitted, send the matrix itself.
    NeedMatrix,
    /// Answer to [`Request::Metrics`]: the daemon's telemetry registry
    /// rendered in the Prometheus text exposition format.
    MetricsText {
        /// `# TYPE`-annotated metric families, one sample per line.
        text: String,
    },
    /// Answer to [`Request::Trace`]: the daemon's span ring, drained.
    TraceSpans {
        /// The server's trace clock (`alpha_telemetry::now_us`) read while
        /// answering — the anchor for NTP-style clock-domain stitching.
        server_now_us: u64,
        /// The drained spans, oldest first, in the server's clock domain.
        spans: Vec<alpha_telemetry::SpanEvent>,
    },
    /// A typed error.
    Error {
        /// Machine-readable classification.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}
