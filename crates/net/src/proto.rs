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

use alpha_matrix::{CsrMatrix, Scalar};
use alpha_search::persist::PersistError;
use alpha_search::{ByteReader, ByteWriter};
use std::io::{Read, Write};

/// Frame magic: every `alpha-net` frame starts with these four bytes.
pub const NET_MAGIC: [u8; 4] = *b"ANET";

/// Wire-protocol version this build speaks — the only one it accepts.  Bump
/// on any frame- or payload-layout change; a peer stamping anything else is
/// rejected with [`ProtoError::VersionMismatch`] instead of being misread.
/// (v2: [`JobSummary`] gained `queue_wait_secs`.  v3: multi-tenant QoS —
/// [`Request::Hello`]/[`Response::Welcome`] carry a `ClientId`,
/// [`Response::Busy`] reports `retry_after_ms`, [`Request::TenantStats`]
/// returns per-tenant fairness accounting, and [`ServerStats`] gained the
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
/// [`Response::Status`], not [`Response::Submitted`].)
pub const PROTOCOL_VERSION: u32 = 7;

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
    /// frame was lost).  The server's connection loop treats this as the
    /// normal end of a session, not a fault.
    Closed,
    /// A read timeout expired before the first byte of a frame arrived
    /// (only possible when the caller set one on the stream).  The
    /// connection is idle, not broken: the daemon uses this to poll its
    /// shutdown flag between frames.
    Idle,
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
            ProtoError::Idle => write!(f, "connection idle (read timeout, no frame started)"),
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

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Bytes of the frame header: magic, version, payload length.
const HEADER_LEN: usize = 16;

/// The header of a frame carrying `payload_len` bytes, or
/// [`ProtoError::FrameTooLarge`] beyond [`MAX_FRAME_LEN`].
fn frame_header(payload_len: usize) -> Result<[u8; HEADER_LEN], ProtoError> {
    if payload_len as u64 > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len: payload_len as u64,
            max: MAX_FRAME_LEN,
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&NET_MAGIC);
    header[4..8].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header[8..].copy_from_slice(&(payload_len as u64).to_le_bytes());
    Ok(header)
}

/// Validates a received header (magic, version, length cap — in that order,
/// before one payload byte is trusted) and returns the payload length.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<usize, ProtoError> {
    if header[..4] != NET_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let found = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if found != PROTOCOL_VERSION {
        return Err(ProtoError::VersionMismatch {
            found,
            expected: PROTOCOL_VERSION,
        });
    }
    let len = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok(len as usize)
}

/// Builds one complete frame in a single buffer: the header, then whatever
/// `body` writes.  `body_hint` pre-sizes the buffer (exact for the
/// array-carrying messages), so a multi-megabyte submission is allocated
/// once and each of its bytes is written once.
fn build_frame(
    body_hint: usize,
    body: impl FnOnce(&mut ByteWriter),
) -> Result<Vec<u8>, ProtoError> {
    let mut w = ByteWriter::with_capacity(HEADER_LEN + body_hint);
    w.raw(&[0u8; HEADER_LEN]);
    body(&mut w);
    let mut frame = w.into_bytes();
    let header = frame_header(frame.len() - HEADER_LEN)?;
    frame[..HEADER_LEN].copy_from_slice(&header);
    Ok(frame)
}

/// Writes one frame (header + payload) to `w` as a single write — on a
/// `TCP_NODELAY` socket a separate 16-byte header write is its own segment
/// and its own wake-up of the peer.  For payloads that already exist as
/// bytes; a peer encoding a message builds the whole frame in place with
/// [`request_frame`]/[`response_frame`] instead.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&frame_header(payload.len())?);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Most a receive buffer is ever reserved ahead of the bytes that have
/// actually arrived, whatever length the frame header announced.
const MAX_RESERVE_AHEAD: usize = 1 << 20;

/// Allocation follows receipt: makes room in `payload` for at least
/// `incoming` more bytes of a `total`-byte frame (`incoming` must fit the
/// frame), reserving at most [`MAX_RESERVE_AHEAD`] — or, once more than that
/// has arrived, as much again as has arrived — beyond what is needed, and
/// never beyond the frame's end.  A header *claiming* [`MAX_FRAME_LEN`]
/// therefore costs 1 MiB until the peer really sends more.
fn reserve_ahead(payload: &mut Vec<u8>, total: usize, incoming: usize) {
    let spare = payload.capacity() - payload.len();
    if spare < incoming.max(1) {
        let remaining = total - payload.len();
        let ahead = payload.len().max(MAX_RESERVE_AHEAD).max(incoming);
        payload.reserve_exact(ahead.min(remaining));
    }
}

/// One receive straight into `payload`'s spare capacity: reads at most
/// `want` bytes from `r` and returns how many arrived, with no intermediate
/// buffer and no zero-fill (`read_to_end` appends into uninitialised
/// capacity; the `take` bound stops it at `want`, which the caller keeps
/// within the capacity it reserved).  `Ok(0)` is end-of-stream.  An error
/// that struck after some bytes arrived is dropped in favour of the count —
/// the bytes are in `payload`, and a persistent error repeats on the next
/// call.
fn read_into_spare<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
    want: usize,
) -> std::io::Result<usize> {
    let before = payload.len();
    let result = r.by_ref().take(want as u64).read_to_end(payload);
    match payload.len() - before {
        0 => result,
        got => Ok(got),
    }
}

/// Wall-clock budget for receiving one complete frame, measured from its
/// *first byte*.  Any style of slow-loris — half a header then silence, or
/// a byte dribbled every 90 ms against a promised-huge payload — trips this
/// bound and tears the frame with [`ProtoError::Truncated`], so a hostile
/// client can pin a connection thread (and stall `NetServer::join`) for at
/// most this long.  The clock is only *observed* when a `read` call
/// returns, so a blocking reader needs a read timeout on its stream for the
/// bound to be enforceable (without one — the trusting client side — it
/// never spuriously trips while parked in a single `read`).  The daemon does
/// not depend on that: its event loop never blocks in a read, and sweeps
/// every connection's [`FrameAssembler::overdue`] on each tick.
pub const MAX_FRAME_SECS: u64 = 60;

/// Reads one frame from `r`, validating magic, version and the length cap
/// before the payload is buffered.  A peer that closes the connection
/// *between* frames yields [`ProtoError::Closed`]; one that closes
/// mid-frame yields [`ProtoError::Truncated`].
///
/// Two hostile-input properties the reader maintains:
///
/// * **Allocation follows receipt.**  The payload buffer grows with the
///   bytes that actually arrive — a header *claiming* [`MAX_FRAME_LEN`]
///   costs nothing until the peer really sends that much.
/// * **Time is bounded.**  A frame that has started must complete within
///   [`MAX_FRAME_SECS`] (see there for the timeout caveat).
///
/// When the stream has a read timeout, a timeout that fires before the
/// first byte of a frame yields [`ProtoError::Idle`] (poll again later).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtoError> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let budget = std::time::Duration::from_secs(MAX_FRAME_SECS);
    // The deadline clock starts at the frame's first byte, not at call
    // time: this function parks in `read` waiting for frames to *begin*.
    let mut started: Option<std::time::Instant> = None;
    let overdue = |started: &Option<std::time::Instant>| {
        started.map(|at| at.elapsed() > budget).unwrap_or(false)
    };

    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => {
                filled += n;
                started.get_or_insert_with(std::time::Instant::now);
            }
            Err(e) if e.kind() == Interrupted => {}
            Err(e) if e.kind() == WouldBlock || e.kind() == TimedOut => {
                if filled == 0 {
                    return Err(ProtoError::Idle);
                }
            }
            Err(e) => return Err(e.into()),
        }
        if overdue(&started) {
            return Err(ProtoError::Truncated);
        }
    }
    let len = parse_header(&header)?;

    // The payload is received straight into its own buffer, which grows
    // with what has arrived: the attacker-controlled length field cannot
    // pre-allocate 256 MiB.
    let mut payload: Vec<u8> = Vec::new();
    while payload.len() < len {
        reserve_ahead(&mut payload, len, 1);
        let want = (payload.capacity() - payload.len()).min(len - payload.len());
        match read_into_spare(r, &mut payload, want) {
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(_) => {}
            // Mid-payload timeouts wait for the slow peer (the header
            // promised these bytes) — within the frame's time budget.
            Err(e) if e.kind() == WouldBlock || e.kind() == TimedOut => {}
            Err(e) => return Err(e.into()),
        }
        if overdue(&started) {
            return Err(ProtoError::Truncated);
        }
    }
    Ok(payload)
}

/// Incremental frame reassembly for nonblocking sockets: the event-loop
/// counterpart of [`read_frame`], with the same hostile-input guarantees.
///
/// The reactor hands the server whatever bytes a socket had ready — half a
/// header, three frames at once, one byte of a 100 MiB payload — and
/// [`FrameAssembler::push`] folds them into complete frame payloads:
///
/// * **Frame-before-trust.**  The header is validated (magic, version,
///   length cap) the moment its 16th byte arrives, before any payload byte
///   is buffered.  A bad header is a framing-lost error: the caller cannot
///   resynchronise mid-stream and must close the connection.
/// * **Allocation follows receipt.**  The payload buffer reserves at most
///   1 MiB ahead of the bytes that have arrived, regardless of the announced
///   length (see `reserve_ahead`).
/// * **Slow-loris deadline.**  A frame measures its age from its first
///   byte; a partial frame older than the budget makes
///   [`FrameAssembler::overdue`] true, and the server's sweep closes the
///   connection.  Complete frames reset the clock.
#[derive(Debug)]
pub struct FrameAssembler {
    budget: std::time::Duration,
    /// First byte of the in-progress frame (None between frames).
    started: Option<std::time::Instant>,
    header: [u8; HEADER_LEN],
    header_filled: usize,
    /// Announced payload length, known once the header completes.
    payload_len: usize,
    payload: Vec<u8>,
}

impl FrameAssembler {
    /// An assembler whose partial frames must complete within `budget`
    /// (servers pass their configured deadline; [`MAX_FRAME_SECS`] is the
    /// default).
    pub fn with_deadline(budget: std::time::Duration) -> Self {
        FrameAssembler {
            budget,
            started: None,
            header: [0u8; HEADER_LEN],
            header_filled: 0,
            payload_len: 0,
            payload: Vec::new(),
        }
    }

    /// Folds freshly received bytes in, appending the payload of every
    /// completed frame to `out`.  An error means framing is lost (bad magic,
    /// foreign version, oversized length): close the connection.
    pub fn push(&mut self, mut bytes: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), ProtoError> {
        while !bytes.is_empty() {
            if self.started.is_none() {
                self.started = Some(std::time::Instant::now());
            }
            if self.header_filled < self.header.len() {
                let take = bytes.len().min(self.header.len() - self.header_filled);
                self.header[self.header_filled..self.header_filled + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_filled += take;
                bytes = &bytes[take..];
                if self.header_filled < self.header.len() {
                    continue; // header still partial; wait for more bytes
                }
                // Frame-before-trust: the header is judged in full before
                // one payload byte is accepted.
                self.payload_len = parse_header(&self.header)?;
            }
            let take = bytes.len().min(self.payload_len - self.payload.len());
            reserve_ahead(&mut self.payload, self.payload_len, take);
            self.payload.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.finish_if_complete(out);
        }
        Ok(())
    }

    /// One receive from `r`, at most `limit` (nonzero) bytes: the
    /// reactor-side counterpart of [`FrameAssembler::push`] that owns the
    /// read.  In the
    /// middle of a large payload the bytes land straight in the frame's own
    /// buffer; headers, small frames and tails — where one read may carry
    /// several frames — go through the caller's reusable `scratch`.  Returns
    /// the bytes received (`0` = end of stream); an I/O error comes back as
    /// [`ProtoError::Io`] (`WouldBlock` included), anything else means
    /// framing is lost.
    pub fn read_from<R: Read>(
        &mut self,
        r: &mut R,
        scratch: &mut [u8],
        limit: usize,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<usize, ProtoError> {
        let remaining = self.payload_len - self.payload.len();
        if self.header_filled == self.header.len() && remaining >= scratch.len() {
            reserve_ahead(&mut self.payload, self.payload_len, 1);
            let spare = self.payload.capacity() - self.payload.len();
            let got = read_into_spare(r, &mut self.payload, spare.min(remaining).min(limit))?;
            self.finish_if_complete(out);
            return Ok(got);
        }
        let cap = scratch.len().min(limit);
        let got = r.read(&mut scratch[..cap])?;
        self.push(&scratch[..got], out)?;
        Ok(got)
    }

    /// Hands a fully received payload to `out` and resets for the next frame.
    fn finish_if_complete(&mut self, out: &mut Vec<Vec<u8>>) {
        if self.header_filled == self.header.len() && self.payload.len() == self.payload_len {
            out.push(std::mem::take(&mut self.payload));
            self.header_filled = 0;
            self.payload_len = 0;
            self.started = None;
        }
    }

    /// True while a frame has started but not finished.
    pub fn mid_frame(&self) -> bool {
        self.started.is_some()
    }

    /// True when a partial frame has been pending longer than the budget —
    /// the slow-loris trigger.  The caller should close the connection.
    pub fn overdue(&self) -> bool {
        self.started
            .map(|at| at.elapsed() > self.budget)
            .unwrap_or(false)
    }
}

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
    /// Identify this connection as belonging to a tenant.  Optional — an
    /// anonymous connection is tenant 0 — but weighted admission and
    /// fairness accounting key on it, so multi-tenant clients should send
    /// it first.  Answered with [`Response::Welcome`].
    Hello {
        /// Caller-chosen stable tenant identity.
        client_id: u64,
    },
    /// Ask for the per-tenant fairness accounting.  Answered with
    /// [`Response::Tenants`].
    TenantStats,
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
    /// Submit a tune of a matrix this connection's tenant uploaded before,
    /// named by its [`CsrMatrix::digest`] instead of sent (v6+).  A daemon
    /// that still holds the program an upload of that content built for the
    /// same tenant and device answers with the [`Response::Status`] of a job
    /// that holds it, in state [`JobState::Done`] — the reply a
    /// [`Request::PollJob`] of that job gives, so no poll follows (v7+);
    /// anything else — another tenant's upload, a program no job holds any
    /// more, dimensions or `nnz` that disagree — is [`Response::NeedMatrix`]:
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

/// One tenant's admission/fairness accounting, as reported by
/// [`Response::Tenants`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's [`Request::Hello`] identity (0 = anonymous).
    pub client_id: u64,
    /// Admission weight; a tenant's queue credit scales with its weight
    /// relative to the other *active* tenants.
    pub weight: u64,
    /// Tune jobs this tenant submitted and the daemon admitted.
    pub submitted: u64,
    /// Tune jobs shed back to this tenant with [`Response::Busy`].
    pub rejected: u64,
    /// This tenant's jobs that reached `Done`.
    pub completed: u64,
    /// This tenant's jobs waiting in the queue right now.
    pub queued: u64,
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
    /// Admission control rejected the request: the job queue is full, or
    /// the tenant exhausted its fair-share credit.  Back off and retry —
    /// nothing was enqueued.
    Busy {
        /// The queue bound that was hit, so clients can size their backoff.
        queue_capacity: u64,
        /// The daemon's estimate of when retrying is worthwhile, from its
        /// current queue depth and measured per-job service time.  Zero
        /// means "immediately" (e.g. a credit rejection that frees up as
        /// soon as a sibling job drains).
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
    /// Answer to [`Request::Hello`]: the tenant identity is registered.
    Welcome {
        /// Echo of the registered tenant id.
        client_id: u64,
        /// The admission weight the daemon assigned this tenant.
        weight: u64,
    },
    /// Answer to [`Request::TenantStats`]: every tenant the daemon has
    /// seen, sorted by `client_id`.
    Tenants(Vec<TenantStats>),
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
        spans: Vec<alpha_telemetry::OwnedSpan>,
    },
    /// A typed error.
    Error {
        /// Machine-readable classification.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Bytes of a length-prefixed array of `len` 4-byte elements on the wire.
fn array_len(len: usize) -> usize {
    8 + 4 * len
}

/// Bytes [`write_matrix`] produces for `matrix`.
fn matrix_len(matrix: &CsrMatrix) -> usize {
    16 + array_len(matrix.row_offsets().len()) + 2 * array_len(matrix.nnz())
}

fn write_matrix(w: &mut ByteWriter, matrix: &CsrMatrix) {
    w.u64(matrix.rows() as u64);
    w.u64(matrix.cols() as u64);
    w.u32s(matrix.row_offsets());
    w.u32s(matrix.col_indices());
    w.f32s(matrix.values());
}

fn read_matrix(r: &mut ByteReader<'_>) -> Result<CsrMatrix, ProtoError> {
    let rows = usize::try_from(r.u64()?)
        .map_err(|_| ProtoError::Corrupt("matrix row count overflows usize".into()))?;
    let cols = usize::try_from(r.u64()?)
        .map_err(|_| ProtoError::Corrupt("matrix column count overflows usize".into()))?;
    // Allocation follows receipt: tuning allocates dense `rows`- and
    // `cols`-sized vectors, so a claimed dimension beyond the wire bound is
    // rejected here — before any downstream layer trusts it with memory.
    // (`rows` is additionally pinned by CSR validation to the row-offset
    // count, which the frame cap already bounds; `cols` has no such tie.)
    for (what, dim) in [("row", rows), ("column", cols)] {
        if dim as u64 > MAX_MATRIX_DIM {
            return Err(ProtoError::Corrupt(format!(
                "matrix {what} count {dim} exceeds the wire bound of {MAX_MATRIX_DIM}"
            )));
        }
    }
    let row_offsets = r.u32s("row-offset")?;
    let col_indices = r.u32s("column-index")?;
    let values = r.f32s("value")?;
    CsrMatrix::from_raw(rows, cols, row_offsets, col_indices, values)
        .map_err(|e| ProtoError::Corrupt(format!("matrix fails CSR validation: {e}")))
}

fn write_summary(w: &mut ByteWriter, summary: &JobSummary) {
    w.f64(summary.gflops);
    w.str(&summary.operator_graph);
    w.u64(summary.fresh_evaluations);
    w.u8(summary.warm_started as u8);
    w.f64(summary.wall_secs);
    w.f64(summary.queue_wait_secs);
    w.str(&summary.kernel_shape);
}

fn read_summary(r: &mut ByteReader<'_>) -> Result<JobSummary, ProtoError> {
    Ok(JobSummary {
        gflops: r.f64()?,
        operator_graph: r.str()?,
        fresh_evaluations: r.u64()?,
        warm_started: match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(ProtoError::Corrupt(format!(
                    "warm-started flag must be 0/1, found {other}"
                )));
            }
        },
        wall_secs: r.f64()?,
        queue_wait_secs: r.f64()?,
        kernel_shape: r.str()?,
    })
}

fn write_stats(w: &mut ByteWriter, stats: &ServerStats) {
    for v in [
        stats.store_memory_hits,
        stats.store_disk_loads,
        stats.store_cold_starts,
        stats.store_evictions,
        stats.jobs_submitted,
        stats.jobs_rejected,
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_gced,
        stats.queue_depth,
        stats.queue_capacity,
        stats.jobs_resident,
        stats.open_connections,
    ] {
        w.u64(v);
    }
}

fn read_stats(r: &mut ByteReader<'_>) -> Result<ServerStats, ProtoError> {
    Ok(ServerStats {
        store_memory_hits: r.u64()?,
        store_disk_loads: r.u64()?,
        store_cold_starts: r.u64()?,
        store_evictions: r.u64()?,
        jobs_submitted: r.u64()?,
        jobs_rejected: r.u64()?,
        jobs_completed: r.u64()?,
        jobs_failed: r.u64()?,
        jobs_gced: r.u64()?,
        queue_depth: r.u64()?,
        queue_capacity: r.u64()?,
        jobs_resident: r.u64()?,
        open_connections: r.u64()?,
    })
}

fn write_tenant(w: &mut ByteWriter, tenant: &TenantStats) {
    for v in [
        tenant.client_id,
        tenant.weight,
        tenant.submitted,
        tenant.rejected,
        tenant.completed,
        tenant.queued,
    ] {
        w.u64(v);
    }
}

fn read_tenant(r: &mut ByteReader<'_>) -> Result<TenantStats, ProtoError> {
    Ok(TenantStats {
        client_id: r.u64()?,
        weight: r.u64()?,
        submitted: r.u64()?,
        rejected: r.u64()?,
        completed: r.u64()?,
        queued: r.u64()?,
    })
}

fn write_span(w: &mut ByteWriter, span: &alpha_telemetry::OwnedSpan) {
    w.str(&span.name);
    w.u64(span.ts_us);
    w.u64(span.dur_us);
    w.u64(span.tid);
    w.u32(span.depth);
    match &span.arg {
        Some((key, value)) => {
            w.u8(1);
            w.str(key);
            w.u64(*value);
        }
        None => w.u8(0),
    }
    w.u64(span.trace_id);
}

fn read_span(r: &mut ByteReader<'_>) -> Result<alpha_telemetry::OwnedSpan, ProtoError> {
    Ok(alpha_telemetry::OwnedSpan {
        name: r.str()?,
        ts_us: r.u64()?,
        dur_us: r.u64()?,
        tid: r.u64()?,
        depth: r.u32()?,
        arg: match r.u8()? {
            0 => None,
            1 => Some((r.str()?, r.u64()?)),
            other => {
                return Err(ProtoError::Corrupt(format!(
                    "span arg flag must be 0/1, found {other}"
                )));
            }
        },
        trace_id: r.u64()?,
    })
}

/// Body of a [`Request::SubmitTune`], from borrowed parts (the client
/// submits a matrix it does not own).
fn write_submit(w: &mut ByteWriter, matrix: &CsrMatrix, device: &str) {
    w.u8(0);
    write_matrix(w, matrix);
    w.str(device);
}

/// Body of a [`Request::Spmv`], from borrowed parts.
fn write_spmv(w: &mut ByteWriter, job_id: u64, x: &[Scalar]) {
    w.u8(2);
    w.u64(job_id);
    w.f32s(x);
}

fn write_request(w: &mut ByteWriter, request: &Request) {
    match request {
        Request::SubmitTune { matrix, device } => write_submit(w, matrix, device),
        Request::PollJob { job_id } => {
            w.u8(1);
            w.u64(*job_id);
        }
        Request::Spmv { job_id, x } => write_spmv(w, *job_id, x),
        Request::StoreStats => w.u8(3),
        Request::Shutdown => w.u8(4),
        Request::Hello { client_id } => {
            w.u8(5);
            w.u64(*client_id);
        }
        Request::TenantStats => w.u8(6),
        Request::Metrics => w.u8(7),
        Request::Trace => w.u8(8),
        Request::SubmitTuneRef {
            digest,
            rows,
            cols,
            nnz,
            device,
        } => {
            w.u8(9);
            w.raw(digest);
            for v in [rows, cols, nnz] {
                w.u64(*v);
            }
            w.str(device);
        }
    }
}

/// Bytes [`write_submit`] produces.
fn submit_len(matrix: &CsrMatrix, device: &str) -> usize {
    1 + matrix_len(matrix) + 8 + device.len()
}

/// Bytes [`write_spmv`] produces.
fn spmv_len(x: &[Scalar]) -> usize {
    9 + array_len(x.len())
}

/// Encoded size of a request's message: exact for the ones that carry
/// arrays or a device name, an upper bound for the fixed-size rest.
fn request_len(request: &Request) -> usize {
    match request {
        Request::SubmitTune { matrix, device } => submit_len(matrix, device),
        Request::Spmv { x, .. } => spmv_len(x),
        Request::SubmitTuneRef { device, .. } => 1 + 32 + 3 * 8 + 8 + device.len(),
        _ => 16,
    }
}

/// Encodes a request into a bare message (no trace id).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(request_len(request));
    write_request(&mut w, request);
    w.into_bytes()
}

/// Encodes a request as a frame payload: the request's `trace_id` (8 bytes
/// LE, `0` = untraced) followed by the tagged message.
pub fn encode_request_traced(trace_id: u64, request: &Request) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + request_len(request));
    w.u64(trace_id);
    write_request(&mut w, request);
    w.into_bytes()
}

/// A complete request frame — header, trace id, message — in one buffer,
/// ready for a single write.
pub fn request_frame(trace_id: u64, request: &Request) -> Result<Vec<u8>, ProtoError> {
    build_frame(8 + request_len(request), |w| {
        w.u64(trace_id);
        write_request(w, request);
    })
}

/// [`request_frame`] for a [`Request::SubmitTune`] whose matrix the caller
/// only borrows: the same bytes, without cloning the matrix into a
/// `Request` first.
pub fn submit_frame(
    trace_id: u64,
    matrix: &CsrMatrix,
    device: &str,
) -> Result<Vec<u8>, ProtoError> {
    build_frame(8 + submit_len(matrix, device), |w| {
        w.u64(trace_id);
        write_submit(w, matrix, device);
    })
}

/// [`request_frame`] for a [`Request::Spmv`] over a borrowed `x`.
pub fn spmv_frame(trace_id: u64, job_id: u64, x: &[Scalar]) -> Result<Vec<u8>, ProtoError> {
    build_frame(8 + spmv_len(x), |w| {
        w.u64(trace_id);
        write_spmv(w, job_id, x);
    })
}

/// Decodes a request frame payload: the 8-byte trace id, then the message.
/// The frame readers ([`read_frame`], [`FrameAssembler`]) have already
/// rejected any stamp but [`PROTOCOL_VERSION`].
pub fn decode_request_traced(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    if payload.len() < 8 {
        return Err(ProtoError::Truncated);
    }
    let trace_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Ok((trace_id, decode_request(&payload[8..])?))
}

/// Decodes a frame payload into a request.  Trailing bytes after the message
/// are corruption, not padding.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut r = ByteReader::new(payload);
    let request = match r.u8()? {
        0 => Request::SubmitTune {
            matrix: read_matrix(&mut r)?,
            device: r.str().map_err(ProtoError::from)?,
        },
        1 => Request::PollJob { job_id: r.u64()? },
        2 => Request::Spmv {
            job_id: r.u64()?,
            x: r.f32s("vector element")?,
        },
        3 => Request::StoreStats,
        4 => Request::Shutdown,
        5 => Request::Hello {
            client_id: r.u64()?,
        },
        6 => Request::TenantStats,
        7 => Request::Metrics,
        8 => Request::Trace,
        9 => Request::SubmitTuneRef {
            digest: r.take(32)?.try_into().expect("32 bytes taken"),
            rows: r.u64()?,
            cols: r.u64()?,
            nnz: r.u64()?,
            device: r.str()?,
        },
        other => {
            return Err(ProtoError::Corrupt(format!("unknown request tag {other}")));
        }
    };
    if !r.finished() {
        return Err(ProtoError::Corrupt(format!(
            "{} trailing bytes after the request",
            r.remaining()
        )));
    }
    Ok(request)
}

/// Encodes a response into a frame payload.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(response_len(response));
    write_response(&mut w, response);
    w.into_bytes()
}

/// A complete response frame — header and message — in one buffer, ready
/// for an outbox.
pub fn response_frame(response: &Response) -> Result<Vec<u8>, ProtoError> {
    build_frame(response_len(response), |w| write_response(w, response))
}

/// Encoded size of a response: exact for an SpMV result, a lower bound
/// that covers the bulk for the string-carrying rest.
fn response_len(response: &Response) -> usize {
    match response {
        Response::SpmvResult { y } => 1 + array_len(y.len()),
        Response::MetricsText { text } => 9 + text.len(),
        _ => 64,
    }
}

fn write_response(w: &mut ByteWriter, response: &Response) {
    match response {
        Response::Submitted { job_id } => {
            w.u8(0);
            w.u64(*job_id);
        }
        Response::Busy {
            queue_capacity,
            retry_after_ms,
        } => {
            w.u8(1);
            w.u64(*queue_capacity);
            w.u64(*retry_after_ms);
        }
        Response::Status { job_id, state } => {
            w.u8(2);
            w.u64(*job_id);
            match state {
                JobState::Queued => w.u8(0),
                JobState::Running => w.u8(1),
                JobState::Done(summary) => {
                    w.u8(2);
                    write_summary(w, summary);
                }
                JobState::Failed { error } => {
                    w.u8(3);
                    w.str(error);
                }
                JobState::Unknown => w.u8(4),
            }
        }
        Response::SpmvResult { y } => {
            w.u8(3);
            w.f32s(y);
        }
        Response::Stats(stats) => {
            w.u8(4);
            write_stats(w, stats);
        }
        Response::ShuttingDown => w.u8(5),
        Response::Error { kind, message } => {
            w.u8(6);
            w.u8(*kind as u8);
            w.str(message);
        }
        Response::Welcome { client_id, weight } => {
            w.u8(7);
            w.u64(*client_id);
            w.u64(*weight);
        }
        Response::Tenants(tenants) => {
            w.u8(8);
            w.u64(tenants.len() as u64);
            for tenant in tenants {
                write_tenant(w, tenant);
            }
        }
        Response::MetricsText { text } => {
            w.u8(9);
            w.str(text);
        }
        Response::TraceSpans {
            server_now_us,
            spans,
        } => {
            w.u8(10);
            w.u64(*server_now_us);
            w.u64(spans.len() as u64);
            for span in spans {
                write_span(w, span);
            }
        }
        Response::NeedMatrix => w.u8(11),
    }
}

/// Decodes a frame payload into a response.  Trailing bytes after the
/// message are corruption, not padding.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut r = ByteReader::new(payload);
    let response = match r.u8()? {
        0 => Response::Submitted { job_id: r.u64()? },
        1 => Response::Busy {
            queue_capacity: r.u64()?,
            retry_after_ms: r.u64()?,
        },
        2 => {
            let job_id = r.u64()?;
            let state = match r.u8()? {
                0 => JobState::Queued,
                1 => JobState::Running,
                2 => JobState::Done(read_summary(&mut r)?),
                3 => JobState::Failed { error: r.str()? },
                4 => JobState::Unknown,
                other => {
                    return Err(ProtoError::Corrupt(format!(
                        "unknown job-state tag {other}"
                    )));
                }
            };
            Response::Status { job_id, state }
        }
        3 => Response::SpmvResult {
            y: r.f32s("vector element")?,
        },
        4 => Response::Stats(read_stats(&mut r)?),
        5 => Response::ShuttingDown,
        6 => Response::Error {
            kind: ErrorKind::from_tag(r.u8()?)?,
            message: r.str()?,
        },
        7 => Response::Welcome {
            client_id: r.u64()?,
            weight: r.u64()?,
        },
        8 => {
            let count = r.count_of("tenant record", 48)?;
            let mut tenants = Vec::with_capacity(count);
            for _ in 0..count {
                tenants.push(read_tenant(&mut r)?);
            }
            Response::Tenants(tenants)
        }
        9 => Response::MetricsText { text: r.str()? },
        10 => {
            let server_now_us = r.u64()?;
            // Smallest span on the wire: empty name (8), three u64s (24),
            // depth (4), no-arg flag (1), trace id (8) = 45 bytes.
            let count = r.count_of("trace span", 45)?;
            let mut spans = Vec::with_capacity(count);
            for _ in 0..count {
                spans.push(read_span(&mut r)?);
            }
            Response::TraceSpans {
                server_now_us,
                spans,
            }
        }
        11 => Response::NeedMatrix,
        other => {
            return Err(ProtoError::Corrupt(format!("unknown response tag {other}")));
        }
    };
    if !r.finished() {
        return Err(ProtoError::Corrupt(format!(
            "{} trailing bytes after the response",
            r.remaining()
        )));
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::gen;

    fn sample_matrix() -> CsrMatrix {
        gen::powerlaw(32, 24, 3, 2.0, 5)
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::SubmitTune {
                matrix: sample_matrix(),
                device: "A100".to_string(),
            },
            Request::PollJob { job_id: 7 },
            Request::Spmv {
                job_id: 7,
                x: vec![1.0, -2.5, f32::MIN_POSITIVE],
            },
            Request::StoreStats,
            Request::Shutdown,
            Request::Hello {
                client_id: 0xFEED_BEEF,
            },
            Request::TenantStats,
            Request::Metrics,
            Request::Trace,
            Request::SubmitTuneRef {
                digest: sample_matrix().digest(),
                rows: 32,
                cols: 24,
                nnz: sample_matrix().nnz() as u64,
                device: "A100".to_string(),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Submitted { job_id: 3 },
            Response::Busy {
                queue_capacity: 16,
                retry_after_ms: 250,
            },
            Response::Status {
                job_id: 3,
                state: JobState::Queued,
            },
            Response::Status {
                job_id: 3,
                state: JobState::Running,
            },
            Response::Status {
                job_id: 3,
                state: JobState::Done(JobSummary {
                    gflops: 123.5,
                    operator_graph: "COMPRESS;[0]ROW_DIV(2)".to_string(),
                    fresh_evaluations: 40,
                    warm_started: true,
                    wall_secs: 0.25,
                    queue_wait_secs: 0.0625,
                    kernel_shape: "rows[off:table,org:id,col:table]:avx2-nnz-x8+pf".to_string(),
                }),
            },
            Response::Status {
                job_id: 9,
                state: JobState::Failed {
                    error: "matrix has no nonzeros".to_string(),
                },
            },
            Response::Status {
                job_id: 10,
                state: JobState::Unknown,
            },
            Response::SpmvResult {
                y: vec![0.0, 1.5, -3.25],
            },
            Response::Stats(ServerStats {
                store_memory_hits: 1,
                store_disk_loads: 2,
                store_cold_starts: 3,
                store_evictions: 4,
                jobs_submitted: 5,
                jobs_rejected: 6,
                jobs_completed: 7,
                jobs_failed: 8,
                jobs_gced: 9,
                queue_depth: 10,
                queue_capacity: 11,
                jobs_resident: 12,
                open_connections: 13,
            }),
            Response::ShuttingDown,
            Response::Error {
                kind: ErrorKind::UnknownJob,
                message: "job 99 was never issued".to_string(),
            },
            Response::Welcome {
                client_id: 0xFEED_BEEF,
                weight: 4,
            },
            Response::Tenants(vec![
                TenantStats {
                    client_id: 0,
                    weight: 1,
                    submitted: 2,
                    rejected: 3,
                    completed: 4,
                    queued: 5,
                },
                TenantStats {
                    client_id: 0xFEED_BEEF,
                    weight: 4,
                    submitted: 40,
                    rejected: 1,
                    completed: 39,
                    queued: 0,
                },
            ]),
            Response::Tenants(Vec::new()),
            Response::NeedMatrix,
            Response::MetricsText {
                text: "# TYPE net_requests_total counter\nnet_requests_total{tenant=\"0\"} 7\n"
                    .to_string(),
            },
            Response::MetricsText {
                text: String::new(),
            },
            Response::TraceSpans {
                server_now_us: 1_234_567,
                spans: vec![
                    alpha_telemetry::OwnedSpan {
                        name: "net.tune_exec".to_string(),
                        ts_us: 100,
                        dur_us: 2_500,
                        tid: 3,
                        depth: 0,
                        arg: Some(("job".to_string(), 7)),
                        trace_id: 0xABCD,
                    },
                    alpha_telemetry::OwnedSpan {
                        name: String::new(),
                        ts_us: 0,
                        dur_us: 0,
                        tid: 0,
                        depth: 2,
                        arg: None,
                        trace_id: 0,
                    },
                ],
            },
            Response::TraceSpans {
                server_now_us: 0,
                spans: Vec::new(),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for request in sample_requests() {
            let payload = encode_request(&request);
            assert_eq!(decode_request(&payload).unwrap(), request);
        }
    }

    #[test]
    fn every_response_round_trips() {
        for response in sample_responses() {
            let payload = encode_response(&response);
            assert_eq!(decode_response(&payload).unwrap(), response);
        }
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let payload = encode_request(&Request::PollJob { job_id: 42 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(&wire[..4], &NET_MAGIC);
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        // A second read on the drained stream reports a clean close.
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Closed)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"x").unwrap();
        wire[0] = b'X';
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(ProtoError::BadMagic)
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"x").unwrap();
        wire[4..8].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        match read_frame(&mut &wire[..]) {
            Err(ProtoError::VersionMismatch { found, expected }) => {
                assert_eq!(found, PROTOCOL_VERSION + 1);
                assert_eq!(expected, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"x").unwrap();
        wire[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_frame(&mut &wire[..]) {
            Err(ProtoError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u64::MAX);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // The cap leaves room for real multi-million-nonzero submissions.
        const { assert!(MAX_FRAME_LEN >= 64 * 1024 * 1024) }
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let payload = encode_request(&Request::SubmitTune {
            matrix: sample_matrix(),
            device: "A100".to_string(),
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for len in 1..wire.len() {
            match read_frame(&mut &wire[..len]) {
                Err(ProtoError::Truncated) => {}
                other => panic!("truncated at {len}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_truncation_and_trailing_garbage_are_rejected() {
        let by_reference = sample_requests().pop().expect("ends with SubmitTuneRef");
        assert!(matches!(by_reference, Request::SubmitTuneRef { .. }));
        let spmv = Request::Spmv {
            job_id: 3,
            x: vec![1.0, 2.0, 3.0],
        };
        for payload in [encode_request(&spmv), encode_request(&by_reference)] {
            for len in 0..payload.len() {
                match decode_request(&payload[..len]) {
                    Err(ProtoError::Truncated) | Err(ProtoError::Corrupt(_)) => {}
                    other => panic!("cut at {len}: expected an error, got {other:?}"),
                }
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert!(matches!(
                decode_request(&padded),
                Err(ProtoError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn element_counts_are_bounded_by_element_size_not_record_count() {
        // A count that fits the remaining bytes at 1 byte/record but not at
        // the real 4 bytes/element must be rejected BEFORE any allocation:
        // otherwise a near-cap frame could drive a 4x-amplified Vec.
        let mut w = ByteWriter::default();
        w.u8(2); // Spmv
        w.u64(1); // job id
        w.u64(100); // claims 100 elements...
        w.raw(&[0u8; 150]); // ...but only 150 bytes follow (need 400)
        match decode_request(&w.into_bytes()) {
            Err(ProtoError::Corrupt(msg)) => {
                assert!(msg.contains("exceeds"), "got: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode_request(&[250]),
            Err(ProtoError::Corrupt(_))
        ));
        assert!(matches!(
            decode_response(&[250]),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn invalid_matrices_fail_csr_validation_at_decode() {
        let mut w = ByteWriter::default();
        w.u8(0); // SubmitTune
        w.u64(2); // rows
        w.u64(2); // cols
        w.u64(3); // row_offsets
        w.u32(0);
        w.u32(5); // offset beyond nnz
        w.u32(1);
        w.u64(1); // col_indices
        w.u32(0);
        w.u64(1); // values
        w.f32(1.0);
        w.str("A100");
        match decode_request(&w.into_bytes()) {
            Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("CSR validation")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn assembler_matches_read_frame_at_every_chunking() {
        // The incremental assembler must produce exactly what the blocking
        // reader produces, no matter how the bytes are sliced.
        let payloads: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        for chunk_size in [1usize, 2, 3, 7, 16, 17, 64, wire.len()] {
            let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
            let mut out = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                assembler.push(chunk, &mut out).unwrap();
            }
            assert_eq!(out, payloads, "chunk size {chunk_size} diverged");
            assert!(!assembler.mid_frame(), "no partial frame may remain");
        }
    }

    /// `payload` framed under an arbitrary version stamp.
    fn frame_stamped(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire[4..8].copy_from_slice(&version.to_le_bytes());
        wire
    }

    #[test]
    fn v4_frames_get_a_typed_version_mismatch() {
        // One wire version: the retired v4, v5 and v6 stamps (and anything
        // older or newer) are rejected by both readers before a payload byte
        // is trusted — never decoded under the wrong layout.
        let payload = encode_request(&Request::StoreStats);
        for foreign in [0, 3, 4, 5, 6, PROTOCOL_VERSION + 1] {
            let wire = frame_stamped(foreign, &payload);
            match read_frame(&mut &wire[..]) {
                Err(ProtoError::VersionMismatch { found, expected }) => {
                    assert_eq!((found, expected), (foreign, PROTOCOL_VERSION));
                }
                other => panic!("version {foreign}: expected VersionMismatch, got {other:?}"),
            }
            let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
            let mut out = Vec::new();
            assert!(matches!(
                assembler.push(&wire, &mut out),
                Err(ProtoError::VersionMismatch { .. })
            ));
            assert!(out.is_empty());
        }
        let message = ProtoError::VersionMismatch {
            found: 6,
            expected: PROTOCOL_VERSION,
        }
        .to_string();
        assert!(message.contains("version 6") && message.contains("speaks 7"));
    }

    #[test]
    fn traced_envelope_round_trips_and_foreign_versions_are_rejected() {
        let assemble = |wire: &[u8]| {
            let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
            let mut out = Vec::new();
            assembler.push(wire, &mut out).map(|()| out)
        };
        for request in sample_requests() {
            let traced = encode_request_traced(0x1122_3344_5566_7788, &request);
            let payloads = assemble(&frame_stamped(PROTOCOL_VERSION, &traced)).unwrap();
            let (trace_id, decoded) = decode_request_traced(&payloads[0]).unwrap();
            assert_eq!(trace_id, 0x1122_3344_5566_7788);
            assert_eq!(decoded, request);
            // The envelope is the trace id followed by the bare message.
            assert_eq!(&traced[..8], &0x1122_3344_5566_7788u64.to_le_bytes());
            assert_eq!(&traced[8..], &encode_request(&request)[..]);
            // Neither the bare v4 layout nor a v5 stamp is guessed at: the
            // frame is refused before its payload reaches the decoder.
            assert!(matches!(
                assemble(&frame_stamped(4, &encode_request(&request))),
                Err(ProtoError::VersionMismatch { found: 4, .. })
            ));
            assert!(matches!(
                assemble(&frame_stamped(5, &traced)),
                Err(ProtoError::VersionMismatch { found: 5, .. })
            ));
        }
        // A payload too short for its trace id is truncation, not a panic.
        assert!(matches!(
            decode_request_traced(&[1, 2, 3]),
            Err(ProtoError::Truncated)
        ));
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn golden_frames_match_the_element_wise_encoding() {
        // Frames dumped from the pre-bulk, element-at-a-time encoder (header
        // and payload written separately; the version stamp moved to 7 with
        // the v7 bump): the one-buffer builders and the slice codec must put
        // the same bytes on the wire, or this is a protocol bump.
        let matrix = CsrMatrix::from_raw(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            vec![1.0, -2.5, f32::from_bits(0x7fc0_1234)],
        )
        .unwrap();
        let submit = unhex(
            "414e455407000000610000000000000008070605040302010002000000000000000300000000000000\
             0300000000000000000000000200000003000000030000000000000000000000020000000100000003\
             000000000000000000803f000020c03412c07f040000000000000041313030",
        );
        assert_eq!(
            submit_frame(0x0102_0304_0506_0708, &matrix, "A100").unwrap(),
            submit
        );
        let request = Request::SubmitTune {
            matrix,
            device: "A100".to_string(),
        };
        assert_eq!(
            request_frame(0x0102_0304_0506_0708, &request).unwrap(),
            submit
        );
        let mut written = Vec::new();
        write_frame(
            &mut written,
            &encode_request_traced(0x0102_0304_0506_0708, &request),
        )
        .unwrap();
        assert_eq!(written, submit);
        // (The matrix carries a NaN, so compare the decoded request by
        // re-encoding it rather than with `==`.)
        let (trace_id, decoded) = decode_request_traced(&submit[HEADER_LEN..]).unwrap();
        assert_eq!(request_frame(trace_id, &decoded).unwrap(), submit);

        let x = [1.0, -0.0, f32::MIN_POSITIVE / 2.0];
        let spmv = unhex(
            "414e45540700000025000000000000001100ffeeddccbbaa020700000000000000030000000000\
             00000000803f0000008000004000",
        );
        assert_eq!(spmv_frame(0xAABB_CCDD_EEFF_0011, 7, &x).unwrap(), spmv);
        assert_eq!(
            request_frame(
                0xAABB_CCDD_EEFF_0011,
                &Request::Spmv {
                    job_id: 7,
                    x: x.to_vec()
                }
            )
            .unwrap(),
            spmv
        );

        let result = unhex("414e45540700000011000000000000000302000000000000000000003f000080ff");
        assert_eq!(
            response_frame(&Response::SpmvResult {
                y: vec![0.5, f32::NEG_INFINITY]
            })
            .unwrap(),
            result
        );

        // The by-reference submit: the digest's 32 bytes as they are, then
        // rows, cols, nnz and the device.
        let by_reference = unhex(
            "414e4554070000004d00000000000000080706050403020109000102030405060708090a0b0c0d0e\
             0f101112131415161718191a1b1c1d1e1f02000000000000000300000000000000030000000000\
             0000040000000000000041313030",
        );
        let request = Request::SubmitTuneRef {
            digest: std::array::from_fn(|i| i as u8),
            rows: 2,
            cols: 3,
            nnz: 3,
            device: "A100".to_string(),
        };
        assert_eq!(
            request_frame(0x0102_0304_0506_0708, &request).unwrap(),
            by_reference
        );
        assert_eq!(
            response_frame(&Response::NeedMatrix).unwrap(),
            unhex("414e45540700000001000000000000000b")
        );
    }

    #[test]
    fn size_hints_are_exact_for_array_messages() {
        // The builders allocate once: the hint of an array-carrying message
        // (or the by-reference submit) is its encoded length to the byte.
        let requests = [
            Request::SubmitTuneRef {
                digest: [0xFF; 32],
                rows: 1,
                cols: 2,
                nnz: 3,
                device: "TestGPU".to_string(),
            },
            Request::SubmitTune {
                matrix: sample_matrix(),
                device: "RTX2080".to_string(),
            },
            Request::Spmv {
                job_id: 1,
                x: vec![0.25; 1000],
            },
        ];
        for request in &requests {
            assert_eq!(encode_request(request).len(), request_len(request));
            let frame = request_frame(9, request).unwrap();
            assert_eq!(frame.len(), HEADER_LEN + 8 + request_len(request));
            assert_eq!(frame.capacity(), frame.len(), "no regrowth, no slack");
        }
        let response = Response::SpmvResult { y: vec![1.5; 333] };
        assert_eq!(encode_response(&response).len(), response_len(&response));
        for request in sample_requests() {
            assert!(encode_request(&request).len() <= request_len(&request));
        }
    }

    #[test]
    fn array_payloads_round_trip_bit_exactly() {
        let odd = [
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // quiet NaN with a payload
            f32::from_bits(0xff80_0001), // signalling NaN, sign set
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 4.0, // denormal
            f32::from_bits(1),       // smallest denormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
        ];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        match decode_request(&encode_request(&Request::Spmv {
            job_id: 3,
            x: odd.to_vec(),
        }))
        .unwrap()
        {
            Request::Spmv { x, .. } => assert_eq!(bits(&x), bits(&odd)),
            other => panic!("expected Spmv, got {other:?}"),
        }
        match decode_response(&encode_response(&Response::SpmvResult { y: odd.to_vec() })).unwrap()
        {
            Response::SpmvResult { y } => assert_eq!(bits(&y), bits(&odd)),
            other => panic!("expected SpmvResult, got {other:?}"),
        }
        let matrix = CsrMatrix::from_raw(1, 10, vec![0, 10], (0..10).collect(), odd.to_vec())
            .expect("NaN values are valid CSR");
        match decode_request(&encode_request(&Request::SubmitTune {
            matrix,
            device: "A100".to_string(),
        }))
        .unwrap()
        {
            Request::SubmitTune { matrix, .. } => assert_eq!(bits(matrix.values()), bits(&odd)),
            other => panic!("expected SubmitTune, got {other:?}"),
        }
    }

    #[test]
    fn bulk_readers_reject_hostile_counts_before_allocating() {
        // Every array of both array-carrying requests, with its count
        // tampered: more elements than bytes remain, the largest count a
        // u64 holds, and a payload cut in the middle of the array.  All are
        // refused by the count bound — a typed error, no allocation.
        let spmv = encode_request(&Request::Spmv {
            job_id: 1,
            x: vec![1.0; 8],
        });
        let submit = encode_request(&Request::SubmitTune {
            matrix: sample_matrix(),
            device: "A100".to_string(),
        });
        let matrix = sample_matrix();
        let offsets_at = 1 + 16;
        let cols_at = offsets_at + array_len(matrix.row_offsets().len());
        let values_at = cols_at + array_len(matrix.nnz());
        for (payload, count_at, len) in [
            (&spmv, 9, 8),
            (&submit, offsets_at, matrix.row_offsets().len()),
            (&submit, cols_at, matrix.nnz()),
            (&submit, values_at, matrix.nnz()),
        ] {
            let claimed = u64::from_le_bytes(payload[count_at..count_at + 8].try_into().unwrap());
            assert_eq!(claimed, len as u64, "test offsets track the layout");
            let remaining = (payload.len() - count_at - 8) as u64;
            for hostile in [remaining / 4 + 1, u64::MAX, u64::MAX / 4 + 1] {
                let mut mutated = payload.clone();
                mutated[count_at..count_at + 8].copy_from_slice(&hostile.to_le_bytes());
                match decode_request(&mutated) {
                    Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("exceeds"), "got: {msg}"),
                    other => panic!("count {hostile}: expected Corrupt, got {other:?}"),
                }
            }
            // Cut mid-array: the count now promises more than remains.
            for cut in [count_at + 8 + 1, count_at + 8 + 4 * len - 1] {
                match decode_request(&payload[..cut]) {
                    Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("exceeds"), "got: {msg}"),
                    other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
                }
            }
            // Cut inside the count itself: plain truncation.
            assert!(matches!(
                decode_request(&payload[..count_at + 3]),
                Err(ProtoError::Truncated)
            ));
        }
    }

    /// A reader that hands out at most `step` bytes per call and reports
    /// `WouldBlock` every other call — a nonblocking socket in miniature.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
        starve: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.starve = !self.starve;
            if self.starve && !self.data.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_assembles_what_push_assembles() {
        // Small frames around one large enough to take the direct path
        // (payload >= the scratch size), at several socket granularities and
        // read limits: the owned-read entry point must produce exactly the
        // payloads `push` does, reserve no more than 1 MiB ahead, and report
        // end-of-stream as 0.
        let big = Request::Spmv {
            job_id: 9,
            x: (0..700_000).map(|i| i as f32).collect(),
        };
        let mut requests = sample_requests();
        requests.insert(2, big);
        let payloads: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| encode_request_traced(5, r))
            .collect();
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        for (step, limit) in [(1 << 30, 1 << 30), (100_000, 256 * 1024), (4_097, 10_000)] {
            let mut socket = Trickle {
                data: &wire,
                step,
                starve: false,
            };
            let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
            let mut scratch = vec![0u8; 4096];
            let mut out = Vec::new();
            loop {
                match assembler.read_from(&mut socket, &mut scratch, limit, &mut out) {
                    Ok(0) => break,
                    Ok(n) => {
                        assert!(n <= limit);
                        assert!(
                            assembler.payload.capacity()
                                <= assembler.payload.len().max(MAX_RESERVE_AHEAD) * 2,
                            "reserved too far ahead of receipt"
                        );
                    }
                    Err(ProtoError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("step {step}: {e}"),
                }
            }
            assert_eq!(out, payloads, "step {step} limit {limit} diverged");
            assert!(!assembler.mid_frame());
        }
        // A bad header surfaces through the owned read as it does through push.
        let mut bad = wire.clone();
        bad[0] = b'X';
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        assert!(matches!(
            assembler.read_from(&mut &bad[..], &mut [0u8; 64], 1 << 20, &mut Vec::new()),
            Err(ProtoError::BadMagic)
        ));
    }

    #[test]
    fn a_claimed_huge_frame_costs_only_what_arrives() {
        // Header claims the cap; 10 bytes follow.  Neither reader may size
        // its buffer from the claim.
        let mut wire = frame_header(MAX_FRAME_LEN as usize).unwrap().to_vec();
        wire.extend_from_slice(&[7u8; 10]);
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        let mut out = Vec::new();
        assembler.push(&wire, &mut out).unwrap();
        assert!(out.is_empty() && assembler.mid_frame());
        assert!(assembler.payload.capacity() <= MAX_RESERVE_AHEAD);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn assembler_rejects_bad_headers_before_buffering_payload() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"x").unwrap();
        let mut out = Vec::new();

        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        assert!(matches!(
            assembler.push(&bad_magic, &mut out),
            Err(ProtoError::BadMagic)
        ));

        let mut bad_version = wire.clone();
        bad_version[4..8].copy_from_slice(&(PROTOCOL_VERSION + 9).to_le_bytes());
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        assert!(matches!(
            assembler.push(&bad_version, &mut out),
            Err(ProtoError::VersionMismatch { .. })
        ));

        let mut oversize = wire.clone();
        oversize[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        assert!(matches!(
            assembler.push(&oversize, &mut out),
            Err(ProtoError::FrameTooLarge { .. })
        ));
        assert!(out.is_empty(), "no frame may complete from a bad header");
    }

    #[test]
    fn assembler_trips_the_slow_loris_deadline_on_partial_frames() {
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_millis(20));
        let mut out = Vec::new();
        assert!(!assembler.overdue(), "no frame started, no deadline");
        assembler.push(&NET_MAGIC[..2], &mut out).unwrap(); // half a magic
        assert!(assembler.mid_frame());
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert!(assembler.overdue(), "a stalled partial frame must trip");

        // A frame that completes in time resets the clock entirely.
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_millis(50));
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ok").unwrap();
        assembler.push(&wire, &mut out).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(!assembler.overdue(), "completed frames carry no deadline");
    }

    #[test]
    fn seeded_fuzz_mutations_never_panic_the_decoders() {
        // A deterministic xorshift64* over every sample payload: flip bytes,
        // truncate, extend — the decoders must always return, never panic.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        let mut payloads: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        payloads.extend(sample_responses().iter().map(encode_response));
        for payload in &payloads {
            for _ in 0..200 {
                let mut mutated = payload.clone();
                match next() % 4 {
                    0 if !mutated.is_empty() => {
                        let at = (next() as usize) % mutated.len();
                        mutated[at] ^= (next() % 255 + 1) as u8;
                    }
                    1 => {
                        let keep = (next() as usize) % (mutated.len() + 1);
                        mutated.truncate(keep);
                    }
                    2 => {
                        mutated.push(next() as u8);
                    }
                    _ => {
                        if mutated.len() > 1 {
                            let at = (next() as usize) % mutated.len();
                            mutated.remove(at);
                        }
                    }
                }
                // Every decoder must survive both kinds of payloads.
                let _ = decode_request(&mutated);
                let _ = decode_response(&mutated);
                let _ = decode_request_traced(&mutated);
            }
        }
    }
}
