//! The payload codec: every message's encoder and decoder, and the
//! builders that put a whole frame — header, trace id, message — in one
//! buffer.

use super::framing::build_frame;
use super::*;
use alpha_search::{ByteReader, ByteWriter};
use alpha_telemetry::SpanEvent;

/// Bytes of a length-prefixed array of `len` 4-byte elements on the wire.
pub(super) fn array_len(len: usize) -> usize {
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

fn write_span(w: &mut ByteWriter, span: &SpanEvent) {
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

fn read_span(r: &mut ByteReader<'_>) -> Result<SpanEvent, ProtoError> {
    Ok(SpanEvent {
        name: r.str()?.into(),
        ts_us: r.u64()?,
        dur_us: r.u64()?,
        tid: r.u64()?,
        depth: r.u32()?,
        arg: match r.u8()? {
            0 => None,
            1 => Some((r.str()?.into(), r.u64()?)),
            other => {
                return Err(ProtoError::Corrupt(format!(
                    "span arg flag must be 0/1, found {other}"
                )));
            }
        },
        trace_id: r.u64()?,
        // The wire carries a span's own fields; a stage's lane stays in the
        // daemon's flight recorder.
        ..SpanEvent::default()
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
pub(super) fn request_len(request: &Request) -> usize {
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
pub(super) fn response_len(response: &Response) -> usize {
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
