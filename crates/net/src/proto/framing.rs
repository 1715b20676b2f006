//! Frame transport.  Out: the 16-byte header, built with its frame in one
//! buffer ([`write_frame`] and the codec's frame builders).  In: the one
//! frame reader, [`FrameAssembler`], which [`read_frame`] loops over on a
//! blocking stream.

use super::*;
use alpha_search::ByteWriter;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// The header of a frame carrying `payload_len` bytes, or
/// [`ProtoError::FrameTooLarge`] beyond [`MAX_FRAME_LEN`].
pub(super) fn frame_header(payload_len: usize) -> Result<[u8; HEADER_LEN], ProtoError> {
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

/// Builds one complete frame in a single buffer: the header, then whatever
/// `body` writes.  `body_hint` pre-sizes the buffer (exact for the
/// array-carrying messages), so a multi-megabyte submission is allocated
/// once and each of its bytes is written once.
pub(super) fn build_frame(
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

/// Writes one frame (header + payload) to `w` as a single write — on a
/// `TCP_NODELAY` socket a separate 16-byte header write is its own segment
/// and its own wake-up of the peer.  For payloads that already exist as
/// bytes; a peer encoding a message builds the whole frame in place with
/// [`request_frame`]/[`response_frame`] instead.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    w.write_all(&build_frame(payload.len(), |b| b.raw(payload))?)?;
    w.flush()?;
    Ok(())
}

/// Most a receive buffer is ever reserved ahead of the bytes that have
/// actually arrived, whatever length the frame header announced.
pub(super) const MAX_RESERVE_AHEAD: usize = 1 << 20;

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

/// Reads one frame from `r`, validating magic, version and the length cap
/// before the payload is buffered, and reading no byte past the frame.  A
/// peer that closes the connection *between* frames yields
/// [`ProtoError::Closed`]; one that closes mid-frame yields
/// [`ProtoError::Truncated`].  It is a loop over
/// [`FrameAssembler::read_from`], so the assembler's hostile-input
/// properties hold: allocation follows receipt, and a frame that has
/// started must complete within [`MAX_FRAME_SECS`] (see there for the
/// timeout caveat).
///
/// When the stream has a read timeout, one that fires before the first byte
/// of a frame is the [`ProtoError::Io`] the OS gave (`WouldBlock` or
/// `TimedOut`); mid-frame, the reader waits on within the frame's budget.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtoError> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let mut assembler = FrameAssembler::with_deadline(Duration::from_secs(MAX_FRAME_SECS));
    // A payload shorter than the scratch goes through it; a longer one is
    // received straight into its own buffer.
    let mut scratch = [0u8; HEADER_LEN];
    let mut out = Vec::with_capacity(1);
    loop {
        let needed = assembler.needed();
        match assembler.read_from(r, &mut scratch, needed, &mut out) {
            Ok(0) if assembler.mid_frame() => return Err(ProtoError::Truncated),
            Ok(0) => return Err(ProtoError::Closed),
            Ok(_) => {}
            Err(ProtoError::Io(e)) if e.kind() == Interrupted => {}
            Err(ProtoError::Io(e))
                if assembler.mid_frame() && matches!(e.kind(), WouldBlock | TimedOut) => {}
            Err(e) => return Err(e),
        }
        if let Some(payload) = out.pop() {
            return Ok(payload);
        }
        if assembler.overdue() {
            return Err(ProtoError::Truncated);
        }
    }
}

/// Incremental frame reassembly: the one frame reader.  The event loop
/// drives it over nonblocking sockets; [`read_frame`] loops over it on a
/// blocking stream.
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
    budget: Duration,
    /// First byte of the in-progress frame (None between frames).
    started: Option<Instant>,
    header: [u8; HEADER_LEN],
    header_filled: usize,
    /// Announced payload length, known once the header completes.
    payload_len: usize,
    pub(super) payload: Vec<u8>,
}

impl FrameAssembler {
    /// An assembler whose partial frames must complete within `budget`
    /// (servers pass their configured deadline; [`MAX_FRAME_SECS`] is the
    /// default).
    pub fn with_deadline(budget: Duration) -> Self {
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
                self.started = Some(Instant::now());
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
    /// counterpart of [`FrameAssembler::push`] that owns the read.  In the
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

    /// Bytes the current frame still needs: the rest of its header until
    /// that is complete, then the rest of its payload.  Never 0.
    fn needed(&self) -> usize {
        if self.header_filled < HEADER_LEN {
            HEADER_LEN - self.header_filled
        } else {
            self.payload_len - self.payload.len()
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
