//! Durable serialization of the [`DesignCache`]: a std-only, dependency-free
//! binary codec that lets tuned designs survive process restarts.
//!
//! Every process that tunes a matrix pays the three-level search once; this
//! module makes that cost an *investment* instead of a recurring tax.  A
//! cache file stores three sections keyed by the same identities the
//! in-memory cache uses:
//!
//! 1. **Evaluations** — every `(context key, canonical graph signature)` →
//!    outcome pair, including known-infeasible designs, so a reloaded cache
//!    answers exactly the lookups the original did.
//! 2. **Winners** — the best [`OperatorGraph`] found per context, with its
//!    modelled GFLOPS and the matrix feature vector used for structural
//!    similarity (see [`crate::features::matrix_feature_vector`]).
//! 3. **Seed pins** — the warm-start designs a serving layer injected into a
//!    context's first search, so replays of that search enumerate the exact
//!    same candidates and are answered fully from section 1.
//!
//! The format is length-prefixed little-endian binary with a versioned
//! header (`ACDS` magic + format version).  Files written by a different
//! schema version — or truncated / corrupted files — are rejected cleanly
//! with a typed [`PersistError`] instead of being half-loaded.  There is no
//! `serde` on purpose: the container this project grows in is offline, and
//! the value space (strings, `u64`s, `f64` bit patterns, one enum) is small
//! enough that a hand-rolled codec is both smaller and easier to audit.

use crate::eval::{DesignCache, EvaluatorId};
use alpha_gpu::{KernelCounters, PerfReport};
use alpha_graph::{Operator, OperatorGraph};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::Path;

/// File magic of a serialized design cache ("AlphaSparse Cache of Designed
/// Spmv").
pub const CACHE_MAGIC: [u8; 4] = *b"ACDS";

/// Current schema version of the cache file format.  Bump on any change to
/// the byte layout; old files are then rejected with
/// [`PersistError::VersionMismatch`] instead of being misread.  Version 3
/// added the SIMD operator tags (25–27): caches written before vectorization
/// existed score designs the SIMD-aware search would rank differently, so
/// they are retired wholesale rather than mixed in.  Version 4 added the
/// native kernel-shape label to evaluations and winners (the monomorphized
/// kernel library's lookup key, see `alpha-cpu`): pre-specialization caches
/// hold r3-era timings anyway (see `EvaluatorId::salt`), so they retire with
/// the version.  Version 5 dropped the emitted source string each evaluation
/// carried (about 70 % of a context's bytes): source is emitted on request,
/// for the winner, from its graph.  Version 6 retired operator tag 27 and
/// SIMD lane width 2: a v5 file may hold graphs that no longer validate.
/// Version 7 retired the lane operator tags 25 and 26, because the host's
/// loop selection is now the only thing that picks a loop and a v6 file may
/// hold graphs that name one.  Since v7 retires every v6 file, native timings
/// recorded under the lane operators cannot be read back, so the evaluator
/// salt (`EvaluatorId::salt`) did not need a bump.
pub const CACHE_FORMAT_VERSION: u32 = 7;

/// Why loading or saving a durable cache failed.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the [`CACHE_MAGIC`] bytes — it is not a
    /// design cache at all.
    BadMagic,
    /// The file was written by a different schema version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The file ended in the middle of a record.
    Truncated,
    /// The bytes decoded to an impossible value (unknown operator tag,
    /// invalid UTF-8, …).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a design cache file (bad magic)"),
            PersistError::VersionMismatch { found, expected } => write!(
                f,
                "design cache schema version {found} is not the supported version {expected}"
            ),
            PersistError::Truncated => write!(f, "design cache file is truncated"),
            PersistError::Corrupt(msg) => write!(f, "design cache file is corrupt: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The best design found for one evaluation context, as stored durably: the
/// winning graph, its modelled throughput, and the matrix feature vector a
/// serving layer uses to warm-start searches of structurally similar
/// matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredDesign {
    /// The winning operator graph.
    pub graph: OperatorGraph,
    /// Modelled GFLOP/s of the winning kernel.
    pub gflops: f64,
    /// Matrix feature vector (see
    /// [`matrix_feature_vector`](crate::features::matrix_feature_vector)).
    pub matrix_features: Vec<f64>,
    /// Which evaluation backend produced `gflops`: the simulator's cost model
    /// or the native CPU backend's timing harness (with its parameters).
    /// Persisted so a store never serves a cost-model winner as a measured
    /// one — or the other way round.
    pub evaluator: EvaluatorId,
    /// Shape label of the native kernel the winner lowered to — the
    /// `alpha-cpu` monomorphized-library key, persisted so serving layers
    /// hand out the same kernel with zero re-matching.  A measured winner
    /// carries the shape it was timed as; a simulated winner is recorded
    /// with `None` by the search and gets the loop the building host
    /// selected for it on first use (see
    /// [`DesignCache::set_winner_kernel_shape`]).  A host fact, not part of
    /// the design's identity: a reader it does not fit re-derives it.
    pub kernel_shape: Option<String>,
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

/// Little-endian, length-prefixed byte encoder — the writing half of the
/// `ACDS` codec discipline.  Public so other subsystems that need the same
/// discipline (notably the `alpha-net` wire protocol) frame their payloads
/// with the exact encoder the durable cache files use, instead of growing a
/// second, subtly different codec.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer whose buffer is sized for `capacity` bytes up front —
    /// for callers that know (about) how long the message will be, so a
    /// multi-megabyte payload is allocated once instead of doubled into.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` as its IEEE-754 bit pattern (NaNs round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends an `f32` as its IEEE-754 bit pattern (NaNs round-trip).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    /// Appends a UTF-8 string: `u64` byte length, then the bytes.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends a `u32` array: `u64` element count, then every element
    /// little-endian — byte for byte what a count and one [`ByteWriter::u32`]
    /// per element write, in one reserved pass.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.le_words(vs.len(), vs.iter().copied());
    }
    /// Appends an `f32` array as IEEE-754 bit patterns (see
    /// [`ByteWriter::u32s`]); NaN payloads, `-0.0` and denormals round-trip.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.le_words(vs.len(), vs.iter().map(|v| v.to_bits()));
    }
    fn le_words(&mut self, count: usize, words: impl Iterator<Item = u32>) {
        self.u64(count as u64);
        self.buf.reserve(count * 4);
        self.buf.extend(words.flat_map(u32::to_le_bytes));
    }
    /// Appends raw bytes verbatim (headers, magic numbers).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }
    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// The reading half of the `ACDS` codec discipline: a cursor over a byte
/// slice whose every accessor fails with a typed [`PersistError`]
/// (`Truncated` / `Corrupt`) instead of panicking, no matter how adversarial
/// the input.  Shared with the `alpha-net` wire protocol (see [`ByteWriter`]).
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Consumes the next `n` bytes, or fails with
    /// [`PersistError::Truncated`] when fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.data.len() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` from its IEEE-754 bit pattern.
    pub fn f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed UTF-8 string (see [`ByteWriter::str`]).
    pub fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .map_err(|_| PersistError::Corrupt(format!("string length {len} overflows usize")))?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("string is not valid UTF-8".into()))
    }

    /// Reads a record count and bounds it against the remaining bytes (each
    /// counted record is at least one byte), so corrupt counts fail cleanly
    /// instead of driving huge allocations.
    pub fn count(&mut self, what: &str) -> Result<usize, PersistError> {
        self.count_of(what, 1)
    }

    /// Reads an element count for fixed-size elements and bounds
    /// `count * elem_size` against the remaining bytes, so a hostile count
    /// can never drive an allocation larger than the payload that carries
    /// it (a plain per-record bound would under-constrain by `elem_size`x).
    pub fn count_of(&mut self, what: &str, elem_size: usize) -> Result<usize, PersistError> {
        let count = self.u64()?;
        let remaining = self.remaining();
        if count as u128 * elem_size.max(1) as u128 > remaining as u128 {
            return Err(PersistError::Corrupt(format!(
                "{what} count {count} (x {elem_size} B) exceeds the {remaining} remaining bytes"
            )));
        }
        Ok(count as usize)
    }

    /// Reads a `u32` array written by [`ByteWriter::u32s`].  The count is
    /// bounded by [`ByteReader::count_of`] (`count x 4` must fit the
    /// remaining bytes) before anything is allocated; the elements then come
    /// out of one bounds-checked slice.
    pub fn u32s(&mut self, what: &str) -> Result<Vec<u32>, PersistError> {
        Ok(self.le_words(what)?.collect())
    }

    /// Reads an `f32` array written by [`ByteWriter::f32s`], bit-exactly
    /// (see [`ByteReader::u32s`] for the bounds rule).
    pub fn f32s(&mut self, what: &str) -> Result<Vec<f32>, PersistError> {
        Ok(self.le_words(what)?.map(f32::from_bits).collect())
    }

    fn le_words(&mut self, what: &str) -> Result<impl Iterator<Item = u32> + 'a, PersistError> {
        let count = self.count_of(what, 4)?;
        Ok(self
            .take(count * 4)?
            .chunks_exact(4)
            .map(|word| u32::from_le_bytes(word.try_into().expect("4-byte chunk"))))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.data.len()
    }
}

// ---------------------------------------------------------------------------
// Operator / graph codec
// ---------------------------------------------------------------------------

// Every operator is one tag byte plus one u64 parameter (0 when the operator
// is parameterless).  Tags are append-only: renumbering is a schema change.
// Tags 25–27 (the retired `SIMD_ROW_LANES`, `SIMD_NNZ_LANES` and
// `SIMD_PREFETCH`) stay reserved and decode as corrupt.
fn operator_tag(op: &Operator) -> (u8, u64) {
    use Operator::*;
    match op {
        RowDiv { parts } => (0, *parts as u64),
        ColDiv { parts } => (1, *parts as u64),
        Sort => (2, 0),
        SortSub => (3, 0),
        Bin { bins } => (4, *bins as u64),
        Compress => (5, 0),
        BmtbRowBlock { rows } => (6, *rows as u64),
        BmwRowBlock { rows } => (7, *rows as u64),
        BmtRowBlock { rows } => (8, *rows as u64),
        BmtColBlock { threads_per_row } => (9, *threads_per_row as u64),
        BmtNnzBlock { nnz } => (10, *nnz as u64),
        BmtbPad { multiple } => (11, *multiple as u64),
        BmwPad { multiple } => (12, *multiple as u64),
        BmtPad { multiple } => (13, *multiple as u64),
        SortBmtb => (14, 0),
        InterleavedStorage => (15, 0),
        SetResources { threads_per_block } => (16, *threads_per_block as u64),
        GmemAtomRed => (17, 0),
        ShmemOffsetRed => (18, 0),
        ShmemTotalRed => (19, 0),
        WarpTotalRed => (20, 0),
        WarpBitmapRed => (21, 0),
        WarpSegRed => (22, 0),
        ThreadTotalRed => (23, 0),
        ThreadBitmapRed => (24, 0),
    }
}

fn operator_from_tag(tag: u8, param: u64) -> Result<Operator, PersistError> {
    use Operator::*;
    let p = usize::try_from(param).map_err(|_| {
        PersistError::Corrupt(format!("operator parameter {param} overflows usize"))
    })?;
    Ok(match tag {
        0 => RowDiv { parts: p },
        1 => ColDiv { parts: p },
        2 => Sort,
        3 => SortSub,
        4 => Bin { bins: p },
        5 => Compress,
        6 => BmtbRowBlock { rows: p },
        7 => BmwRowBlock { rows: p },
        8 => BmtRowBlock { rows: p },
        9 => BmtColBlock { threads_per_row: p },
        10 => BmtNnzBlock { nnz: p },
        11 => BmtbPad { multiple: p },
        12 => BmwPad { multiple: p },
        13 => BmtPad { multiple: p },
        14 => SortBmtb,
        15 => InterleavedStorage,
        16 => SetResources {
            threads_per_block: p,
        },
        17 => GmemAtomRed,
        18 => ShmemOffsetRed,
        19 => ShmemTotalRed,
        20 => WarpTotalRed,
        21 => WarpBitmapRed,
        22 => WarpSegRed,
        23 => ThreadTotalRed,
        24 => ThreadBitmapRed,
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown operator tag {other}"
            )))
        }
    })
}

fn write_operator(w: &mut ByteWriter, op: &Operator) {
    let (tag, param) = operator_tag(op);
    w.u8(tag);
    w.u64(param);
}

fn read_operator(r: &mut ByteReader<'_>) -> Result<Operator, PersistError> {
    let tag = r.u8()?;
    let param = r.u64()?;
    operator_from_tag(tag, param)
}

// Evaluator identity: one tag byte, plus the harness parameters for measured
// backends.  Tags are append-only like the operator tags.
fn write_evaluator(w: &mut ByteWriter, id: EvaluatorId) {
    match id {
        EvaluatorId::Simulated => w.u8(0),
        EvaluatorId::Native { warmup, runs } => {
            w.u8(1);
            w.u32(warmup);
            w.u32(runs);
        }
    }
}

fn read_evaluator(r: &mut ByteReader<'_>) -> Result<EvaluatorId, PersistError> {
    match r.u8()? {
        0 => Ok(EvaluatorId::Simulated),
        1 => Ok(EvaluatorId::Native {
            warmup: r.u32()?,
            runs: r.u32()?,
        }),
        other => Err(PersistError::Corrupt(format!(
            "unknown evaluator tag {other}"
        ))),
    }
}

// Optional string: one presence byte, then the string when present.
fn write_opt_str(w: &mut ByteWriter, s: &Option<String>) {
    match s {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.str(s);
        }
    }
}

fn read_opt_str(r: &mut ByteReader<'_>) -> Result<Option<String>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        other => Err(PersistError::Corrupt(format!(
            "unknown optional-string tag {other}"
        ))),
    }
}

fn write_graph(w: &mut ByteWriter, graph: &OperatorGraph) {
    w.u64(graph.converting.len() as u64);
    for op in &graph.converting {
        write_operator(w, op);
    }
    w.u64(graph.branches.len() as u64);
    for branch in &graph.branches {
        w.u64(branch.len() as u64);
        for op in branch {
            write_operator(w, op);
        }
    }
}

// The fewest bytes each counted record takes, so a count is bounded by what
// the rest of the input could carry before anything is reserved for it.
const OPERATOR_BYTES: usize = 9; // tag, parameter
const BRANCH_BYTES: usize = 8; // operator count
const GRAPH_BYTES: usize = 16; // converting and branch counts
const EVALUATION_BYTES: usize = 17; // context key, signature length, outcome tag
const WINNER_BYTES: usize = 8 + GRAPH_BYTES + 8 + 8 + 1 + 1; // …, evaluator and shape tags
const FEATURE_BYTES: usize = 8;
const PIN_BYTES: usize = 16; // context key, graph count

fn read_graph(r: &mut ByteReader<'_>) -> Result<OperatorGraph, PersistError> {
    let converting_len = r.count_of("converting-operator", OPERATOR_BYTES)?;
    let mut converting = Vec::with_capacity(converting_len);
    for _ in 0..converting_len {
        converting.push(read_operator(r)?);
    }
    let branch_count = r.count_of("branch", BRANCH_BYTES)?;
    let mut branches = Vec::with_capacity(branch_count);
    for _ in 0..branch_count {
        let branch_len = r.count_of("branch-operator", OPERATOR_BYTES)?;
        let mut branch = Vec::with_capacity(branch_len);
        for _ in 0..branch_len {
            branch.push(read_operator(r)?);
        }
        branches.push(branch);
    }
    Ok(OperatorGraph {
        converting,
        branches,
    })
}

// ---------------------------------------------------------------------------
// PerfReport codec
// ---------------------------------------------------------------------------

fn write_report(w: &mut ByteWriter, report: &PerfReport) {
    w.str(&report.device);
    w.f64(report.time_us);
    w.f64(report.memory_time_us);
    w.f64(report.compute_time_us);
    w.f64(report.launch_overhead_us);
    w.f64(report.gflops);
    w.f64(report.dram_bytes);
    w.f64(report.l2_bytes);
    w.f64(report.x_l2_hit_rate);
    w.f64(report.occupancy);
    w.f64(report.bytes_per_flop);
    let c = &report.counters;
    w.f64(c.matrix_dram_bytes);
    w.f64(c.x_gather_bytes);
    w.f64(c.y_write_bytes);
    w.u64(c.transactions);
    w.u64(c.fma_ops);
    w.u64(c.atomic_ops);
    w.u64(c.atomic_conflicts);
    w.f64(c.shared_bytes);
    w.u64(c.syncs);
    w.u64(c.shuffles);
    w.f64(c.total_block_latency_cycles);
    w.f64(c.max_block_latency_cycles);
    w.u64(c.blocks);
}

fn read_report(r: &mut ByteReader<'_>) -> Result<PerfReport, PersistError> {
    Ok(PerfReport {
        device: r.str()?,
        time_us: r.f64()?,
        memory_time_us: r.f64()?,
        compute_time_us: r.f64()?,
        launch_overhead_us: r.f64()?,
        gflops: r.f64()?,
        dram_bytes: r.f64()?,
        l2_bytes: r.f64()?,
        x_l2_hit_rate: r.f64()?,
        occupancy: r.f64()?,
        bytes_per_flop: r.f64()?,
        counters: KernelCounters {
            matrix_dram_bytes: r.f64()?,
            x_gather_bytes: r.f64()?,
            y_write_bytes: r.f64()?,
            transactions: r.u64()?,
            fma_ops: r.u64()?,
            atomic_ops: r.u64()?,
            atomic_conflicts: r.u64()?,
            shared_bytes: r.f64()?,
            syncs: r.u64()?,
            shuffles: r.u64()?,
            total_block_latency_cycles: r.f64()?,
            max_block_latency_cycles: r.f64()?,
            blocks: r.u64()?,
        },
    })
}

// ---------------------------------------------------------------------------
// Whole-cache codec
// ---------------------------------------------------------------------------

impl DesignCache {
    /// Serialises the cache — evaluations, winners and seed pins — to the
    /// versioned binary format.  The output is deterministic: entries are
    /// sorted by key, so identical caches produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::default();
        w.raw(&CACHE_MAGIC);
        w.u32(CACHE_FORMAT_VERSION);

        // Section 1: evaluations.
        let entries = self.entries_snapshot();
        let mut keys: Vec<_> = entries.keys().cloned().collect();
        keys.sort();
        w.u64(keys.len() as u64);
        for key in &keys {
            let (context_key, signature) = key;
            w.u64(*context_key);
            w.str(signature);
            match &entries[key] {
                None => w.u8(0),
                Some((report, kernel_shape)) => {
                    w.u8(1);
                    write_report(&mut w, report);
                    write_opt_str(&mut w, kernel_shape);
                }
            }
        }

        // Section 2: winners.
        let winners = self.winners();
        let mut winners: Vec<_> = winners.into_iter().collect();
        winners.sort_by_key(|(k, _)| *k);
        w.u64(winners.len() as u64);
        for (context_key, design) in &winners {
            w.u64(*context_key);
            write_graph(&mut w, &design.graph);
            w.f64(design.gflops);
            w.u64(design.matrix_features.len() as u64);
            for &feature in &design.matrix_features {
                w.f64(feature);
            }
            write_evaluator(&mut w, design.evaluator);
            write_opt_str(&mut w, &design.kernel_shape);
        }

        // Section 3: seed pins.
        let pins = self.seed_pins_snapshot();
        let mut pins: Vec<_> = pins.into_iter().collect();
        pins.sort_by_key(|(k, _)| *k);
        w.u64(pins.len() as u64);
        for (context_key, graphs) in &pins {
            w.u64(*context_key);
            w.u64(graphs.len() as u64);
            for graph in graphs {
                write_graph(&mut w, graph);
            }
        }
        w.into_bytes()
    }

    /// Decodes a cache serialized by [`DesignCache::to_bytes`].  Rejects
    /// wrong magic, wrong schema versions, truncation, trailing garbage and
    /// structurally impossible values.
    pub fn from_bytes(bytes: &[u8]) -> Result<DesignCache, PersistError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4).map_err(|_| PersistError::BadMagic)? != CACHE_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let found = r.u32().map_err(|_| PersistError::BadMagic)?;
        if found != CACHE_FORMAT_VERSION {
            return Err(PersistError::VersionMismatch {
                found,
                expected: CACHE_FORMAT_VERSION,
            });
        }

        let cache = DesignCache::new();

        let entry_count = r.count_of("evaluation", EVALUATION_BYTES)?;
        let mut entries = HashMap::with_capacity(entry_count);
        for _ in 0..entry_count {
            let context_key = r.u64()?;
            let signature = r.str()?;
            let entry = match r.u8()? {
                0 => None,
                1 => {
                    let report = read_report(&mut r)?;
                    let kernel_shape = read_opt_str(&mut r)?;
                    Some((report, kernel_shape))
                }
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown evaluation-outcome tag {other}"
                    )))
                }
            };
            entries.insert((context_key, signature), entry);
        }
        cache.replace_entries(entries);

        let winner_count = r.count_of("winner", WINNER_BYTES)?;
        for _ in 0..winner_count {
            let context_key = r.u64()?;
            let graph = read_graph(&mut r)?;
            let gflops = r.f64()?;
            let feature_count = r.count_of("matrix-feature", FEATURE_BYTES)?;
            let mut matrix_features = Vec::with_capacity(feature_count);
            for _ in 0..feature_count {
                matrix_features.push(r.f64()?);
            }
            let evaluator = read_evaluator(&mut r)?;
            let kernel_shape = read_opt_str(&mut r)?;
            cache.record_winner(
                context_key,
                StoredDesign {
                    graph,
                    gflops,
                    matrix_features,
                    evaluator,
                    kernel_shape,
                },
            );
        }

        let pin_count = r.count_of("seed-pin", PIN_BYTES)?;
        for _ in 0..pin_count {
            let context_key = r.u64()?;
            let graph_count = r.count_of("pinned-graph", GRAPH_BYTES)?;
            let mut graphs = Vec::with_capacity(graph_count);
            for _ in 0..graph_count {
                graphs.push(read_graph(&mut r)?);
            }
            cache.pin_seed_designs(context_key, graphs);
        }

        if !r.finished() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        // Loading is not a modification: the cache matches its durable copy.
        cache.mark_clean();
        Ok(cache)
    }

    /// Writes the cache to `path` (creating missing parent directories).  The
    /// write goes through a uniquely named sibling temp file and an atomic
    /// rename: a crash mid-save never leaves a truncated cache behind, and
    /// concurrent saves of the same path cannot truncate each other's temp
    /// file — the last rename wins with a complete file either way.
    ///
    /// Does not clear the dirty flag — callers that use
    /// [`DesignCache::is_dirty`] to elide redundant saves should call
    /// [`DesignCache::mark_clean`] after this returns `Ok`.
    pub fn save_to_file<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        static SAVE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            SAVE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, self.to_bytes())?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Loads a cache previously written by [`DesignCache::save_to_file`].
    pub fn load_from_file<P: AsRef<Path>>(path: P) -> Result<DesignCache, PersistError> {
        let bytes = std::fs::read(path)?;
        DesignCache::from_bytes(&bytes)
    }

    /// Like [`DesignCache::load_from_file`], but a missing file yields an
    /// empty cache (first run against a store path that does not exist yet).
    /// Every other failure — including corruption and version mismatch — is
    /// still an error.
    pub fn load_or_empty<P: AsRef<Path>>(path: P) -> Result<DesignCache, PersistError> {
        match DesignCache::load_from_file(path) {
            Ok(cache) => Ok(cache),
            Err(PersistError::Io(e)) if e.kind() == ErrorKind::NotFound => Ok(DesignCache::new()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{CachingEvaluator, EvalContext, Evaluator, SimEvaluator};
    use alpha_codegen::GeneratorOptions;
    use alpha_gpu::DeviceProfile;
    use alpha_graph::presets;
    use alpha_matrix::gen;
    use std::sync::Arc;

    /// Fills a cache with real evaluations (feasible and, when possible,
    /// infeasible), a winner and a seed pin.
    fn populated_cache() -> Arc<DesignCache> {
        let matrix = gen::powerlaw(192, 192, 6, 2.0, 3);
        let ctx = EvalContext::new(
            &matrix,
            &DeviceProfile::a100(),
            GeneratorOptions::default(),
            7,
        )
        .unwrap();
        let cache = Arc::new(DesignCache::new());
        let evaluator =
            CachingEvaluator::new(SimEvaluator::new(DeviceProfile::a100(), 1), cache.clone());
        for (_, graph) in presets::all_presets() {
            let _ = evaluator.evaluate(&ctx, &graph);
        }
        cache.record_winner(
            ctx.context_key(),
            StoredDesign {
                graph: presets::csr_scalar(),
                gflops: 123.5,
                matrix_features: vec![1.0, 2.5, -0.75],
                evaluator: EvaluatorId::Simulated,
                kernel_shape: None,
            },
        );
        cache.pin_seed_designs(
            ctx.context_key(),
            vec![presets::csr_scalar(), presets::sell_like()],
        );
        cache
    }

    #[test]
    fn bulk_arrays_are_the_element_wise_bytes_and_bound_their_counts() {
        let ints = [0u32, 1, u32::MAX, 0x0102_0304];
        let floats = [
            1.5f32,
            -0.0,
            f32::from_bits(0x7fc0_0001),
            f32::MIN_POSITIVE / 2.0,
        ];
        let mut bulk = ByteWriter::default();
        bulk.u32s(&ints);
        bulk.f32s(&floats);
        let mut scalar = ByteWriter::default();
        scalar.u64(ints.len() as u64);
        ints.iter().for_each(|&v| scalar.u32(v));
        scalar.u64(floats.len() as u64);
        floats.iter().for_each(|&v| scalar.f32(v));
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, scalar.into_bytes());

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32s("int").unwrap(), ints);
        let back = r.f32s("float").unwrap();
        assert!(r.finished());
        assert!(back
            .iter()
            .zip(&floats)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // count x 4 must fit what remains — checked before any allocation,
        // for a count one too large, an absurd one, and a cut array.
        for count in [5u64, u64::MAX] {
            let mut hostile = bytes.clone();
            hostile[..8].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(
                ByteReader::new(&hostile[..24]).u32s("int"),
                Err(PersistError::Corrupt(_))
            ));
        }
        assert!(matches!(
            ByteReader::new(&bytes[..8 + 15]).u32s("int"),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            ByteReader::new(&bytes[..5]).f32s("float"),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cache = populated_cache();
        assert!(!cache.is_empty());
        let bytes = cache.to_bytes();
        let reloaded = DesignCache::from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(cache.entries_snapshot(), reloaded.entries_snapshot());
        assert_eq!(cache.winners(), reloaded.winners());
        assert_eq!(cache.seed_pins_snapshot(), reloaded.seed_pins_snapshot());
        // Deterministic bytes: serialising the reloaded cache reproduces the
        // file exactly.
        assert_eq!(bytes, reloaded.to_bytes());
    }

    #[test]
    fn empty_cache_round_trips() {
        let cache = DesignCache::new();
        let reloaded = DesignCache::from_bytes(&cache.to_bytes()).unwrap();
        assert!(reloaded.is_empty());
        assert!(reloaded.winners().is_empty());
    }

    #[test]
    fn save_and_load_through_a_file_with_missing_parents() {
        let dir = std::env::temp_dir()
            .join("alpha_persist_test")
            .join(format!("pid_{}", std::process::id()))
            .join("deep/nested");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cache.acds");
        let cache = populated_cache();
        cache.save_to_file(&path).expect("parents are created");
        let reloaded = DesignCache::load_from_file(&path).unwrap();
        assert_eq!(cache.entries_snapshot(), reloaded.entries_snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_empty_tolerates_only_missing_files() {
        let missing = std::env::temp_dir().join("alpha_persist_missing/nope.acds");
        let cache = DesignCache::load_or_empty(&missing).unwrap();
        assert!(cache.is_empty());

        let dir = std::env::temp_dir().join(format!("alpha_persist_junk_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.acds");
        std::fs::write(&junk, b"not a cache").unwrap();
        assert!(matches!(
            DesignCache::load_or_empty(&junk),
            Err(PersistError::BadMagic)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = populated_cache().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            DesignCache::from_bytes(&bytes),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            DesignCache::from_bytes(b""),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // Overwrite the version field (bytes 4..8) with a future version and
        // with the previous one (whose graphs may hold the retired tags 25–27).
        for version in [CACHE_FORMAT_VERSION + 1, CACHE_FORMAT_VERSION - 1] {
            let mut bytes = populated_cache().to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match DesignCache::from_bytes(&bytes) {
                Err(PersistError::VersionMismatch { found, expected }) => {
                    assert_eq!(found, version);
                    assert_eq!(expected, CACHE_FORMAT_VERSION);
                }
                other => panic!("expected VersionMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let bytes = populated_cache().to_bytes();
        // Chop the file at a spread of prefix lengths past the header: every
        // one must fail cleanly (truncated or corrupt), never panic or
        // succeed.
        for len in (9..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            match DesignCache::from_bytes(&bytes[..len]) {
                Err(PersistError::Truncated) | Err(PersistError::Corrupt(_)) => {}
                other => panic!("truncated at {len}: expected an error, got {other:?}"),
            }
        }
    }

    #[test]
    fn seeded_hostile_bytes_never_panic_the_decoder() {
        // A deterministic xorshift64* over a populated cache: bit flips, lies
        // in count and length fields, and truncation at every offset.  Every
        // decode must return a cache or a typed error, never panic.
        let bytes = populated_cache().to_bytes();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        let word =
            |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let decode = |bytes: &[u8]| match DesignCache::from_bytes(bytes) {
            Err(PersistError::Io(e)) => panic!("a decode does no I/O: {e}"),
            other => other.map(|_| ()),
        };
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "truncated at {len}");
        }
        // Every count and length is a small word (so are some values, which
        // are as good a place to lie).
        let fields: Vec<usize> = (8..bytes.len() - 7)
            .filter(|&at| word(&bytes, at) < 1 << 16)
            .collect();
        for _ in 0..200 {
            let mut mutated = bytes.clone();
            if next() % 2 == 0 {
                for _ in 0..=next() % 4 {
                    let at = next() as usize % mutated.len();
                    mutated[at] ^= 1 << (next() % 8);
                }
            } else {
                let at = fields[next() as usize % fields.len()];
                let lie = match next() % 4 {
                    0 => u64::MAX,
                    1 => (bytes.len() - at) as u64,
                    2 => word(&bytes, at) + 1,
                    _ => word(&bytes, at).saturating_sub(1),
                };
                mutated[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            }
            let _ = decode(&mutated);
            let _ = decode(&mutated[..next() as usize % mutated.len()]);
        }
        // A count whose records could not fit in the bytes left is refused
        // before anything is reserved for it.
        let fit = (bytes.len() - 16) / EVALUATION_BYTES;
        let mut lie = bytes.clone();
        lie[8..16].copy_from_slice(&(fit as u64 + 1).to_le_bytes());
        assert!(matches!(
            DesignCache::from_bytes(&lie),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = populated_cache().to_bytes();
        bytes.extend_from_slice(b"extra");
        assert!(matches!(
            DesignCache::from_bytes(&bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupted_operator_tags_are_rejected() {
        let cache = DesignCache::new();
        cache.record_winner(
            1,
            StoredDesign {
                graph: presets::csr_scalar(),
                gflops: 1.0,
                matrix_features: vec![],
                evaluator: EvaluatorId::Simulated,
                kernel_shape: None,
            },
        );
        let bytes = cache.to_bytes();
        // The first operator tag of the winner's graph follows the header
        // (4+4), the empty entries section (8), the winner count (8) and the
        // winner's context key (8) and converting-length (8).
        let tag_pos = 4 + 4 + 8 + 8 + 8 + 8;
        // 250 was never a tag; 25–27 are the retired SIMD operators,
        // reserved for good: a current-version body naming one is corrupt.
        for tag in [250, 25, 26, 27] {
            let mut corrupted = bytes.clone();
            corrupted[tag_pos] = tag;
            assert!(matches!(
                DesignCache::from_bytes(&corrupted),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn merge_unions_evaluations_winners_and_pins() {
        let a = populated_cache();
        let b = DesignCache::new();
        b.record_winner(
            99,
            StoredDesign {
                graph: presets::sell_like(),
                gflops: 55.0,
                matrix_features: vec![0.5],
                evaluator: EvaluatorId::Simulated,
                kernel_shape: None,
            },
        );
        b.pin_seed_designs(99, vec![presets::sell_like()]);
        let merged_new = b.merge_from(&a);
        assert_eq!(merged_new, a.len());
        assert_eq!(b.len(), a.len());
        assert_eq!(b.winners().len(), a.winners().len() + 1);
        // Existing entries are kept: merging again adds nothing.
        assert_eq!(b.merge_from(&a), 0);
        assert!(b.winner(99).is_some());
    }

    #[test]
    fn dirty_tracking_elides_redundant_saves() {
        let cache = DesignCache::new();
        assert!(!cache.is_dirty(), "fresh cache is clean");
        let winner = StoredDesign {
            graph: presets::csr_scalar(),
            gflops: 10.0,
            matrix_features: vec![1.0],
            evaluator: EvaluatorId::Simulated,
            kernel_shape: None,
        };
        cache.record_winner(1, winner.clone());
        assert!(cache.is_dirty(), "first winner dirties the cache");
        cache.mark_clean();
        cache.record_winner(1, winner.clone());
        assert!(!cache.is_dirty(), "identical replay writes nothing new");
        // Loading is clean; merging nothing is clean; merging something is not.
        let loaded = DesignCache::from_bytes(&cache.to_bytes()).unwrap();
        assert!(!loaded.is_dirty(), "loaded cache matches its file");
        assert_eq!(loaded.merge_from(&cache), 0);
        assert!(!loaded.is_dirty(), "no-op merge stays clean");
        let other = DesignCache::new();
        other.record_winner(2, winner);
        loaded.merge_from(&other);
        assert!(
            loaded.is_dirty(),
            "absorbing a new winner dirties the cache"
        );
    }

    #[test]
    fn record_winner_keeps_the_better_design() {
        let cache = DesignCache::new();
        let design = |gflops: f64| StoredDesign {
            graph: presets::csr_scalar(),
            gflops,
            matrix_features: vec![],
            evaluator: EvaluatorId::Simulated,
            kernel_shape: None,
        };
        cache.record_winner(1, design(50.0));
        // A worse re-search result (e.g. a smaller budget) must not clobber
        // the stored winner...
        cache.mark_clean();
        cache.record_winner(1, design(20.0));
        assert_eq!(cache.winner(1).unwrap().gflops, 50.0);
        assert!(!cache.is_dirty());
        // ...but a better one replaces it.
        cache.record_winner(1, design(80.0));
        assert_eq!(cache.winner(1).unwrap().gflops, 80.0);
        assert!(cache.is_dirty());
    }

    #[test]
    fn all_catalogue_operators_round_trip() {
        for op in Operator::catalogue() {
            let mut w = ByteWriter::default();
            write_operator(&mut w, &op);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(read_operator(&mut r).unwrap(), op);
            assert!(r.finished());
        }
    }
}
