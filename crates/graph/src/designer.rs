//! The Designer: executes an Operator Graph over a sparse matrix and produces
//! the Matrix Metadata Set (paper Section IV and Figure 5).
//!
//! The converting chain reorders and partitions the matrix; each branch then
//! contributes its mapping, padding and reduction decisions.  The result is a
//! [`MatrixMetadataSet`] holding one fully-resolved [`PartitionPlan`] per
//! branch, from which `alpha-codegen` extracts the machine-designed format
//! arrays and builds the kernel.
//!
//! The two halves cost very differently.  The **converting stage** — `SORT`,
//! `BIN`, `ROW_DIV`, `COL_DIV` in the shared chain, `SORT_SUB`, `BIN` and
//! `SORT_BMTB` in a branch — sorts row orders and copies every non-zero of
//! the matrix.  Everything after it is a handful of scalars read off the
//! branch.  A search designs ~85 graphs over one matrix and they differ
//! almost only in the cheap half: one search asks for 5-17 distinct
//! conversions.
//!
//! So a [`Designer`] lives as long as the search does.  It borrows the
//! matrix, and [`Designer::design`] remembers the converting stage's output —
//! the reordered / split sub-matrix, its `origin_rows`, its `BIN` boundaries —
//! under exactly the operators that produced it (the conversion key, below).
//! Mapping, padding, interleaving, reductions and resources
//! are resolved per call on top of it: they are cheap, and they are what a
//! search varies.  The free [`design`] is the same code with a Designer that
//! lives for one call.
//!
//! **Who owns the streams.**  A conversion is built once, into an
//! `Arc<CsrMatrix>` and an `Arc<[u32]>`.  Every [`PartitionPlan`] designed on
//! top of it, the simulated kernel generated from that plan and the native
//! partition lowered from it hold a reference to that one allocation; nothing
//! downstream of the Designer copies a non-zero.  Content-equal conversions
//! are one allocation too: two converting chains can reorder alike (`SORT`
//! of a matrix whose rows are all one length leaves it as it was), and a
//! newly built piece whose `origin_rows` and sub-matrix equal a held piece's
//! takes the held `Arc`s (counted as `interned`), so a later stage that
//! recognises a program by its allocation sees one program, not two.
//! Beside each piece it holds, the Designer keeps one value a generator
//! derived from it ([`Designer::derived`]: `alpha-codegen`'s fitted index
//! arrays), dropped with the last memo entry holding the piece.
//!
//! The memo is keyed by operators only (never by matrix content: a Designer
//! has one matrix), holds a bounded multiple of that matrix
//! (`MEMO_MATRIX_MULTIPLE`), and is dropped with the Designer.

use crate::graph::{OperatorGraph, ValidationError};
use crate::metadata::{MatrixMetadataSet, PadScope, Padding, PartitionPlan, SimdPlan};
use crate::operator::Operator;
use alpha_matrix::{CooMatrix, CsrMatrix};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Warp size assumed by the designer's validation rules (CUDA fixes this at 32).
pub const WARP_SIZE: usize = 32;

/// How many times the input matrix's `format_bytes()` a [`Designer`]'s memo
/// may hold.
///
/// Measured per 80-iteration search on the benchmark's cold fleet (262 k
/// non-zeros): the distinct conversions of one search are 16-17 ≈ 13.5× the
/// matrix on rmat and powerlaw and 5-8 ≈ 5-7.5× on banded, uniform and
/// block.  Holding all of them would pin 13 GB to tune a 1 GB matrix.
/// But candidates arrive grouped by structure — all parameter variants of one
/// graph structure come back to back — and one structure needs its shared
/// chain's output plus one reordering per branch: two whole-matrix
/// conversions.  The bound is room for two structures (the one being swept
/// and its neighbour in the schedule, which overlap when a batch runs on
/// several threads), i.e. four whole-matrix conversions; a conversion is the
/// matrix's streams plus an `origin_rows` array, ≈ 1.03× `format_bytes()` at
/// 16 non-zeros per row, so four of them need 5×, not 4×.  With
/// least-recently-used eviction at 5× those searches build 6 (regular) and
/// 17-22 (rmat, powerlaw) conversions: 1-5 rebuilds of ≈ 0.4 ms in a ≈ 100 ms
/// tune.
const MEMO_MATRIX_MULTIPLE: usize = 5;

/// Errors produced while executing an operator graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// The graph failed static validation.
    Invalid(ValidationError),
    /// The graph is valid but cannot be applied to this particular matrix
    /// (e.g. more partitions than rows).
    Unsupported(String),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Invalid(e) => write!(f, "invalid operator graph: {e}"),
            DesignError::Unsupported(msg) => write!(f, "unsupported design: {msg}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<ValidationError> for DesignError {
    fn from(value: ValidationError) -> Self {
        DesignError::Invalid(value)
    }
}

/// Executes `graph` over `matrix`, producing the Matrix Metadata Set: a
/// [`Designer`] that lives for this one call.
pub fn design(graph: &OperatorGraph, matrix: &CsrMatrix) -> Result<MatrixMetadataSet, DesignError> {
    Designer::new(matrix).design(graph)
}

/// What a [`Designer`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesignerStats {
    /// Calls of [`Designer::design`].
    pub designs: u64,
    /// Conversions (a shared chain, or one branch's reordering) executed
    /// over the matrix.
    pub built: u64,
    /// Conversions answered from one built before.
    pub reused: u64,
    /// Pieces of built conversions that turned out equal to a held piece
    /// and took its allocation instead of keeping their own.
    pub interned: u64,
}

/// The Designer of one matrix: executes operator graphs over it, converting
/// the matrix once per distinct converting chain (see the module docs).
/// Shareable across threads; a search owns one for as long as it runs.
pub struct Designer<'m> {
    matrix: &'m CsrMatrix,
    memo: Mutex<Memo>,
    /// Bytes the memo may hold.
    memo_limit: usize,
    designs: AtomicU64,
    built: AtomicU64,
    reused: AtomicU64,
    interned: AtomicU64,
}

/// What identifies a conversion: the operators that reorder or split, and
/// nothing else — two graphs with equal keys convert the matrix identically
/// whatever their mapping and implementing stages say.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConversionKey {
    /// `SORT`, `BIN{bins}`, `ROW_DIV{parts}`, `COL_DIV{parts}` of the shared
    /// chain, in order.
    chain: Vec<Operator>,
    /// `None` for the shared chain's own output (one piece per partition).
    branch: Option<BranchKey>,
}

/// The reordering one branch applies to its piece of the shared chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BranchKey {
    /// Which piece of the shared chain's output the branch starts from.
    index: usize,
    /// `SORT_SUB` and `BIN{bins}` of the branch, in order.
    reorders: Vec<Operator>,
    /// Rows per thread block (`BMTB_ROW_BLOCK`) when `SORT_BMTB` sorts within
    /// them.
    sort_bmtb_rows: Option<usize>,
}

/// The value a generator derived from one piece's allocations (see
/// [`Designer::derived`]); shared by every memo entry holding the piece.
type DerivedCell = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// One partition as the converting stage leaves it.  Cloning shares the
/// streams.
#[derive(Clone)]
struct Piece {
    origin_rows: Arc<[u32]>,
    matrix: Arc<CsrMatrix>,
    col_offset: usize,
    shares_rows: bool,
    bin_boundaries: Option<Vec<usize>>,
    /// Goes with `origin_rows` and `matrix`: a new allocation gets a new
    /// cell, an interned piece its twin's.
    derived: DerivedCell,
}

impl Piece {
    /// A piece of freshly built allocations, not shared with any other.
    fn new(
        origin_rows: Arc<[u32]>,
        matrix: CsrMatrix,
        col_offset: usize,
        shares_rows: bool,
    ) -> Piece {
        Piece {
            origin_rows,
            matrix: Arc::new(matrix),
            col_offset,
            shares_rows,
            bin_boundaries: None,
            derived: DerivedCell::default(),
        }
    }

    /// The rows `origin_rows` of `matrix`, in that order.
    fn of_rows(matrix: &CsrMatrix, origin_rows: Vec<u32>) -> Piece {
        let rows: Vec<usize> = origin_rows.iter().map(|&r| r as usize).collect();
        Piece::new(origin_rows.into(), matrix.select_rows(&rows), 0, false)
    }

    /// Permutes the piece by a local row order (local indices).
    fn reorder(&mut self, order: &[u32]) {
        let rows: Vec<usize> = order.iter().map(|&r| r as usize).collect();
        self.matrix = Arc::new(self.matrix.select_rows(&rows));
        self.origin_rows = order
            .iter()
            .map(|&r| self.origin_rows[r as usize])
            .collect();
        self.derived = DerivedCell::default();
    }

    fn bytes(&self) -> usize {
        self.matrix.format_bytes() + self.origin_rows.len() * 4
    }

    /// True when `plan` was designed on this piece's allocations.
    fn is_under(&self, plan: &PartitionPlan) -> bool {
        Arc::ptr_eq(&self.matrix, &plan.matrix) && Arc::ptr_eq(&self.origin_rows, &plan.origin_rows)
    }

    /// True when `other` holds the same arrays, wherever they live: the
    /// cheap checks first, the memoised fingerprints before the streams.
    fn equals(&self, other: &Piece) -> bool {
        let (a, b) = (&self.matrix, &other.matrix);
        (a.rows(), a.cols(), a.nnz()) == (b.rows(), b.cols(), b.nnz())
            && self.origin_rows == other.origin_rows
            && a.fingerprint() == b.fingerprint()
            && a == b
    }
}

/// The conversions a [`Designer`] holds, least recently used first out.
#[derive(Default)]
struct Memo {
    entries: HashMap<ConversionKey, MemoEntry>,
    /// Sum of the entries' `bytes`.
    bytes: usize,
    /// Ticks on every access; the entry with the lowest stamp goes first.
    clock: u64,
}

struct MemoEntry {
    pieces: Arc<[Piece]>,
    bytes: usize,
    used: u64,
}

impl Memo {
    fn get(&mut self, key: &ConversionKey) -> Option<Arc<[Piece]>> {
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        entry.used = self.clock;
        Some(entry.pieces.clone())
    }

    /// Keeps `pieces` unless they alone exceed `limit`, evicting the least
    /// recently used entries until they fit, and returns what `key` now
    /// names.
    fn insert(&mut self, key: ConversionKey, pieces: Arc<[Piece]>, limit: usize) -> Arc<[Piece]> {
        // Two threads that missed the same key both built it, bit for bit
        // the same: the first one in stays, and the second takes it, so both
        // hand out one allocation.
        if let Some(held) = self.entries.get(&key) {
            return held.pieces.clone();
        }
        let bytes: usize = pieces.iter().map(Piece::bytes).sum();
        if bytes > limit {
            return pieces;
        }
        while self.bytes + bytes > limit {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.used)
                .map(|(key, _)| key.clone())
                .expect("a memo over its limit holds an entry");
            let evicted = self.entries.remove(&oldest).expect("key just found");
            self.bytes -= evicted.bytes;
        }
        self.clock += 1;
        self.bytes += bytes;
        self.entries.insert(
            key,
            MemoEntry {
                pieces: pieces.clone(),
                bytes,
                used: self.clock,
            },
        );
        pieces
    }
}

impl<'m> Designer<'m> {
    /// A Designer for `matrix`, with nothing converted yet.
    pub fn new(matrix: &'m CsrMatrix) -> Self {
        Self::with_memo_limit(matrix, MEMO_MATRIX_MULTIPLE * matrix.format_bytes())
    }

    fn with_memo_limit(matrix: &'m CsrMatrix, memo_limit: usize) -> Self {
        Designer {
            matrix,
            memo: Mutex::new(Memo::default()),
            memo_limit,
            designs: AtomicU64::new(0),
            built: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            interned: AtomicU64::new(0),
        }
    }

    /// Designs, conversions built, reused and pieces interned so far.
    pub fn stats(&self) -> DesignerStats {
        DesignerStats {
            designs: self.designs.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            interned: self.interned.load(Ordering::Relaxed),
        }
    }

    /// What `derive` computes from the conversion `plan` was designed on:
    /// computed once while this Designer holds that conversion, and shared
    /// by every plan designed on it.  A generator keeps here what depends on
    /// the conversion alone — `alpha-codegen` its fitted `origin_rows` /
    /// `row_offsets` arrays — so the value lives exactly as long as the
    /// memo keeps the conversion: never past an eviction, never past the
    /// Designer.  A plan on a conversion the memo does not hold (one above
    /// the bound, or a plan this Designer did not design), or a piece that
    /// already keeps a value of another type, gets `derive`'s value
    /// unkept.
    pub fn derived<T: Any + Send + Sync>(
        &self,
        plan: &PartitionPlan,
        derive: impl FnOnce() -> T,
    ) -> Arc<T> {
        let cell = {
            let memo = self.memo.lock().expect("designer memo poisoned");
            memo.entries
                .values()
                .flat_map(|entry| entry.pieces.iter())
                .find(|piece| piece.is_under(plan))
                .map(|piece| piece.derived.clone())
        };
        let Some(cell) = cell else {
            return Arc::new(derive());
        };
        // Outside the memo lock: a second thread asking for the same piece
        // waits for this one's value instead of deriving its own.
        let mut derive = Some(derive);
        let kept = cell.get_or_init(|| Arc::new(derive.take().expect("runs at most once")()));
        if let Ok(value) = kept.clone().downcast::<T>() {
            return value;
        }
        let derive = derive
            .take()
            .expect("a value of another type ran no derive");
        Arc::new(derive())
    }

    /// Executes `graph` over the matrix, producing the Matrix Metadata Set.
    /// Equal, field by field, to what a fresh Designer returns for the same
    /// graph, errors included.
    pub fn design(&self, graph: &OperatorGraph) -> Result<MatrixMetadataSet, DesignError> {
        self.designs.fetch_add(1, Ordering::Relaxed);
        graph.validate()?;
        let matrix = self.matrix;
        if matrix.rows() == 0 || matrix.nnz() == 0 {
            return Err(DesignError::Unsupported(
                "empty matrices are not supported".into(),
            ));
        }

        // ---- Shared converting chain ---------------------------------------
        let mut chain = Vec::new();
        for op in &graph.converting {
            match op {
                Operator::Compress => {} // the CSR input is already compressed
                Operator::Sort
                | Operator::Bin { .. }
                | Operator::RowDiv { .. }
                | Operator::ColDiv { .. } => chain.push(op.clone()),
                other => {
                    return Err(DesignError::Unsupported(format!(
                        "{} is not executable in the shared chain",
                        other.name()
                    )));
                }
            }
        }
        let shared = ConversionKey {
            chain,
            branch: None,
        };
        let pieces = self.converted(&shared, || convert_shared(matrix, &shared.chain))?;

        // ---- Per-branch execution ------------------------------------------
        let mut partitions = Vec::with_capacity(pieces.len());
        for (index, (piece, branch)) in pieces.iter().zip(&graph.branches).enumerate() {
            let piece = self.branch_piece(&shared.chain, index, piece, branch)?;
            partitions.push(design_branch(piece, branch, &graph.converting));
        }

        Ok(MatrixMetadataSet {
            original_rows: matrix.rows(),
            original_cols: matrix.cols(),
            original_nnz: matrix.nnz(),
            partitions,
        })
    }

    /// The conversion `key` names: from the memo, or built by `build`,
    /// interned, and then kept within the bound.  The lock is never held
    /// while `build` runs or pieces are compared, so two threads that miss
    /// the same key may both build it; both return the one the memo keeps.
    fn converted(
        &self,
        key: &ConversionKey,
        build: impl FnOnce() -> Result<Vec<Piece>, DesignError>,
    ) -> Result<Arc<[Piece]>, DesignError> {
        let held = self.memo.lock().expect("designer memo poisoned").get(key);
        if let Some(pieces) = held {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(pieces);
        }
        let mut pieces = build()?;
        self.built.fetch_add(1, Ordering::Relaxed);
        self.intern(&mut pieces);
        Ok(self.memo.lock().expect("designer memo poisoned").insert(
            key.clone(),
            pieces.into(),
            self.memo_limit,
        ))
    }

    /// Gives every new piece equal to a held one the held piece's
    /// allocations (and its derived value), dropping its own.
    fn intern(&self, pieces: &mut [Piece]) {
        let held: Vec<Piece> = {
            let memo = self.memo.lock().expect("designer memo poisoned");
            memo.entries
                .values()
                .flat_map(|entry| entry.pieces.iter())
                .cloned()
                .collect()
        };
        for piece in pieces {
            if let Some(twin) = held.iter().find(|held| held.equals(piece)) {
                piece.origin_rows = twin.origin_rows.clone();
                piece.matrix = twin.matrix.clone();
                piece.derived = twin.derived.clone();
                self.interned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A branch's piece of the shared chain's output after the branch's own
    /// converting operators: `SORT_SUB` / `BIN` in order, then `SORT_BMTB`
    /// (rows by length within each thread-block group).  A branch that
    /// reorders nothing shares the piece as it is.
    fn branch_piece(
        &self,
        chain: &[Operator],
        index: usize,
        piece: &Piece,
        branch: &[Operator],
    ) -> Result<Piece, DesignError> {
        let sort_bmtb = branch.iter().any(|op| matches!(op, Operator::SortBmtb));
        let reordering = BranchKey {
            index,
            reorders: branch
                .iter()
                .filter(|op| matches!(op, Operator::SortSub | Operator::Bin { .. }))
                .cloned()
                .collect(),
            sort_bmtb_rows: sort_bmtb
                .then(|| rows_per_bmtb(branch).expect("validation guarantees BMTB_ROW_BLOCK")),
        };
        if reordering.reorders.is_empty() && reordering.sort_bmtb_rows.is_none() {
            return Ok(piece.clone());
        }
        let key = ConversionKey {
            chain: chain.to_vec(),
            branch: Some(reordering),
        };
        let reordering = key.branch.as_ref().expect("set above");
        let converted = self.converted(&key, || Ok(vec![convert_branch(piece, reordering)]))?;
        Ok(converted[0].clone())
    }
}

/// Rows per thread block, when the branch has a `BMTB_ROW_BLOCK`.
fn rows_per_bmtb(branch: &[Operator]) -> Option<usize> {
    branch.iter().find_map(|op| match op {
        Operator::BmtbRowBlock { rows } => Some(*rows),
        _ => None,
    })
}

/// Resolves everything the mapping and implementing stages of one branch
/// decide, on top of its converted piece.  Cheap, and what a search varies:
/// done per call, never memoised.
fn design_branch(piece: Piece, branch: &[Operator], shared: &[Operator]) -> PartitionPlan {
    let mapping =
        OperatorGraph::branch_mapping(branch).expect("validation guarantees a thread mapping");
    let reduction = OperatorGraph::branch_reduction(branch);
    let threads_per_block = OperatorGraph::branch_threads_per_block(branch);

    let rows_per_bmtb = rows_per_bmtb(branch);
    let rows_per_bmw = branch.iter().find_map(|op| match op {
        Operator::BmwRowBlock { rows } => Some(*rows),
        _ => None,
    });
    let padding = branch.iter().find_map(|op| match op {
        Operator::BmtbPad { multiple } => Some(Padding {
            scope: PadScope::ThreadBlock,
            multiple: *multiple,
        }),
        Operator::BmwPad { multiple } => Some(Padding {
            scope: PadScope::Warp,
            multiple: *multiple,
        }),
        Operator::BmtPad { multiple } => Some(Padding {
            scope: PadScope::Thread,
            multiple: *multiple,
        }),
        _ => None,
    });
    let interleaved = branch
        .iter()
        .any(|op| matches!(op, Operator::InterleavedStorage));
    let sort_bmtb = branch.iter().any(|op| matches!(op, Operator::SortBmtb));
    let mut operators: Vec<Operator> = shared.to_vec();
    operators.extend(branch.iter().cloned());

    PartitionPlan {
        origin_rows: piece.origin_rows,
        matrix: piece.matrix,
        col_offset: piece.col_offset,
        mapping,
        rows_per_bmtb,
        rows_per_bmw,
        padding,
        interleaved,
        sort_bmtb,
        bin_boundaries: piece.bin_boundaries,
        reduction,
        threads_per_block,
        simd: SimdPlan::scalar(),
        shares_rows_with_siblings: piece.shares_rows,
        operators,
    }
}

/// Executes the shared chain's reordering and splitting operators over the
/// matrix: one piece per partition.
fn convert_shared(matrix: &CsrMatrix, chain: &[Operator]) -> Result<Vec<Piece>, DesignError> {
    // Row order over the original matrix (original row ids).
    let mut row_order: Vec<u32> = (0..matrix.rows() as u32).collect();
    for op in chain {
        match op {
            Operator::Sort => sort_rows_by_length(matrix, &mut row_order),
            Operator::Bin { bins } => {
                bin_rows_by_length(matrix, &mut row_order, *bins);
            }
            _ => {} // the split, below
        }
    }
    match chain
        .iter()
        .find(|op| matches!(op, Operator::RowDiv { .. } | Operator::ColDiv { .. }))
    {
        Some(Operator::RowDiv { parts }) => split_rows(matrix, &row_order, *parts),
        Some(Operator::ColDiv { parts }) => split_cols(matrix, &row_order, *parts),
        _ => Ok(vec![Piece::of_rows(matrix, row_order)]),
    }
}

/// Applies one branch's reordering to its piece of the shared chain's output.
fn convert_branch(piece: &Piece, reordering: &BranchKey) -> Piece {
    let mut piece = piece.clone();
    let local_order = |piece: &Piece| -> Vec<u32> { (0..piece.matrix.rows() as u32).collect() };
    for op in &reordering.reorders {
        let mut order = local_order(&piece);
        if let Operator::Bin { bins } = op {
            piece.bin_boundaries = Some(bin_rows_by_length(&piece.matrix, &mut order, *bins));
        } else {
            sort_rows_by_length(&piece.matrix, &mut order);
        }
        piece.reorder(&order);
    }
    if let Some(group) = reordering.sort_bmtb_rows {
        let mut order = local_order(&piece);
        let lengths = piece.matrix.row_lengths();
        for chunk in order.chunks_mut(group.max(1)) {
            chunk.sort_by_key(|&r| std::cmp::Reverse(lengths[r as usize]));
        }
        piece.reorder(&order);
    }
    piece
}

/// Sorts a row order by decreasing row length (stable, so ties keep their
/// original relative order).
fn sort_rows_by_length(matrix: &CsrMatrix, order: &mut [u32]) {
    order.sort_by_key(|&r| std::cmp::Reverse(matrix.row_len(r as usize)));
}

/// Reorders rows into `bins` row-length bins (longest bin first) and returns
/// the bin boundaries as indices into the new order.
fn bin_rows_by_length(matrix: &CsrMatrix, order: &mut Vec<u32>, bins: usize) -> Vec<usize> {
    let bins = bins.max(2);
    let max_len = order
        .iter()
        .map(|&r| matrix.row_len(r as usize))
        .max()
        .unwrap_or(0)
        .max(1);
    // Geometric bin edges: bin i holds rows with length in (max/2^(i+1), max/2^i].
    let bin_of = |len: usize| -> usize {
        if len == 0 {
            return bins - 1;
        }
        let mut edge = max_len;
        for b in 0..bins {
            let lower = edge / 2;
            if len > lower || b == bins - 1 {
                return b;
            }
            edge = lower;
        }
        bins - 1
    };
    let mut grouped: Vec<Vec<u32>> = vec![Vec::new(); bins];
    for &r in order.iter() {
        grouped[bin_of(matrix.row_len(r as usize))].push(r);
    }
    let mut boundaries = Vec::with_capacity(bins);
    let mut new_order = Vec::with_capacity(order.len());
    for group in grouped {
        new_order.extend_from_slice(&group);
        boundaries.push(new_order.len());
    }
    *order = new_order;
    boundaries
}

/// Splits the (already reordered) matrix into `parts` row bands with roughly
/// equal numbers of non-zeros.
fn split_rows(
    matrix: &CsrMatrix,
    row_order: &[u32],
    parts: usize,
) -> Result<Vec<Piece>, DesignError> {
    if parts > row_order.len() {
        return Err(DesignError::Unsupported(format!(
            "cannot split {} rows into {parts} partitions",
            row_order.len()
        )));
    }
    let total_nnz: usize = matrix.nnz();
    let mut pieces = Vec::with_capacity(parts);
    let mut current: Vec<u32> = Vec::new();
    let mut current_nnz = 0usize;
    let mut closed_nnz = 0usize;
    for (i, &row) in row_order.iter().enumerate() {
        let len = matrix.row_len(row as usize);
        // Adaptive target: non-zeros not yet in a closed piece, spread over
        // the pieces that still have to be formed (including the current one).
        let remaining_pieces = parts - pieces.len();
        let target = (total_nnz - closed_nnz).div_ceil(remaining_pieces).max(1);
        let rows_left = row_order.len() - i;
        // Close the current piece when it has reached its share, as long as
        // enough rows remain to populate the remaining pieces.
        if !current.is_empty()
            && pieces.len() + 1 < parts
            && rows_left >= remaining_pieces
            && (current_nnz >= target || current_nnz + len / 2 > target)
        {
            closed_nnz += current_nnz;
            pieces.push(std::mem::take(&mut current));
            current_nnz = 0;
        }
        current.push(row);
        current_nnz += len;
    }
    pieces.push(current);
    while pieces.len() < parts {
        // Degenerate split (very skewed matrices): give empty-but-valid bands
        // one row each from the largest band.
        let donor = pieces
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map(|(i, _)| i)
            .expect("at least one piece");
        if pieces[donor].len() <= 1 {
            return Err(DesignError::Unsupported(
                "matrix too small for the requested ROW_DIV".into(),
            ));
        }
        let split_at = pieces[donor].len() / 2;
        let moved = pieces[donor].split_off(split_at);
        pieces.push(moved);
    }
    Ok(pieces
        .into_iter()
        .map(|origin_rows| Piece::of_rows(matrix, origin_rows))
        .collect())
}

/// Splits the matrix into `parts` column bands; each band keeps every row but
/// only the columns in its range (re-indexed to start at zero).
fn split_cols(
    matrix: &CsrMatrix,
    row_order: &[u32],
    parts: usize,
) -> Result<Vec<Piece>, DesignError> {
    if parts > matrix.cols() {
        return Err(DesignError::Unsupported(format!(
            "cannot split {} columns into {parts} partitions",
            matrix.cols()
        )));
    }
    let band = matrix.cols().div_ceil(parts);
    // Every band keeps every row: one `origin_rows` allocation for all.
    let origin_rows: Arc<[u32]> = row_order.into();
    let mut pieces = Vec::with_capacity(parts);
    for p in 0..parts {
        let col_start = p * band;
        let col_end = ((p + 1) * band).min(matrix.cols());
        let width = col_end.saturating_sub(col_start).max(1);
        let mut coo = CooMatrix::new(row_order.len(), width);
        for (local_row, &orig_row) in row_order.iter().enumerate() {
            for idx in matrix.row_range(orig_row as usize) {
                let col = matrix.col_indices()[idx] as usize;
                if col >= col_start && col < col_end {
                    coo.push(local_row, col - col_start, matrix.values()[idx]);
                }
            }
        }
        pieces.push(Piece::new(
            origin_rows.clone(),
            CsrMatrix::from_coo(&coo),
            col_start,
            true,
        ));
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use alpha_matrix::gen;

    fn matrix() -> CsrMatrix {
        gen::powerlaw(200, 200, 8, 2.0, 3)
    }

    #[test]
    fn csr_scalar_preset_produces_identity_order() {
        let m = matrix();
        let meta = design(&presets::csr_scalar(), &m).unwrap();
        assert_eq!(meta.partitions.len(), 1);
        let plan = &meta.partitions[0];
        assert_eq!(plan.origin_rows[..], (0..200u32).collect::<Vec<_>>()[..]);
        assert_eq!(plan.nnz(), m.nnz());
        assert!(!meta.is_branched());
    }

    #[test]
    fn sort_orders_rows_by_decreasing_length() {
        let m = matrix();
        let meta = design(&presets::sell_like(), &m).unwrap();
        let plan = &meta.partitions[0];
        let lengths: Vec<usize> = (0..plan.rows()).map(|r| plan.matrix.row_len(r)).collect();
        assert!(
            lengths.windows(2).all(|w| w[0] >= w[1]),
            "rows not sorted by length"
        );
        // Every original row appears exactly once.
        let mut seen = plan.origin_rows.to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..200u32).collect::<Vec<_>>());
    }

    #[test]
    fn row_div_partitions_balance_nnz() {
        let m = matrix();
        let graph = presets::row_split_hybrid(4);
        let meta = design(&graph, &m).unwrap();
        assert_eq!(meta.partitions.len(), 4);
        assert!(meta.is_branched());
        assert_eq!(meta.total_partition_nnz(), m.nnz());
        let nnzs: Vec<usize> = meta.partitions.iter().map(|p| p.nnz()).collect();
        let max = *nnzs.iter().max().unwrap() as f64;
        let min = *nnzs.iter().min().unwrap().max(&1) as f64;
        assert!(max / min < 4.0, "nnz split too uneven: {nnzs:?}");
    }

    #[test]
    fn col_div_partitions_share_rows_and_cover_all_nnz() {
        let m = matrix();
        let graph = presets::col_split_atomic(2);
        let meta = design(&graph, &m).unwrap();
        assert_eq!(meta.partitions.len(), 2);
        assert!(meta.partitions.iter().all(|p| p.shares_rows_with_siblings));
        assert_eq!(meta.total_partition_nnz(), m.nnz());
        assert_eq!(meta.partitions[0].col_offset, 0);
        assert!(meta.partitions[1].col_offset > 0);
    }

    #[test]
    fn bin_records_boundaries() {
        let m = matrix();
        let graph = presets::acsr_like(4);
        let meta = design(&graph, &m).unwrap();
        let plan = &meta.partitions[0];
        let boundaries = plan.bin_boundaries.as_ref().expect("bins recorded");
        assert_eq!(*boundaries.last().unwrap(), plan.rows());
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_bmtb_sorts_within_blocks_only() {
        let m = matrix();
        let graph = presets::sell_sigma_like(32);
        let meta = design(&graph, &m).unwrap();
        let plan = &meta.partitions[0];
        let lengths: Vec<usize> = (0..plan.rows()).map(|r| plan.matrix.row_len(r)).collect();
        for chunk in lengths.chunks(32) {
            assert!(
                chunk.windows(2).all(|w| w[0] >= w[1]),
                "block not sorted: {chunk:?}"
            );
        }
    }

    #[test]
    fn invalid_graph_is_rejected() {
        let graph = OperatorGraph {
            converting: vec![Operator::Sort],
            branches: vec![vec![
                Operator::BmtRowBlock { rows: 1 },
                Operator::ThreadTotalRed,
            ]],
        };
        assert!(matches!(
            design(&graph, &matrix()),
            Err(DesignError::Invalid(_))
        ));
    }

    #[test]
    fn empty_matrix_is_rejected() {
        let empty = CsrMatrix::from_coo(&alpha_matrix::CooMatrix::new(4, 4));
        assert!(matches!(
            design(&presets::csr_scalar(), &empty),
            Err(DesignError::Unsupported(_))
        ));
    }

    #[test]
    fn too_many_partitions_is_rejected() {
        let tiny = gen::uniform_random(3, 3, 1, 1);
        let graph = presets::row_split_hybrid(8);
        assert!(matches!(
            design(&graph, &tiny),
            Err(DesignError::Unsupported(_))
        ));
    }

    /// Every pattern family plus the degenerate shapes: one row, one column,
    /// all rows empty but one.
    fn fleet() -> Vec<(String, CsrMatrix)> {
        let mut fleet: Vec<(String, CsrMatrix)> = gen::PatternFamily::ALL
            .iter()
            .enumerate()
            .map(|(i, family)| {
                (
                    family.name().to_string(),
                    family.generate(192, 6, 40 + i as u64),
                )
            })
            .collect();
        let mut single_row = CooMatrix::new(1, 90);
        let mut single_col = CooMatrix::new(90, 1);
        let mut lone_row = CooMatrix::new(48, 48);
        for k in (0..90).step_by(3) {
            single_row.push(0, k, 1.0 + k as f32);
            single_col.push(k, 0, 1.0 + k as f32);
            lone_row.push(47, k % 48, 0.5 + k as f32);
        }
        for (name, coo) in [
            ("1×n", single_row),
            ("n×1", single_col),
            ("empty rows", lone_row),
        ] {
            fleet.push((name.to_string(), CsrMatrix::from_coo(&coo)));
        }
        fleet
    }

    /// Fisher-Yates under a fixed xorshift stream.
    fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
        let mut state = seed | 1;
        for i in (1..items.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            items.swap(i, (state % (i as u64 + 1)) as usize);
        }
        items
    }

    /// Every preset twice, so every conversion is asked for again after
    /// others came in between.
    fn presets_twice_shuffled(seed: u64) -> Vec<(&'static str, OperatorGraph)> {
        let mut graphs = presets::all_presets();
        graphs.extend(presets::all_presets());
        shuffled(graphs, seed)
    }

    #[test]
    fn one_designer_answers_like_a_fresh_one_for_every_preset() {
        for (i, (name, matrix)) in fleet().into_iter().enumerate() {
            let designer = Designer::new(&matrix);
            let graphs = presets_twice_shuffled(7 + i as u64);
            for (preset, graph) in &graphs {
                // Field by field, streams included; errors too.
                assert!(
                    designer.design(graph) == design(graph, &matrix),
                    "{name}/{preset}"
                );
            }
            let stats = designer.stats();
            assert_eq!(stats.designs, graphs.len() as u64);
            assert!(stats.built > 0 && stats.reused > 0, "{name}: {stats:?}");
            // On the families nothing is evicted at the default bound: every
            // conversion is built once and the second visit of every preset
            // reuses.  (A degenerate matrix's `origin_rows` outweigh its
            // streams, so fewer of its conversions fit.)
            if i < gen::PatternFamily::ALL.len() {
                assert!(stats.reused >= stats.built, "{name}: {stats:?}");
            }
        }
    }

    #[test]
    fn designs_on_one_conversion_share_its_streams() {
        let m = matrix();
        let designer = Designer::new(&m);
        let scalar = designer.design(&presets::csr_scalar()).unwrap();
        let vector = designer.design(&presets::csr_vector()).unwrap();
        let (a, b) = (&scalar.partitions[0], &vector.partitions[0]);
        assert!(Arc::ptr_eq(&a.matrix, &b.matrix));
        assert!(Arc::ptr_eq(&a.origin_rows, &b.origin_rows));
        assert_ne!(a.mapping, b.mapping);
        assert_eq!(
            designer.stats(),
            DesignerStats {
                designs: 2,
                built: 1,
                reused: 1,
                interned: 0,
            }
        );
        // A clone of the metadata is a reference, not a copy.
        assert!(Arc::ptr_eq(&scalar.clone().partitions[0].matrix, &a.matrix));
    }

    /// `csr_scalar` behind a global `SORT`: another conversion key.
    fn sorted_csr_scalar() -> OperatorGraph {
        let mut graph = presets::csr_scalar();
        graph.converting.push(Operator::Sort);
        graph
            .validate()
            .expect("a sorted csr_scalar is a valid design");
        graph
    }

    #[test]
    fn two_converting_chains_with_equal_output_share_one_allocation() {
        // Every row has the same length, so the stable SORT leaves the order
        // as it was: two keys, one conversion.
        let m = gen::uniform_random(300, 300, 6, 4);
        let designer = Designer::new(&m);
        let plain = designer.design(&presets::csr_scalar()).unwrap();
        let sorted = designer.design(&sorted_csr_scalar()).unwrap();
        let (a, b) = (&plain.partitions[0], &sorted.partitions[0]);
        assert!(Arc::ptr_eq(&a.matrix, &b.matrix));
        assert!(Arc::ptr_eq(&a.origin_rows, &b.origin_rows));
        assert!(sorted == design(&sorted_csr_scalar(), &m).unwrap());
        assert_eq!(
            designer.stats(),
            DesignerStats {
                designs: 2,
                built: 2,
                reused: 0,
                interned: 1,
            }
        );

        // Where the SORT does move rows, the conversions stay apart.
        let skewed = matrix();
        let designer = Designer::new(&skewed);
        let plain = designer.design(&presets::csr_scalar()).unwrap();
        let sorted = designer.design(&sorted_csr_scalar()).unwrap();
        assert!(!Arc::ptr_eq(
            &plain.partitions[0].matrix,
            &sorted.partitions[0].matrix
        ));
        assert_eq!(designer.stats().interned, 0);
    }

    #[test]
    fn a_derived_value_is_kept_per_held_conversion_and_dropped_with_it() {
        let m = matrix();
        let whole = m.format_bytes() + m.rows() * 4;
        // Room for exactly one whole-matrix conversion.
        let designer = Designer::with_memo_limit(&m, whole);
        let derives = std::sync::atomic::AtomicUsize::new(0);
        let derive = |plan: &PartitionPlan| {
            designer.derived(plan, || {
                derives.fetch_add(1, Ordering::Relaxed);
                plan.matrix.nnz()
            })
        };
        let scalar = designer.design(&presets::csr_scalar()).unwrap();
        let first = derive(&scalar.partitions[0]);
        // Another design on the same conversion shares the value.
        let vector = designer.design(&presets::csr_vector()).unwrap();
        assert!(Arc::ptr_eq(&first, &derive(&vector.partitions[0])));
        assert_eq!(derives.load(Ordering::Relaxed), 1);
        // A value of another type on the same piece is derived, not kept.
        assert_eq!(
            *designer.derived(&scalar.partitions[0], || "other"),
            "other"
        );

        // The sorted conversion evicts the plain one, and its value with it:
        // the plain conversion's plans still work, unkept.
        let sorted = designer.design(&presets::sell_like()).unwrap();
        derive(&sorted.partitions[0]);
        assert_eq!(derives.load(Ordering::Relaxed), 2);
        let weak = Arc::downgrade(&first);
        drop(first);
        assert!(
            weak.upgrade().is_none(),
            "an evicted conversion's value is dropped"
        );
        derive(&scalar.partitions[0]);
        derive(&scalar.partitions[0]);
        assert_eq!(derives.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_memo_forced_small_rebuilds_and_stays_equal() {
        let m = matrix();
        let unbounded = Designer::with_memo_limit(&m, usize::MAX);
        for (_, graph) in presets::all_presets() {
            let _ = unbounded.design(&graph);
        }
        let distinct = unbounded.stats().built;
        let whole = m.format_bytes() + m.rows() * 4;
        assert!(unbounded.memo.lock().unwrap().bytes > 2 * whole);

        // Nothing fits; exactly one whole-matrix conversion fits; two do.
        for limit in [0, whole, 2 * whole] {
            let designer = Designer::with_memo_limit(&m, limit);
            for (preset, graph) in presets_twice_shuffled(limit as u64) {
                assert!(
                    designer.design(&graph) == design(&graph, &m),
                    "{preset} at {limit}"
                );
                let memo = designer.memo.lock().unwrap();
                assert!(memo.bytes <= limit, "{preset}: {} > {limit}", memo.bytes);
                assert_eq!(
                    memo.bytes,
                    memo.entries.values().map(|e| e.bytes).sum::<usize>()
                );
            }
            let stats = designer.stats();
            assert!(stats.built > distinct, "{limit}: {stats:?} rebuilt nothing");
            assert_eq!(stats.reused == 0, limit == 0, "{limit}: {stats:?}");
        }
    }

    #[test]
    fn a_conversion_above_the_bound_is_returned_but_not_kept() {
        let m = matrix();
        let designer = Designer::with_memo_limit(&m, m.format_bytes() / 2);
        for _ in 0..2 {
            assert!(designer.design(&presets::sell_like()) == design(&presets::sell_like(), &m));
        }
        assert_eq!(designer.stats().built, 2);
        assert!(designer.memo.lock().unwrap().entries.is_empty());
    }

    #[test]
    fn four_threads_share_one_designer() {
        let m = matrix();
        let graphs = presets::all_presets();
        let expected: Vec<_> = graphs.iter().map(|(_, g)| design(g, &m)).collect();
        let designer = Designer::new(&m);
        // All four start on the same graph at once (they miss the same key
        // together and may all build it), then walk the presets in
        // different orders.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for stride in [1, 3, 5, 7] {
                let (designer, graphs, expected, start) = (&designer, &graphs, &expected, &start);
                scope.spawn(move || {
                    start.wait();
                    for step in 0..2 * graphs.len() {
                        let i = step * stride % graphs.len();
                        assert!(
                            designer.design(&graphs[i].1) == expected[i],
                            "{}",
                            graphs[i].0
                        );
                    }
                });
            }
        });
        let stats = designer.stats();
        assert_eq!(stats.designs, 8 * graphs.len() as u64);
        assert!(stats.reused > stats.built, "{stats:?}");
    }

    #[test]
    fn an_error_repeats_through_one_designer() {
        let tiny = gen::uniform_random(3, 3, 1, 1);
        let designer = Designer::new(&tiny);
        let graph = presets::row_split_hybrid(8);
        let first = designer.design(&graph);
        assert!(matches!(first, Err(DesignError::Unsupported(_))));
        assert!(designer.design(&graph) == first);
        assert!(first == design(&graph, &tiny));
        // A failed conversion leaves nothing behind.
        assert_eq!(designer.stats().built, 0);
        assert!(designer.design(&presets::csr_scalar()).is_ok());
    }

    #[test]
    fn provenance_lists_shared_and_branch_operators() {
        let meta = design(&presets::sell_like(), &matrix()).unwrap();
        let desc = meta.partitions[0].describe();
        assert!(desc.contains("COMPRESS"));
        assert!(desc.contains("SORT"));
        assert!(desc.contains("INTERLEAVED_STORAGE"));
    }
}
