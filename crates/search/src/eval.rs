//! The Evaluator subsystem: turning `(OperatorGraph, CsrMatrix)` candidates
//! into [`PerfReport`]s, one at a time, and without ever evaluating the same
//! design twice.
//!
//! Candidate evaluation dominates the search budget (the paper's real system
//! spends minutes of `nvcc` + kernel timing per candidate; the host timings
//! and the simulator spend milliseconds, but the search still runs thousands
//! of candidates).  The contract every backend implements ([`Evaluator`],
//! [`EvalContext`], [`Evaluation`], [`EvaluatorId`]) lives in
//! `alpha-codegen`; this module selects a backend and composes it:
//!
//! * the ground truth, one of two backends ([`EvaluatorChoice`]): by default
//!   `alpha-cpu`'s [`NativeEvaluator`], which lowers the candidate's
//!   generated kernel and times it on the host, or [`SimEvaluator`], which
//!   executes it on the [`GpuSim`] cost model.  Both check the result
//!   against the reference SpMV, and both design through the search's own
//!   Designer ([`EvalContext::designer`]): candidates on one converting
//!   chain share one converted matrix.
//! * [`CachingEvaluator`] — memoises outcomes in a shared [`DesignCache`]
//!   keyed by (matrix fingerprint + device + generator options, canonical
//!   graph signature), so repeated structures across mutation rounds — or
//!   across whole searches on the same matrix — are never re-simulated.
//!   Infeasible candidates are cached too (a graph that cannot be applied to
//!   a matrix will never become applicable).
//!
//! The search evaluates its candidates one at a time, in schedule order: the
//! paper times every candidate on the target, and two timings cannot share
//! one machine.  All evaluators are still `Send + Sync`, because concurrent
//! searches (the paper figures' per-matrix fan-out, two serving workers)
//! share one [`DesignCache`]; its state is locked, and per-candidate
//! simulator state lives on the evaluating thread's stack.

use crate::persist::StoredDesign;
pub use alpha_codegen::eval::{
    context_key, context_key_for, EvalContext, Evaluation, Evaluator, EvaluatorId,
};
use alpha_codegen::generate_with;
use alpha_cpu::{NativeEvaluator, TimingHarness};
use alpha_gpu::{DeviceProfile, GpuSim, PerfReport};
use alpha_graph::OperatorGraph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which ground-truth evaluator a search builds under its caching layer.
#[derive(Clone)]
pub enum EvaluatorChoice {
    /// Wall-clock time of the native CPU kernel (`alpha-cpu`'s
    /// [`NativeEvaluator`]) on the host the search runs on — the default,
    /// with [`TimingHarness::default`] and the kernel on every core.
    Native {
        /// Warmup and timed runs per measurement; part of the identity.
        harness: TimingHarness,
        /// Worker threads each measured kernel runs on (0 = one per core).
        kernel_threads: usize,
    },
    /// The [`SimEvaluator`] cost model on the configured device — the
    /// explicit opt-in of the paper's figures and of every result that must
    /// be the same on any machine.
    Simulated,
    /// An externally provided evaluator (a test double, another backend).
    /// The factory is invoked once per search; `id` is the durable identity
    /// salted into cache keys and recorded in winners, and a serving layer
    /// never runs two searches under a native `id` at once.
    Custom {
        /// Durable identity of the backend.
        id: EvaluatorId,
        /// Builds a fresh ground-truth evaluator for one search.
        factory: Arc<dyn Fn() -> Box<dyn Evaluator> + Send + Sync>,
    },
}

impl Default for EvaluatorChoice {
    fn default() -> Self {
        EvaluatorChoice::Native {
            harness: TimingHarness::default(),
            kernel_threads: 0,
        }
    }
}

impl EvaluatorChoice {
    /// Wraps a backend factory with its durable identity.
    pub fn custom<F>(id: EvaluatorId, factory: F) -> Self
    where
        F: Fn() -> Box<dyn Evaluator> + Send + Sync + 'static,
    {
        EvaluatorChoice::Custom {
            id,
            factory: Arc::new(factory),
        }
    }

    /// The durable identity of this choice.
    pub fn id(&self) -> EvaluatorId {
        match self {
            EvaluatorChoice::Native { harness, .. } => harness.evaluator_id(),
            EvaluatorChoice::Simulated => EvaluatorId::Simulated,
            EvaluatorChoice::Custom { id, .. } => *id,
        }
    }

    /// Builds the ground-truth evaluator for one search on `device`.
    pub fn build(&self, device: &DeviceProfile) -> Box<dyn Evaluator> {
        match self {
            EvaluatorChoice::Native {
                harness,
                kernel_threads,
            } => Box::new(NativeEvaluator::new(*harness, *kernel_threads)),
            EvaluatorChoice::Simulated => Box::new(SimEvaluator::new(device.clone())),
            EvaluatorChoice::Custom { factory, .. } => factory(),
        }
    }
}

impl std::fmt::Debug for EvaluatorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvaluatorChoice::Native {
                harness,
                kernel_threads,
            } => write!(
                f,
                "EvaluatorChoice::Native({harness:?}, kernel_threads: {kernel_threads})"
            ),
            EvaluatorChoice::Simulated => write!(f, "EvaluatorChoice::Simulated"),
            EvaluatorChoice::Custom { id, .. } => {
                write!(f, "EvaluatorChoice::Custom({id:?})")
            }
        }
    }
}

/// The cost-model ground truth: generate the format + kernel, run it on the
/// simulator, verify against the reference.
pub struct SimEvaluator {
    sim: GpuSim,
    simulations: AtomicUsize,
}

impl SimEvaluator {
    /// An evaluator that simulates on the given device.
    ///
    /// Each simulation runs on exactly ONE worker.  This is a determinism
    /// requirement, not a scheduling choice: the simulator merges per-worker
    /// partial `y` vectors and f64 cost counters, and floating-point addition
    /// is not associative, so reports could differ in ULPs across worker
    /// counts — enough to flip a near-tie winner or a tolerance-boundary
    /// feasibility check.  One worker makes every report bit-identical on
    /// every machine, which also keeps shared cache entries reproducible.
    pub fn new(device: DeviceProfile) -> Self {
        SimEvaluator {
            sim: GpuSim::with_workers(device, 1),
            simulations: AtomicUsize::new(0),
        }
    }

    /// Number of kernel simulations performed so far — the probe the cache
    /// tests use to assert that hits skip simulation.
    pub fn simulations(&self) -> usize {
        self.simulations.load(Ordering::Relaxed)
    }
}

impl Evaluator for SimEvaluator {
    fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        self.simulations.fetch_add(1, Ordering::Relaxed);
        let generated = generate_with(ctx.designer(), graph, ctx.options).ok()?;
        let result = self
            .sim
            .run_checked(
                &generated.kernel,
                ctx.x.as_slice(),
                &ctx.reference,
                ctx.tolerance,
            )
            .ok()?;
        Some(Evaluation {
            report: result.report,
            cached: false,
            kernel_shape: None,
        })
    }
}

/// Aggregate hit/miss counters of a [`DesignCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to the inner evaluator.
    pub misses: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache was never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoised evaluation results, keyed by (context key, canonical graph
/// signature).  Shareable across searches — and across threads — via `Arc`.
///
/// The canonical signature (not the raw one) is the key on purpose: two
/// graphs that differ only in the order of their implementing-stage
/// operators design the same kernel, so they share one entry.  Infeasible
/// candidates are stored as `None` so repeat offenders are rejected without
/// re-running the designer.
///
/// Besides the evaluation entries the cache carries two durable side tables,
/// both keyed by context key: the **winner** of each completed search (used
/// by serving layers to warm-start structurally similar matrices) and the
/// **seed pins** a serving layer injected into a context's first search
/// (replayed verbatim so repeat searches stay byte-for-byte identical and
/// fully cache-served).  All three sections survive process restarts through
/// [`DesignCache::save_to_file`] / [`DesignCache::load_from_file`] in
/// [`crate::persist`].
pub struct DesignCache {
    entries: Mutex<HashMap<CacheKey, CacheEntry>>,
    winners: Mutex<HashMap<u64, StoredDesign>>,
    seed_pins: Mutex<HashMap<u64, Vec<OperatorGraph>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// True when the cache holds state its durable copy (if any) does not —
    /// set by every mutating insert, cleared by [`DesignCache::mark_clean`]
    /// after a successful save, so persistence layers can skip rewriting
    /// unchanged caches (a fully cache-served replay stays write-free).
    dirty: std::sync::atomic::AtomicBool,
}

/// (context key, canonical graph signature).
type CacheKey = (u64, String);

/// `None` = known-infeasible design; `Some` = (report, native kernel-shape
/// label).  The shape rides along so a fully cache-served replay still
/// reports the same shape the original evaluation resolved.  No source text:
/// a design's code is emitted from its graph when a caller asks for it.
pub type CacheEntry = Option<(PerfReport, Option<String>)>;

impl DesignCache {
    /// An empty cache.
    pub fn new() -> Self {
        DesignCache {
            entries: Mutex::new(HashMap::new()),
            winners: Mutex::new(HashMap::new()),
            seed_pins: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            dirty: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// True when the cache has changed since it was created, loaded or last
    /// [`mark_clean`](Self::mark_clean)ed — i.e. a save would write something
    /// its durable copy does not already have.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Declares the current state persisted.  Call after a successful save;
    /// see [`DesignCache::is_dirty`].
    pub fn mark_clean(&self) {
        self.dirty.store(false, Ordering::Relaxed);
    }

    pub(crate) fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Looks a candidate up.  `Some(None)` means "known infeasible".
    pub fn lookup(
        &self,
        ctx: &EvalContext<'_>,
        graph: &OperatorGraph,
    ) -> Option<Option<Evaluation>> {
        let found = self.entry(ctx.context_key(), graph);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The memoised outcome of `graph` under `context_key`, read by key
    /// alone: no [`EvalContext`] (whose construction hashes the matrix and
    /// runs a reference SpMV) and no effect on the hit/miss counters.
    /// Serving layers pair it with [`DesignCache::winner`] to rebuild a
    /// finished search's outcome without searching.
    pub fn entry(&self, context_key: u64, graph: &OperatorGraph) -> Option<Option<Evaluation>> {
        let key = (context_key, graph.canonical_signature());
        let entries = self.entries.lock().expect("design cache poisoned");
        entries.get(&key).map(|entry| {
            entry.as_ref().map(|(report, shape)| Evaluation {
                report: report.clone(),
                cached: true,
                kernel_shape: shape.clone(),
            })
        })
    }

    /// Records an evaluation outcome (feasible or not).
    pub fn insert(
        &self,
        ctx: &EvalContext<'_>,
        graph: &OperatorGraph,
        outcome: &Option<Evaluation>,
    ) {
        let key = (ctx.context_key(), graph.canonical_signature());
        let value = outcome
            .as_ref()
            .map(|e| (e.report.clone(), e.kernel_shape.clone()));
        self.entries
            .lock()
            .expect("design cache poisoned")
            .insert(key, value);
        self.mark_dirty();
    }

    /// Number of memoised designs (feasible and infeasible).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("design cache poisoned").len()
    }

    /// True when nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Records the winning design of a completed search for `context_key`.
    ///
    /// Keeps the best: an existing winner is only replaced when the new
    /// design's modelled GFLOPS are at least as high, so re-searching a
    /// context with a smaller budget can never degrade the stored design
    /// other searches warm-start from.
    pub fn record_winner(&self, context_key: u64, design: StoredDesign) {
        let mut winners = self.winners.lock().expect("design cache poisoned");
        match winners.get(&context_key) {
            Some(existing) if existing.gflops > design.gflops => {}
            Some(existing) if *existing == design => {}
            _ => {
                winners.insert(context_key, design);
                drop(winners);
                self.mark_dirty();
            }
        }
    }

    /// Records `shape` as the native kernel shape of `graph` under
    /// `context_key`, on the design's evaluation entry and — when `graph` is
    /// the context's stored winner — on the winner record, so a lookup, a
    /// replayed search and a reopened store all report it.  This is how a
    /// loop chosen on the host *after* a cost-model search (whose
    /// evaluations carry no shape) travels with the winner; an entry that
    /// already says `shape` is left alone and the cache stays clean.
    pub fn set_winner_kernel_shape(&self, context_key: u64, graph: &OperatorGraph, shape: &str) {
        let mut changed = false;
        let key = (context_key, graph.canonical_signature());
        if let Some(Some((_, recorded))) = self
            .entries
            .lock()
            .expect("design cache poisoned")
            .get_mut(&key)
        {
            if recorded.as_deref() != Some(shape) {
                *recorded = Some(shape.to_string());
                changed = true;
            }
        }
        if let Some(winner) = self
            .winners
            .lock()
            .expect("design cache poisoned")
            .get_mut(&context_key)
        {
            if winner.graph == *graph && winner.kernel_shape.as_deref() != Some(shape) {
                winner.kernel_shape = Some(shape.to_string());
                changed = true;
            }
        }
        if changed {
            self.mark_dirty();
        }
    }

    /// The stored winning design for `context_key`, if any search for that
    /// context has completed.
    pub fn winner(&self, context_key: u64) -> Option<StoredDesign> {
        self.winners
            .lock()
            .expect("design cache poisoned")
            .get(&context_key)
            .cloned()
    }

    /// All stored winners, as (context key, design) pairs.
    pub fn winners(&self) -> Vec<(u64, StoredDesign)> {
        self.winners
            .lock()
            .expect("design cache poisoned")
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Pins the warm-start designs injected into `context_key`'s first
    /// search.  Serving layers replay the pinned set on every later search of
    /// the same context, which keeps the candidate schedule identical and
    /// therefore fully answerable from the cached evaluations.
    pub fn pin_seed_designs(&self, context_key: u64, designs: Vec<OperatorGraph>) {
        let mut pins = self.seed_pins.lock().expect("design cache poisoned");
        if pins.get(&context_key) != Some(&designs) {
            pins.insert(context_key, designs);
            drop(pins);
            self.mark_dirty();
        }
    }

    /// The pinned warm-start designs for `context_key`.  `None` means no
    /// search of this context has been pinned yet; `Some(vec![])` means the
    /// first search explicitly ran without warm-start seeds.
    pub fn pinned_seed_designs(&self, context_key: u64) -> Option<Vec<OperatorGraph>> {
        self.seed_pins
            .lock()
            .expect("design cache poisoned")
            .get(&context_key)
            .cloned()
    }

    /// Copies every evaluation, winner and seed pin of `other` that this
    /// cache does not already have.  Existing evaluations and pins win (the
    /// evaluations are equivalent by construction — both sides computed them
    /// from the same deterministic simulation; the pins must stay whatever
    /// this cache's first search used); winners keep the better design per
    /// context.  Returns the number of *evaluation* entries added.
    pub fn merge_from(&self, other: &DesignCache) -> usize {
        let mut changed = false;
        let mut added = 0;
        {
            let theirs = other.entries.lock().expect("design cache poisoned");
            let mut ours = self.entries.lock().expect("design cache poisoned");
            for (key, entry) in theirs.iter() {
                if !ours.contains_key(key) {
                    ours.insert(key.clone(), entry.clone());
                    added += 1;
                }
            }
            changed |= added > 0;
        }
        {
            let theirs = other.winners.lock().expect("design cache poisoned");
            let mut ours = self.winners.lock().expect("design cache poisoned");
            for (key, design) in theirs.iter() {
                match ours.get(key) {
                    Some(existing) if existing.gflops >= design.gflops => {}
                    _ => {
                        ours.insert(*key, design.clone());
                        changed = true;
                    }
                }
            }
        }
        {
            let theirs = other.seed_pins.lock().expect("design cache poisoned");
            let mut ours = self.seed_pins.lock().expect("design cache poisoned");
            for (key, pins) in theirs.iter() {
                if !ours.contains_key(key) {
                    ours.insert(*key, pins.clone());
                    changed = true;
                }
            }
        }
        if changed {
            self.mark_dirty();
        }
        added
    }

    /// A deep copy of the evaluation entries (used by the persistence codec
    /// and its round-trip tests).
    pub fn entries_snapshot(&self) -> HashMap<(u64, String), CacheEntry> {
        self.entries.lock().expect("design cache poisoned").clone()
    }

    /// A deep copy of the seed-pin table.
    pub fn seed_pins_snapshot(&self) -> HashMap<u64, Vec<OperatorGraph>> {
        self.seed_pins
            .lock()
            .expect("design cache poisoned")
            .clone()
    }

    pub(crate) fn replace_entries(&self, entries: HashMap<(u64, String), CacheEntry>) {
        *self.entries.lock().expect("design cache poisoned") = entries;
    }
}

impl Default for DesignCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DesignCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DesignCache")
            .field("entries", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// Wraps an evaluator with a shared [`DesignCache`].
///
/// Besides the cache's global counters, the wrapper keeps its own hit/miss
/// counters: several searches may share one `DesignCache` concurrently, and
/// each search owns its `CachingEvaluator`, so [`CachingEvaluator::stats`]
/// attributes lookups to the right search.
pub struct CachingEvaluator<E> {
    inner: E,
    cache: Arc<DesignCache>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<E: Evaluator> CachingEvaluator<E> {
    /// Memoises `inner` through `cache`.
    pub fn new(inner: E, cache: Arc<DesignCache>) -> Self {
        CachingEvaluator {
            inner,
            cache,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Hit/miss counters of *this wrapper* (not the shared cache's global
    /// totals).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<E: Evaluator> Evaluator for CachingEvaluator<E> {
    fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        // Invalid graphs bypass the cache entirely: canonicalisation only
        // guarantees that *valid* graphs with equal canonical signatures
        // design identical kernels (an invalid duplicate-SET_RESOURCES
        // branch, say, canonicalises like its valid twin).  Validation is
        // cheap and the inner evaluator rejects such graphs anyway.
        if graph.validate().is_err() {
            return self.inner.evaluate(ctx, graph);
        }
        if let Some(cached) = self.cache.lookup(ctx, graph) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = self.inner.evaluate(ctx, graph);
        self.cache.insert(ctx, graph, &outcome);
        outcome
    }
}

// Concurrent searches share evaluators' state (the cache above all) across
// threads.  Pin that as a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GpuSim>();
    assert_send_sync::<DeviceProfile>();
    assert_send_sync::<SimEvaluator>();
    assert_send_sync::<DesignCache>();
    assert_send_sync::<CachingEvaluator<SimEvaluator>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::GeneratorOptions;
    use alpha_graph::presets;
    use alpha_matrix::{gen, CsrMatrix};

    fn context_fixture(matrix: &CsrMatrix) -> EvalContext<'_> {
        EvalContext::new(
            matrix,
            &DeviceProfile::a100(),
            GeneratorOptions::default(),
            7,
        )
        .unwrap()
    }

    #[test]
    fn sim_evaluator_produces_reports_for_feasible_designs() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let evaluator = SimEvaluator::new(DeviceProfile::a100());
        let eval = evaluator
            .evaluate(&ctx, &presets::csr_scalar())
            .expect("feasible");
        assert!(eval.report.gflops > 0.0);
        assert!(!eval.cached);
        assert_eq!(evaluator.simulations(), 1);
    }

    #[test]
    fn cache_hits_skip_simulation() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let cache = Arc::new(DesignCache::new());
        let evaluator =
            CachingEvaluator::new(SimEvaluator::new(DeviceProfile::a100()), cache.clone());
        let graph = presets::sell_like();
        let first = evaluator.evaluate(&ctx, &graph).expect("feasible");
        let second = evaluator.evaluate(&ctx, &graph).expect("feasible");
        assert_eq!(
            evaluator.inner().simulations(),
            1,
            "second lookup must not simulate"
        );
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.report.gflops, second.report.gflops);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn entry_reads_by_key_without_a_context_or_counter_effects() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let ctx = context_fixture(&matrix);
        let cache = Arc::new(DesignCache::new());
        let evaluator =
            CachingEvaluator::new(SimEvaluator::new(DeviceProfile::a100()), cache.clone());
        let graph = presets::sell_like();
        assert!(cache.entry(ctx.context_key(), &graph).is_none());
        let fresh = evaluator.evaluate(&ctx, &graph).expect("feasible");
        let counters = cache.stats();

        let stored = cache
            .entry(ctx.context_key(), &graph)
            .expect("memoised")
            .expect("feasible");
        assert!(stored.cached);
        assert_eq!(stored.report, fresh.report);
        assert_eq!(stored.kernel_shape, fresh.kernel_shape);
        // Another context key, or another design, is simply absent.
        assert!(cache.entry(ctx.context_key() ^ 1, &graph).is_none());
        assert!(cache
            .entry(ctx.context_key(), &presets::csr_scalar())
            .is_none());
        assert_eq!(cache.stats(), counters, "entry() is not a lookup");
    }

    #[test]
    fn infeasible_designs_are_cached_too() {
        // A 2-way ROW_DIV cannot be applied to a 1-row matrix.
        let mut coo = alpha_matrix::CooMatrix::new(1, 8);
        for c in 0..8 {
            coo.push(0, c, 1.0);
        }
        let matrix = CsrMatrix::from_coo(&coo);
        let ctx = context_fixture(&matrix);
        let evaluator = CachingEvaluator::new(
            SimEvaluator::new(DeviceProfile::a100()),
            Arc::new(DesignCache::new()),
        );
        let graph = presets::row_split_hybrid(2);
        if evaluator.evaluate(&ctx, &graph).is_none() {
            let before = evaluator.inner().simulations();
            assert!(evaluator.evaluate(&ctx, &graph).is_none());
            assert_eq!(evaluator.inner().simulations(), before);
        }
    }

    #[test]
    fn canonical_signature_shares_cache_entries_across_reduction_order() {
        use alpha_graph::Operator;
        let matrix = gen::uniform_random(128, 128, 4, 9);
        let ctx = context_fixture(&matrix);
        let a = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::BmtColBlock { threads_per_row: 4 },
            Operator::ThreadTotalRed,
            Operator::WarpSegRed,
        ]);
        let b = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::BmtColBlock { threads_per_row: 4 },
            Operator::WarpSegRed,
            Operator::ThreadTotalRed,
        ]);
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.canonical_signature(), b.canonical_signature());
        assert_eq!(a.canonical_hash(), b.canonical_hash());

        let evaluator = CachingEvaluator::new(
            SimEvaluator::new(DeviceProfile::a100()),
            Arc::new(DesignCache::new()),
        );
        let first = evaluator.evaluate(&ctx, &a).expect("feasible");
        let second = evaluator.evaluate(&ctx, &b).expect("feasible");
        assert_eq!(evaluator.inner().simulations(), 1);
        assert!(second.cached);
        assert_eq!(first.report.gflops, second.report.gflops);
    }

    #[test]
    fn different_matrices_do_not_share_entries() {
        let m1 = gen::uniform_random(128, 128, 4, 1);
        let m2 = gen::uniform_random(128, 128, 4, 2);
        assert_ne!(m1.fingerprint(), m2.fingerprint());
        let cache = Arc::new(DesignCache::new());
        let evaluator =
            CachingEvaluator::new(SimEvaluator::new(DeviceProfile::a100()), cache.clone());
        let graph = presets::csr_scalar();
        let c1 =
            EvalContext::new(&m1, &DeviceProfile::a100(), GeneratorOptions::default(), 7).unwrap();
        let c2 =
            EvalContext::new(&m2, &DeviceProfile::a100(), GeneratorOptions::default(), 7).unwrap();
        evaluator.evaluate(&c1, &graph).expect("feasible");
        evaluator.evaluate(&c2, &graph).expect("feasible");
        assert_eq!(evaluator.inner().simulations(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn device_and_options_are_part_of_the_cache_key() {
        let matrix = gen::uniform_random(128, 128, 4, 5);
        let a100 = EvalContext::new(
            &matrix,
            &DeviceProfile::a100(),
            GeneratorOptions::default(),
            7,
        )
        .unwrap();
        let rtx = EvalContext::new(
            &matrix,
            &DeviceProfile::rtx2080(),
            GeneratorOptions::default(),
            7,
        )
        .unwrap();
        let no_compress = EvalContext::new(
            &matrix,
            &DeviceProfile::a100(),
            GeneratorOptions {
                model_compression: false,
            },
            7,
        )
        .unwrap();
        assert_ne!(a100.context_key(), rtx.context_key());
        assert_ne!(a100.context_key(), no_compress.context_key());
    }

    #[test]
    fn caching_layer_composes_and_skips_re_measurement() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let ctx = context_fixture(&matrix).with_evaluator(TimingHarness::quick().evaluator_id());
        let cache = Arc::new(DesignCache::new());
        let evaluator = CachingEvaluator::new(
            NativeEvaluator::new(TimingHarness::quick(), 1),
            cache.clone(),
        );
        let graph = presets::sell_like();
        let first = evaluator.evaluate(&ctx, &graph).expect("feasible");
        let second = evaluator.evaluate(&ctx, &graph).expect("feasible");
        assert_eq!(
            evaluator.inner().executions(),
            1,
            "second lookup must not re-measure"
        );
        assert!(!first.cached);
        assert!(second.cached);
        assert_eq!(first.report.time_us, second.report.time_us);
    }
}
