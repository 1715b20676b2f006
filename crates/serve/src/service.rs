//! The [`TuningService`]: a batch tuning front end over a [`DesignStore`].

use crate::store::DesignStore;
use alpha_codegen::GeneratorOptions;
use alpha_gpu::DeviceProfile;
use alpha_graph::OperatorGraph;
use alpha_matrix::{CsrMatrix, MatrixStats};
use alpha_search::features::{matrix_distance, matrix_feature_vector};
use alpha_search::{
    context_key_for, DesignCache, SearchConfig, SearchOutcome, SearchStats, StoredDesign,
};
use alphasparse::{AlphaSparse, TunedSpmv};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// One tuning request: a matrix and the device it should be designed for.
#[derive(Debug, Clone)]
pub struct TuneRequest {
    /// The matrix to tune.
    pub matrix: CsrMatrix,
    /// Target device profile.
    pub device: DeviceProfile,
}

impl TuneRequest {
    /// A request to tune `matrix` for `device`.
    pub fn new(matrix: CsrMatrix, device: DeviceProfile) -> Self {
        TuneRequest { matrix, device }
    }
}

/// The result of serving one tuning request.
pub struct ServedTune {
    /// The ready-to-run machine-designed SpMV program — shared: while any
    /// holder keeps it alive, repeat requests of its matrix and device are
    /// answered with this very `Arc`.  Its `search_stats()` are those of the
    /// request that built it (all zero when that one was answered from the
    /// context's stored winner, where no search ran); what *this* request
    /// cost is [`ServedTune::fresh_evaluations`].
    pub tuned: Arc<TunedSpmv>,
    /// Fingerprint of the request's matrix (the deduplication identity,
    /// together with the device).
    pub fingerprint: u64,
    /// The store-level key the design is filed under: the evaluation context
    /// key extended with the service's schedule parameters (see
    /// [`TuningService::store_key`]).
    pub context_key: u64,
    /// True when the search was seeded with stored winners of structurally
    /// similar matrices (always true on replays of a warm-started context —
    /// the pinned seeds are reused).
    pub warm_started: bool,
    /// Fresh evaluations this request cost.  `0` means no candidate was
    /// evaluated for it: a holder's live program was handed back, or the
    /// store answered — from the context's stored winner, or (the fallback)
    /// by replaying the search over cached evaluations.
    pub fresh_evaluations: usize,
    /// Host wall-clock seconds spent serving the request, from hashing its
    /// matrix to the finished answer.
    pub wall_secs: f64,
}

/// A batch auto-tuning service backed by a persistent [`DesignStore`].
///
/// `tune_batch` is the one entry point: it deduplicates requests by cache
/// identity, warm-starts never-seen matrices from the stored winners of
/// structurally similar ones, serves the distinct requests one at a time in
/// input order, persists every result, and returns a ready-to-run
/// [`TunedSpmv`] per request.  Re-tuning a fleet the store has already seen
/// costs zero fresh evaluations (see
/// [`ServedTune::fresh_evaluations`]).
pub struct TuningService {
    store: DesignStore,
    config: SearchConfig,
    /// `serve_tune_latency_us` on the store's registry — wall-clock of each
    /// served request (lookups and searches alike), resolved once here so
    /// `tune_one` only touches atomics.
    tune_latency: alpha_telemetry::Histogram,
    /// `serve_tune_total{path=…}` on the store's registry: which path
    /// answered each request (see [`TunePath`]).
    tune_paths: [alpha_telemetry::Counter; 4],
    /// The programs handed out and still held by someone — the one record
    /// of live programs by content ([`TuningService::resident`]).  No
    /// capacity and no eviction: an entry is useful exactly as long as its
    /// program is alive, and dead ones are swept whenever one is added.
    resident: Mutex<HashMap<ResidentKey, ResidentProgram>>,
    /// `serve_loop_select_total` on the store's registry: requests whose
    /// answer had its inner loops measured on this host
    /// ([`TunedSpmv::loop_selection`]) rather than lowered from
    /// the recorded label — once per context in steady state.
    loop_selections: alpha_telemetry::Counter,
    /// Held by a search under a measured evaluator, so two requests served
    /// at once — two daemon tune workers — never time their candidates
    /// against each other.  Resident and stored answers do not take it.
    measuring: Mutex<()>,
}

/// How many similar-matrix winners seed a cold search.
const WARM_START_SEEDS: usize = 3;

/// What a live program is filed under: the BLAKE2b-256
/// [`CsrMatrix::digest`] of the matrix it computes `A·x` for, and the
/// device fields [`context_key_for`] hashes.  The rest of the store key is
/// the service's own configuration.  Two matrices that collide on the 64-bit
/// store key have two digests, so they cost each other a rebuild, never a
/// wrong `y`.
#[derive(PartialEq, Eq, Hash)]
struct ResidentKey {
    digest: [u8; 32],
    device: (&'static str, usize, [u64; 4]),
}

impl ResidentKey {
    fn new(digest: [u8; 32], device: &DeviceProfile) -> Self {
        let bits = [
            device.dram_bandwidth_gbps,
            device.l2_bandwidth_gbps,
            device.peak_sp_gflops,
            device.clock_ghz,
        ]
        .map(f64::to_bits);
        ResidentKey {
            digest,
            device: (device.name, device.sm_count, bits),
        }
    }
}

/// A program some holder may still have.
struct ResidentProgram {
    program: Weak<TunedSpmv>,
    /// [`ServedTune::warm_started`] of the request that built the program.
    warm_started: bool,
}

/// How one request was answered — the `path` label of `serve_tune_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TunePath {
    /// With the program an earlier request of the same matrix and device
    /// built and some holder still has; nothing is designed, generated or
    /// lowered.
    Resident,
    /// From the context's stored winner and its evaluation entry; no search.
    Stored,
    /// By a search that every evaluation of was already cached for (the
    /// fallback when a resident context has no complete stored answer).  A
    /// steady-state daemon reads 0 here.
    Replayed,
    /// By a search that cost fresh evaluations.
    Searched,
}

impl TunePath {
    const ALL: [TunePath; 4] = [
        TunePath::Resident,
        TunePath::Stored,
        TunePath::Replayed,
        TunePath::Searched,
    ];

    fn label(self) -> &'static str {
        match self {
            TunePath::Resident => "resident",
            TunePath::Stored => "stored",
            TunePath::Replayed => "replayed",
            TunePath::Searched => "searched",
        }
    }
}

/// The outcome a finished search of `eval_key` recorded in `cache`: its
/// stored winner joined with that winner's evaluation entry.  `None` when
/// either half is missing (never searched, an interrupted first search, a
/// foreign cache file) — the caller searches instead.
fn stored_outcome(cache: &DesignCache, eval_key: u64) -> Option<SearchOutcome> {
    let winner = cache.winner(eval_key)?;
    let evaluation = cache.entry(eval_key, &winner.graph)??;
    Some(SearchOutcome {
        best_graph: winner.graph,
        best_report: evaluation.report,
        best_kernel_shape: evaluation.kernel_shape,
        stats: SearchStats::default(),
    })
}

impl TuningService {
    /// Creates a service over `store`.  `config.device` is the default the
    /// per-request [`TuneRequest::device`] overrides; all other fields
    /// (budget, seed, pruning, …) apply to every request.
    ///
    /// Every field that shapes the candidate schedule — budget, hour cap,
    /// pruning/ML toggles, mutations per seed, plus everything in the
    /// evaluation context key — is folded into the store identity (see
    /// [`TuningService::store_key`]), so services configured differently
    /// never reuse each other's pinned seeds or overwrite each other's
    /// stored winners with differently-budgeted results.
    pub fn new(store: DesignStore, config: SearchConfig) -> Self {
        let tune_latency = store.registry().histogram("serve_tune_latency_us", &[]);
        let tune_paths = TunePath::ALL.map(|path| {
            store
                .registry()
                .counter("serve_tune_total", &[("path", path.label())])
        });
        let loop_selections = store.registry().counter("serve_loop_select_total", &[]);
        TuningService {
            store,
            config,
            tune_latency,
            tune_paths,
            resident: Mutex::new(HashMap::new()),
            loop_selections,
            measuring: Mutex::new(()),
        }
    }

    /// The metrics registry this service (via its store) publishes on.
    pub fn registry(&self) -> &std::sync::Arc<alpha_telemetry::Registry> {
        self.store.registry()
    }

    /// The store-level identity of one request: the evaluation context key
    /// (matrix content x device x generator options x probe seed) extended
    /// with this service's schedule-shaping search parameters.
    pub fn store_key(&self, eval_key: u64) -> u64 {
        let mut key = eval_key;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                key ^= b as u64;
                key = key.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(&(self.config.max_iterations as u64).to_le_bytes());
        fold(&self.config.max_hours.to_bits().to_le_bytes());
        fold(&[self.config.enable_pruning as u8]);
        fold(&[self.config.enable_ml_refinement as u8]);
        fold(&(self.config.mutations_per_seed as u64).to_le_bytes());
        key
    }

    /// The store backing this service.
    pub fn store(&self) -> &DesignStore {
        &self.store
    }

    /// Snapshot of the backing store's memory-tier counters — the one-call
    /// form a daemon's stats endpoint wants.
    pub fn store_stats(&self) -> crate::StoreStats {
        self.store.stats()
    }

    /// The search configuration every request of this service is tuned with
    /// (the per-request device overrides [`SearchConfig::device`]).
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Tunes a whole batch of requests, returning one result per request in
    /// input order.
    ///
    /// Distinct requests are served one at a time, in input order: a search
    /// times its candidates, and two timings cannot share one machine.
    /// Requests that share a store identity (same matrix content, device,
    /// options, seed and search schedule) are tuned once; the duplicates are
    /// then answered with the program the first one built.
    ///
    /// ```
    /// use alpha_serve::{DesignStore, TuneRequest, TuningService};
    /// use alphasparse::{DeviceProfile, SearchConfig};
    /// use alpha_matrix::gen;
    ///
    /// let dir = std::env::temp_dir().join(format!("alpha_serve_doc_{}", std::process::id()));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// let store = DesignStore::open(&dir).expect("store opens");
    /// let config = SearchConfig { max_iterations: 6, ..SearchConfig::default() };
    /// let service = TuningService::new(store, config);
    ///
    /// let requests = vec![
    ///     TuneRequest::new(gen::powerlaw(128, 128, 4, 2.0, 1), DeviceProfile::a100()),
    ///     TuneRequest::new(gen::uniform_random(128, 128, 4, 2), DeviceProfile::a100()),
    /// ];
    /// let served = service.tune_batch(&requests);
    /// for result in &served {
    ///     let tune = result.as_ref().expect("tuning succeeds");
    ///     assert!(tune.tuned.gflops() > 0.0);
    /// }
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn tune_batch(&self, requests: &[TuneRequest]) -> Vec<Result<ServedTune, String>> {
        // Deduplicate by store identity: the evaluation context key (matrix
        // fingerprint, device model, generator options, probe seed) extended
        // with the service's schedule parameters.
        let options = GeneratorOptions {
            model_compression: self.config.enable_model_compression,
        };
        // The evaluation identity includes the backend (simulated vs native
        // measured time plus harness parameters), so a store never serves a
        // cost-model winner as a measured one — or the other way round.
        // Hashing the matrix is where serving a request starts, and where
        // its clock does.
        let (eval_keys, mut spent): (Vec<u64>, Vec<Duration>) = requests
            .iter()
            .map(|r| {
                let start = Instant::now();
                let key = context_key_for(
                    &r.matrix,
                    &r.device,
                    options,
                    self.config.seed,
                    self.config.evaluator.id(),
                );
                (key, start.elapsed())
            })
            .unzip();
        let keys: Vec<u64> = eval_keys.iter().map(|&k| self.store_key(k)).collect();

        // One winners snapshot serves the whole batch: requests tuned in
        // this batch warm-start from the fleet as it stood when the batch
        // arrived, which keeps the outcome independent of request order.
        let snapshot = Instant::now();
        let winners = match self.store.winners() {
            Ok(winners) => winners,
            Err(e) => return requests.iter().map(|_| Err(e.to_string())).collect(),
        };
        // Every request of the batch waited for the snapshot.
        let snapshot = snapshot.elapsed();
        spent.iter_mut().for_each(|spent| *spent += snapshot);

        // The first request of each identity is tuned; a duplicate shares
        // its error, or is served again — with the same program, which the
        // first result holds alive.
        let mut first: HashMap<u64, Result<(), String>> = HashMap::new();
        (0..requests.len())
            .map(|i| {
                let tune =
                    |winners| self.tune_one(&requests[i], eval_keys[i], keys[i], winners, spent[i]);
                match first.get(&keys[i]) {
                    Some(Err(e)) => Err(e.clone()),
                    Some(Ok(())) => tune(&[]),
                    None => {
                        let result = tune(&winners);
                        first.insert(keys[i], result.as_ref().map(|_| ()).map_err(Clone::clone));
                        result
                    }
                }
            })
            .collect()
    }

    /// Serves one request.  A matrix whose program some holder still has is
    /// answered with that program; a context that has been searched before,
    /// from its stored winner (a lookup plus a format build); anything else —
    /// a new context, or one whose stored answer is incomplete — resolves its
    /// warm-start seeds, runs the search and persists the result.  `spent` is
    /// what the request had cost when it got here.
    fn tune_one(
        &self,
        request: &TuneRequest,
        eval_key: u64,
        store_key: u64,
        winners: &[(u64, StoredDesign)],
        spent: Duration,
    ) -> Result<ServedTune, String> {
        let start = Instant::now();
        // Traced requests see the serving layer as one span between the
        // daemon's queue-pop and reply spans; `serve.rebuild` or the search
        // engine's own `search.l*` spans nest under it.
        let _span = alpha_telemetry::span!("serve.tune", context = store_key);
        let served = |tuned, path: TunePath, warm_started, fresh_evaluations| {
            self.tune_paths[path as usize].inc();
            let wall = spent + start.elapsed();
            self.tune_latency.observe_duration(wall);
            ServedTune {
                tuned,
                fingerprint: request.matrix.fingerprint(),
                context_key: store_key,
                warm_started,
                fresh_evaluations,
                wall_secs: wall.as_secs_f64(),
            }
        };
        // The digest names the live program: one hash per matrix value (it is
        // memoised in the matrix, so a daemon files the upload under it free).
        let digest = request.matrix.digest();
        if let Some((tuned, warm_started)) = self.resident(digest, &request.device) {
            return Ok(served(tuned, TunePath::Resident, warm_started, 0));
        }
        let cache = self.store.cache_for(store_key).map_err(String::from)?;

        // Warm-start seeds: pinned on the context's first search, replayed
        // verbatim on every later one.  Replaying matters — the seeds change
        // which candidates the search enumerates, so only an identical seed
        // list keeps the repeat search answerable entirely from the cache.
        let pinned = cache.pinned_seed_designs(store_key);
        // The cache is this store context's alone, and the store key folds in
        // the whole search schedule, so a winner recorded here under pinned
        // seeds is exactly the design a replay of that search would select
        // (ARCHITECTURE.md, Determinism and Replayability): answer from it.
        let stored = pinned
            .as_ref()
            .and_then(|_| stored_outcome(&cache, eval_key));
        let seeds = pinned.unwrap_or_else(|| {
            let fresh = self.similar_winners(&request.matrix, eval_key, winners);
            cache.pin_seed_designs(store_key, fresh.clone());
            fresh
        });
        let warm_started = !seeds.is_empty();

        let mut config = self.config.clone();
        config.device = request.device.clone();
        config.seed_designs = seeds;
        let tuner = AlphaSparse::with_config(config).with_shared_cache(cache.clone());
        let (tuned, path) = match stored {
            Some(outcome) => {
                let _span = alpha_telemetry::span!("serve.rebuild", context = store_key);
                (tuner.rebuild(&request.matrix, outcome)?, TunePath::Stored)
            }
            None => {
                let _measuring = self.config.evaluator.id().is_native().then(|| {
                    // Guards no data: a search that panicked leaves nothing
                    // half-written behind it.
                    self.measuring
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                });
                let tuned = tuner.auto_tune(&request.matrix)?;
                let path = match tuned.search_stats().cache_misses {
                    0 => TunePath::Replayed,
                    _ => TunePath::Searched,
                };
                (tuned, path)
            }
        };
        // Persist the cache we actually hold: even if the LRU tier evicted
        // this context mid-search, the final state (not the eviction-time
        // snapshot) reaches disk.  A lookup whose winner names a loop this
        // host runs leaves the cache clean, which makes this a no-op; one
        // that had to select the loop (an entry written before loops were
        // recorded, or on another host) upgrades the entry here.
        self.store
            .persist_cache(store_key, &cache)
            .map_err(String::from)?;

        if !tuned.loop_selection().is_empty() {
            self.loop_selections.inc();
        }
        let fresh_evaluations = tuned.search_stats().cache_misses;
        let tuned = Arc::new(tuned);
        self.remember(digest, &request.device, &tuned, warm_started);
        Ok(served(tuned, path, warm_started, fresh_evaluations))
    }

    /// The live program built for the matrix with this
    /// [`CsrMatrix::digest`] on `device`, with the
    /// [`ServedTune::warm_started`] flag of the request that built it —
    /// `None` once no holder keeps it.  This is where a live program is found
    /// by content: repeat requests of this service, and a daemon answering a
    /// tune that names its matrix by digest.
    pub fn resident(
        &self,
        digest: [u8; 32],
        device: &DeviceProfile,
    ) -> Option<(Arc<TunedSpmv>, bool)> {
        let resident = self.resident.lock().expect("resident programs poisoned");
        let entry = resident.get(&ResidentKey::new(digest, device))?;
        Some((entry.program.upgrade()?, entry.warm_started))
    }

    /// Files `tuned`, just built for the matrix with `digest` on `device`,
    /// for as long as a holder keeps it alive, and sweeps the entries nobody
    /// holds any more.
    fn remember(
        &self,
        digest: [u8; 32],
        device: &DeviceProfile,
        tuned: &Arc<TunedSpmv>,
        warm_started: bool,
    ) {
        let entry = ResidentProgram {
            program: Arc::downgrade(tuned),
            warm_started,
        };
        let mut resident = self.resident.lock().expect("resident programs poisoned");
        resident.retain(|_, entry| entry.program.strong_count() > 0);
        resident.insert(ResidentKey::new(digest, device), entry);
    }

    /// The stored winners most structurally similar to `matrix`, closest
    /// first, excluding the matrix's own context and deduplicated by design.
    fn similar_winners(
        &self,
        matrix: &CsrMatrix,
        own_key: u64,
        winners: &[(u64, StoredDesign)],
    ) -> Vec<OperatorGraph> {
        let features = matrix_feature_vector(&MatrixStats::from_csr(matrix));
        let mut ranked: Vec<(f64, u64, &StoredDesign)> = winners
            .iter()
            .filter(|(key, _)| *key != own_key)
            .map(|(key, design)| {
                (
                    matrix_distance(&features, &design.matrix_features),
                    *key,
                    design,
                )
            })
            .filter(|(distance, _, _)| distance.is_finite())
            .collect();
        // Distance first; context key breaks exact ties deterministically.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut seeds: Vec<OperatorGraph> = Vec::new();
        for (_, _, design) in ranked {
            if seeds.len() == WARM_START_SEEDS {
                break;
            }
            if !seeds
                .iter()
                .any(|g| g.signature() == design.graph.signature())
            {
                seeds.push(design.graph.clone());
            }
        }
        seeds
    }
}

impl std::fmt::Debug for TuningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuningService")
            .field("store", &self.store)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::gen;
    use alpha_search::EvaluatorChoice;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alpha_serve_service_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_config(budget: usize) -> SearchConfig {
        SearchConfig {
            max_iterations: budget,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        }
    }

    fn quick_service(dir: &PathBuf, budget: usize) -> TuningService {
        TuningService::new(DesignStore::open(dir).unwrap(), quick_config(budget))
    }

    /// [`quick_service`] on the cost model: for the tests that compare two
    /// stores' winners, which only the simulator makes the same.
    fn simulated_service(dir: &PathBuf, budget: usize) -> TuningService {
        let config = SearchConfig {
            evaluator: EvaluatorChoice::Simulated,
            ..quick_config(budget)
        };
        TuningService::new(DesignStore::open(dir).unwrap(), config)
    }

    fn fleet(count: usize) -> Vec<TuneRequest> {
        (0..count)
            .map(|i| {
                TuneRequest::new(
                    gen::powerlaw(256, 256, 6, 2.0, 100 + i as u64),
                    DeviceProfile::a100(),
                )
            })
            .collect()
    }

    #[test]
    fn service_is_shareable_across_threads_behind_arc() {
        // The networked daemon hands one service to an accept loop plus a
        // worker pool; this pins the Send + Sync contract at compile time
        // and exercises concurrent single-request batches at run time.
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<TuningService>();

        let dir = temp_dir("arc_shared");
        let service = std::sync::Arc::new(quick_service(&dir, 8));
        let matrices = [
            gen::powerlaw(192, 192, 5, 2.0, 41),
            gen::uniform_random(160, 160, 4, 42),
        ];
        std::thread::scope(|scope| {
            for matrix in &matrices {
                let service = service.clone();
                scope.spawn(move || {
                    let served = service
                        .tune_batch(&[TuneRequest::new(matrix.clone(), DeviceProfile::a100())]);
                    assert!(served[0].is_ok());
                });
            }
        });
        assert!(service.store_stats().cold_starts >= 2);
        assert_eq!(service.config().max_iterations, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_results_are_in_request_order() {
        let dir = temp_dir("order");
        let service = quick_service(&dir, 10);
        let requests = fleet(3);
        let served = service.tune_batch(&requests);
        assert_eq!(served.len(), 3);
        for (request, result) in requests.iter().zip(&served) {
            let tune = result.as_ref().expect("tuning succeeds");
            assert_eq!(tune.fingerprint, request.matrix.fingerprint());
            assert!(tune.tuned.gflops() > 0.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_requests_are_deduplicated() {
        let dir = temp_dir("dedupe");
        let service = quick_service(&dir, 10);
        let matrix = gen::powerlaw(256, 256, 6, 2.0, 9);
        let requests = vec![
            TuneRequest::new(matrix.clone(), DeviceProfile::a100()),
            TuneRequest::new(matrix.clone(), DeviceProfile::a100()),
            TuneRequest::new(matrix, DeviceProfile::a100()),
        ];
        let served = service.tune_batch(&requests);
        let tunes: Vec<&ServedTune> = served.iter().map(|r| r.as_ref().unwrap()).collect();
        // Only the first instance pays fresh evaluations; the duplicates are
        // replays served from the cache the first one just filled.
        assert!(tunes[0].fresh_evaluations > 0);
        assert_eq!(tunes[1].fresh_evaluations, 0);
        assert_eq!(tunes[2].fresh_evaluations, 0);
        assert_eq!(
            tunes[0].tuned.operator_graph(),
            tunes[1].tuned.operator_graph()
        );
        assert_eq!(tunes[0].tuned.gflops(), tunes[2].tuned.gflops());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_pass_costs_zero_fresh_evaluations() {
        // The acceptance criterion of the serving layer: tuning the same
        // fleet twice through a DesignStore performs zero fresh simulator
        // evaluations on the second pass.
        let dir = temp_dir("replay");
        let service = quick_service(&dir, 12);
        let requests = fleet(4);

        let first = service.tune_batch(&requests);
        let first_fresh: usize = first
            .iter()
            .map(|r| r.as_ref().unwrap().fresh_evaluations)
            .sum();
        assert!(first_fresh > 0, "cold pass must actually search");

        let second = service.tune_batch(&requests);
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                b.fresh_evaluations, 0,
                "second pass of context {:#x} must be fully cached",
                b.context_key
            );
            assert_eq!(a.tuned.operator_graph(), b.tuned.operator_graph());
            assert_eq!(a.tuned.gflops(), b.tuned.gflops());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_pass_is_cached_even_across_store_reopen() {
        let dir = temp_dir("durable");
        let requests = fleet(3);
        let cold_fresh: usize = {
            let service = quick_service(&dir, 10);
            let served = service.tune_batch(&requests);
            service.store().flush().unwrap();
            served
                .iter()
                .map(|r| r.as_ref().unwrap().fresh_evaluations)
                .sum()
        };
        assert!(cold_fresh > 0);

        // A brand-new process would do exactly this: reopen the store from
        // disk and serve the same fleet.
        let service = quick_service(&dir, 10);
        let served = service.tune_batch(&requests);
        for result in &served {
            assert_eq!(result.as_ref().unwrap().fresh_evaluations, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_reduces_fresh_evaluations_for_similar_matrices() {
        // Two same-family matrices: tune A cold, then B warm-started from
        // A's stored winner, and compare against tuning B in a fresh store.
        let a = gen::powerlaw(512, 512, 8, 2.0, 1);
        let b = gen::powerlaw(512, 512, 8, 2.0, 2);
        let device = DeviceProfile::a100();

        let cold_dir = temp_dir("warmless");
        let cold_service = simulated_service(&cold_dir, 40);
        let cold = cold_service.tune_batch(&[TuneRequest::new(b.clone(), device.clone())]);
        let cold_b = cold[0].as_ref().unwrap();
        assert!(!cold_b.warm_started, "empty store cannot warm-start");

        let warm_dir = temp_dir("warm");
        let warm_service = simulated_service(&warm_dir, 40);
        warm_service.tune_batch(&[TuneRequest::new(a, device.clone())]);
        let warm = warm_service.tune_batch(&[TuneRequest::new(b, device)]);
        let warm_b = warm[0].as_ref().unwrap();
        assert!(warm_b.warm_started, "primed store must warm-start");
        // The warm-started search saw a strong incumbent first, so the
        // winner is at least as good as the cold search's.
        assert!(warm_b.tuned.gflops() >= 0.95 * cold_b.tuned.gflops());
        let _ = std::fs::remove_dir_all(&cold_dir);
        let _ = std::fs::remove_dir_all(&warm_dir);
    }

    #[test]
    fn different_search_schedules_use_distinct_store_contexts() {
        // A service with a different budget must neither reuse another
        // schedule's pinned seeds nor overwrite its stored winners: each
        // schedule gets its own store context, and each replays free.
        let dir = temp_dir("schedules");
        let matrix = gen::powerlaw(256, 256, 6, 2.0, 33);
        let request = || vec![TuneRequest::new(matrix.clone(), DeviceProfile::a100())];

        let big = quick_service(&dir, 30);
        let big_first = big.tune_batch(&request());
        let big_tune = big_first[0].as_ref().unwrap();
        let big_gflops = big_tune.tuned.gflops();
        big.store().flush().unwrap();

        let small = quick_service(&dir, 5);
        let small_first = small.tune_batch(&request());
        let small_tune = small_first[0].as_ref().unwrap();
        assert_ne!(
            big_tune.context_key, small_tune.context_key,
            "schedules must not share a store context"
        );
        assert!(
            small_tune.fresh_evaluations > 0,
            "the small schedule cannot be served from the big schedule's context"
        );
        small.store().flush().unwrap();

        // Both schedules replay free from a reopened store, and the big
        // schedule's winner survives the small schedule's searches.
        for budget in [30usize, 5] {
            let service = quick_service(&dir, budget);
            let served = service.tune_batch(&request());
            assert_eq!(served[0].as_ref().unwrap().fresh_evaluations, 0);
        }
        let revived = quick_service(&dir, 30).tune_batch(&request());
        assert_eq!(revived[0].as_ref().unwrap().tuned.gflops(), big_gflops);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn native_service_is_isolated_from_simulated_contexts_and_runs_natively() {
        let dir = temp_dir("native");
        let matrix = gen::powerlaw(192, 192, 6, 2.0, 77);
        // Two requests: the native service must serve them (serially — timed
        // searches never overlap) and produce correct handles for both.
        let requests = vec![
            TuneRequest::new(matrix.clone(), DeviceProfile::a100()),
            TuneRequest::new(gen::uniform_random(160, 160, 5, 78), DeviceProfile::a100()),
        ];

        let sim_config = SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 2,
            evaluator: EvaluatorChoice::Simulated,
            ..SearchConfig::default()
        };
        let sim = TuningService::new(DesignStore::open(&dir).unwrap(), sim_config.clone());
        let sim_served = sim.tune_batch(&requests);
        let sim_tune = sim_served[0].as_ref().unwrap();
        sim.store().flush().unwrap();

        // Same schedule, but candidates are scored by measured native time:
        // a different store context, never served from cost-model entries.
        let native_config = SearchConfig {
            evaluator: quick_native(),
            ..sim_config
        };
        let native = TuningService::new(DesignStore::open(&dir).unwrap(), native_config);
        let native_served = native.tune_batch(&requests);
        let native_tune = native_served[0].as_ref().unwrap();
        assert_ne!(
            sim_tune.context_key, native_tune.context_key,
            "measured and modelled results must not share a store context"
        );
        assert!(
            native_tune.fresh_evaluations > 0,
            "the native search cannot be answered from simulated entries"
        );
        assert!(native_tune.tuned.evaluator().is_native());

        // The served handles compute y = A·x for real.
        for (request, served) in requests.iter().zip(&native_served) {
            let tune = served.as_ref().unwrap();
            assert!(tune.tuned.evaluator().is_native());
            let x = vec![1.0; request.matrix.cols()];
            let y = tune.tuned.run(&x).unwrap();
            let expected = request.matrix.spmv(&x).unwrap();
            assert!(alpha_matrix::DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Measured time with the cheapest harness, the kernel on one worker.
    fn quick_native() -> EvaluatorChoice {
        EvaluatorChoice::Native {
            harness: alphasparse::TimingHarness::quick(),
            kernel_threads: 1,
        }
    }

    /// The cost model behind a gate that records the most evaluations it
    /// ever held at once.
    struct Gate {
        inner: alpha_search::SimEvaluator,
        inside: Arc<std::sync::atomic::AtomicUsize>,
        widest: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl alpha_search::Evaluator for Gate {
        fn evaluate(
            &self,
            ctx: &alpha_search::EvalContext<'_>,
            graph: &OperatorGraph,
        ) -> Option<alpha_search::Evaluation> {
            use std::sync::atomic::Ordering::SeqCst;
            let now = self.inside.fetch_add(1, SeqCst) + 1;
            self.widest.fetch_max(now, SeqCst);
            // Hold the gate long enough for a concurrent call to show.
            std::thread::sleep(Duration::from_micros(300));
            let evaluation = self.inner.evaluate(ctx, graph);
            self.inside.fetch_sub(1, SeqCst);
            evaluation
        }
    }

    #[test]
    fn concurrent_measured_batches_never_overlap_in_the_evaluator() {
        use std::sync::atomic::Ordering::SeqCst;
        // Two daemon tune workers are two `tune_batch` calls at once; under
        // an evaluator whose id measures time their searches take turns.
        let dir = temp_dir("measured_turns");
        let inside: Arc<std::sync::atomic::AtomicUsize> = Arc::default();
        let widest: Arc<std::sync::atomic::AtomicUsize> = Arc::default();
        let calls = widest.clone();
        let evaluator = EvaluatorChoice::custom(
            alpha_search::EvaluatorId::Native { warmup: 0, runs: 1 },
            move || {
                Box::new(Gate {
                    inner: alpha_search::SimEvaluator::new(DeviceProfile::a100()),
                    inside: inside.clone(),
                    widest: calls.clone(),
                })
            },
        );
        let service = TuningService::new(
            DesignStore::open(&dir).unwrap(),
            SearchConfig {
                evaluator,
                ..quick_config(12)
            },
        );
        let matrices = [
            gen::powerlaw(256, 256, 6, 2.0, 91),
            gen::uniform_random(256, 256, 5, 92),
        ];
        let barrier = std::sync::Barrier::new(matrices.len());
        std::thread::scope(|scope| {
            for matrix in &matrices {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let request = TuneRequest::new(matrix.clone(), DeviceProfile::a100());
                    let served = service.tune_batch(&[request]).pop().unwrap();
                    assert!(served.unwrap().fresh_evaluations > 0, "both searched");
                });
            }
        });
        assert_eq!(widest.load(SeqCst), 1, "two searches timed at once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A service with a private metrics registry, so `serve_tune_total`
    /// counts only this test's requests.
    fn counted_service(dir: &PathBuf, config: SearchConfig, capacity: usize) -> TuningService {
        let store = DesignStore::open_with_registry(dir, alpha_telemetry::Registry::new())
            .unwrap()
            .with_memory_capacity(capacity);
        TuningService::new(store, config)
    }

    /// One `path` of `serve_tune_total`.
    fn path_count(service: &TuningService, path: &str) -> u64 {
        let snapshot = service.registry().snapshot();
        snapshot
            .counter("serve_tune_total", &[("path", path)])
            .unwrap_or(0)
    }

    /// `serve_tune_total` as (stored, replayed, searched).
    fn path_counts(service: &TuningService) -> (u64, u64, u64) {
        let count = |path| path_count(service, path);
        (count("stored"), count("replayed"), count("searched"))
    }

    /// `served` with its program moved into an `Arc` the service has never
    /// seen: the tests of the stored path keep their answers to compare, and
    /// must not have later requests answered with them.
    fn disowned(mut served: ServedTune) -> ServedTune {
        let tuned = Arc::try_unwrap(served.tuned).unwrap_or_else(|_| panic!("a second holder"));
        served.tuned = Arc::new(tuned);
        served
    }

    /// `serve_loop_select_total`: requests whose inner loops were measured.
    fn loop_selections(service: &TuningService) -> u64 {
        let snapshot = service.registry().snapshot();
        snapshot
            .counter("serve_loop_select_total", &[])
            .unwrap_or(0)
    }

    /// The oracle: re-runs the search of `request`'s context on the context's
    /// own cache with its pinned seeds — what `tune_one` did before it
    /// answered from the stored winner, and what it still falls back to.
    fn forced_replay(service: &TuningService, request: &TuneRequest, store_key: u64) -> TunedSpmv {
        let cache = service.store().cache_for(store_key).unwrap();
        let mut config = service.config().clone();
        config.device = request.device.clone();
        config.seed_designs = cache
            .pinned_seed_designs(store_key)
            .expect("a tuned context has pinned seeds");
        let replayed = AlphaSparse::with_config(config)
            .with_shared_cache(cache)
            .auto_tune(&request.matrix)
            .unwrap();
        assert_eq!(replayed.search_stats().cache_misses, 0, "replays are free");
        replayed
    }

    /// The machine-independent half of a design: what the search decided.
    fn assert_same_graph(a: &TunedSpmv, b: &TunedSpmv, matrix: &CsrMatrix, what: &str) {
        assert_eq!(a.operator_graph(), b.operator_graph(), "{what}: graph");
        assert_eq!(a.gflops().to_bits(), b.gflops().to_bits(), "{what}: gflops");
        assert_eq!(a.report(), b.report(), "{what}: report");
        assert_eq!(a.source(), b.source(), "{what}: source");
        assert_eq!(a.evaluator(), b.evaluator(), "{what}: evaluator");
        let x = alpha_matrix::DenseVector::random(matrix.cols(), 77);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        for tuned in [a, b] {
            let y = tuned.run(x.as_slice()).unwrap();
            assert!(alpha_matrix::DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        }
    }

    /// The same design *and* the same inner loop — what every answer out of
    /// one store must be: identical shape, bit-identical `y`.
    fn assert_same_design(a: &TunedSpmv, b: &TunedSpmv, matrix: &CsrMatrix, what: &str) {
        assert_same_graph(a, b, matrix, what);
        assert_eq!(a.kernel_shape(), b.kernel_shape(), "{what}: kernel shape");
        let x = alpha_matrix::DenseVector::random(matrix.cols(), 77);
        let (ya, yb) = (a.run(x.as_slice()).unwrap(), b.run(x.as_slice()).unwrap());
        let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&ya), bits(&yb), "{what}: y must be bit-identical");
    }

    #[test]
    fn stored_winner_is_what_a_replay_selects() {
        // The differential behind the lookup path: for every pattern family
        // under both evaluators, the design a searched context is answered
        // with from its stored winner is the design a replay of its search
        // selects — from the memory tier, after an LRU eviction and disk
        // reload, and after the store is reopened.
        let sim = SearchConfig {
            max_iterations: 10,
            mutations_per_seed: 2,
            evaluator: EvaluatorChoice::Simulated,
            ..SearchConfig::default()
        };
        let native = SearchConfig {
            evaluator: quick_native(),
            ..sim.clone()
        };
        for (label, config) in [("simulated", sim), ("native", native)] {
            let dir = temp_dir(&format!("differential_{label}"));
            let requests: Vec<TuneRequest> = alpha_matrix::gen::PatternFamily::ALL
                .iter()
                .enumerate()
                .map(|(i, family)| {
                    TuneRequest::new(
                        family.generate(256, 6, 500 + i as u64),
                        DeviceProfile::a100(),
                    )
                })
                .collect();
            // Capacity 1: every context but the last tuned is evicted, so the
            // second pass below reloads each from disk before answering.
            let service = counted_service(&dir, config.clone(), 1);
            // One request per batch, so the later ones are warm-started from
            // the earlier winners and carry pinned seeds into their replays.
            let cold: Vec<ServedTune> = requests
                .iter()
                .map(|request| {
                    let mut served = service.tune_batch(std::slice::from_ref(request));
                    disowned(served.pop().unwrap().expect("cold tune succeeds"))
                })
                .collect();
            assert!(cold.iter().all(|t| t.fresh_evaluations > 0));
            assert!(cold.iter().any(|t| t.warm_started));
            assert_eq!(path_counts(&service), (0, 0, requests.len() as u64));
            // Under either evaluator every winner had its loop measured,
            // once, by its cold tune.
            let selected = cold
                .iter()
                .filter(|t| !t.tuned.loop_selection().is_empty())
                .count() as u64;
            assert_eq!(loop_selections(&service), selected, "{label}");
            assert_eq!(selected, requests.len() as u64, "{label}");

            let check_pass = |service: &TuningService, pass: &str| {
                for (request, first) in requests.iter().zip(&cold) {
                    let what = format!("{label}, {pass}, context {:#x}", first.context_key);
                    let looked_up = service
                        .tune_batch(std::slice::from_ref(request))
                        .pop()
                        .unwrap()
                        .expect("warm tune succeeds");
                    assert_eq!(looked_up.fresh_evaluations, 0, "{what}");
                    assert_eq!(looked_up.context_key, first.context_key, "{what}");
                    assert_eq!(looked_up.warm_started, first.warm_started, "{what}");
                    assert_eq!(looked_up.tuned.search_stats().iterations, 0, "{what}");
                    let replayed = forced_replay(service, request, first.context_key);
                    assert_same_design(&looked_up.tuned, &replayed, &request.matrix, &what);
                    assert_same_design(&looked_up.tuned, &first.tuned, &request.matrix, &what);
                    // Lookup and replay lower the loop the cold tune
                    // recorded: neither measures anything.
                    assert!(looked_up.tuned.loop_selection().is_empty(), "{what}");
                    assert!(replayed.loop_selection().is_empty(), "{what}");
                }
            };
            let disk_loads = service.store_stats().disk_loads;
            check_pass(&service, "evicted and reloaded");
            assert!(service.store_stats().disk_loads > disk_loads);
            check_pass(&service, "in memory");
            let n = requests.len() as u64;
            assert_eq!(path_counts(&service), (2 * n, 0, n), "{label}");
            assert_eq!(loop_selections(&service), selected, "{label}: warm passes");
            service.store().flush().unwrap();
            drop(service);

            let reopened = counted_service(&dir, config, 8);
            check_pass(&reopened, "reopened store");
            assert_eq!(path_counts(&reopened), (n, 0, 0), "{label}");
            assert_eq!(loop_selections(&reopened), 0, "{label}: reopened store");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn lookup_falls_back_to_search_when_the_winner_entry_is_missing() {
        // Three stores must land on one design: the cost model's.
        let config = SearchConfig {
            max_iterations: 10,
            mutations_per_seed: 2,
            evaluator: EvaluatorChoice::Simulated,
            ..SearchConfig::default()
        };
        let request = TuneRequest::new(gen::powerlaw(256, 256, 6, 2.0, 61), DeviceProfile::a100());
        let batch = std::slice::from_ref(&request);

        // The reference: an ordinary cold tune, then a stored answer.
        let origin_dir = temp_dir("fallback_origin");
        let origin = counted_service(&origin_dir, config.clone(), 8);
        let cold = origin.tune_batch(batch).pop().unwrap().unwrap();
        let store_key = cold.context_key;
        let eval_key = context_key_for(
            &request.matrix,
            &request.device,
            GeneratorOptions {
                model_compression: config.enable_model_compression,
            },
            config.seed,
            config.evaluator.id(),
        );
        assert_eq!(origin.store_key(eval_key), store_key);
        let origin_cache = origin.store().cache_for(store_key).unwrap();
        let winner = origin_cache
            .winner(eval_key)
            .expect("cold tune stored a winner");
        let pins = origin_cache.pinned_seed_designs(store_key).unwrap();

        // (1) A context that holds the winner and the pins but not the
        // winner's evaluation entry (an interrupted write, a foreign file):
        // there is no complete stored answer, so the request is searched —
        // and lands on the same design.
        let bare_dir = temp_dir("fallback_bare");
        let bare = counted_service(&bare_dir, config.clone(), 8);
        let bare_cache = bare.store().cache_for(store_key).unwrap();
        bare_cache.pin_seed_designs(store_key, pins);
        bare_cache.record_winner(eval_key, winner);
        assert!(stored_outcome(&bare_cache, eval_key).is_none());
        let searched = disowned(bare.tune_batch(batch).pop().unwrap().unwrap());
        assert!(searched.fresh_evaluations > 0);
        assert_eq!(path_counts(&bare), (0, 0, 1));
        // Another store is another measurement of the inner loop: the graph
        // is the search's and must match, the loop is this store's own.
        assert_same_graph(&searched.tuned, &cold.tuned, &request.matrix, "searched");
        // The search completed the context: the next request is a lookup.
        let again = bare.tune_batch(batch).pop().unwrap().unwrap();
        assert_eq!(again.fresh_evaluations, 0);
        assert_eq!(path_counts(&bare), (1, 0, 1));
        assert_same_design(&again.tuned, &searched.tuned, &request.matrix, "completed");

        // (2) A context that holds every evaluation and the winner but was
        // never pinned by a service (searched directly on the cache): the
        // seeds the winner was found under are unknown, so it is not
        // trusted — the request pins, replays (free), and only then is
        // answered by lookup.
        let unpinned_dir = temp_dir("fallback_unpinned");
        let unpinned = counted_service(&unpinned_dir, config.clone(), 8);
        let unpinned_cache = unpinned.store().cache_for(store_key).unwrap();
        let mut direct = config.clone();
        direct.device = request.device.clone();
        AlphaSparse::with_config(direct)
            .with_shared_cache(unpinned_cache.clone())
            .auto_tune(&request.matrix)
            .unwrap();
        assert!(stored_outcome(&unpinned_cache, eval_key).is_some());
        assert!(unpinned_cache.pinned_seed_designs(store_key).is_none());
        let replayed = disowned(unpinned.tune_batch(batch).pop().unwrap().unwrap());
        assert_eq!(replayed.fresh_evaluations, 0);
        assert!(replayed.tuned.search_stats().iterations > 0, "a search ran");
        assert_eq!(path_counts(&unpinned), (0, 1, 0));
        assert_same_graph(&replayed.tuned, &cold.tuned, &request.matrix, "replayed");
        let looked_up = unpinned.tune_batch(batch).pop().unwrap().unwrap();
        assert_eq!(path_counts(&unpinned), (1, 1, 0));
        assert_same_design(
            &looked_up.tuned,
            &replayed.tuned,
            &request.matrix,
            "looked up",
        );

        for dir in [origin_dir, bare_dir, unpinned_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_repeat_request_gets_the_program_a_holder_still_has() {
        let dir = temp_dir("resident");
        let config = SearchConfig {
            max_iterations: 10,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        };
        let service = counted_service(&dir, config, 8);
        let request = TuneRequest::new(gen::powerlaw(256, 256, 6, 2.0, 81), DeviceProfile::a100());
        let tune = || {
            let mut served = service.tune_batch(std::slice::from_ref(&request));
            served.pop().unwrap().expect("tuning succeeds")
        };
        let live_entries = || {
            let resident = service.resident.lock().unwrap();
            assert!(resident.values().all(|e| e.program.strong_count() > 0));
            resident.len()
        };

        let first = tune();
        assert!(first.fresh_evaluations > 0);
        assert!(
            !first.tuned.loop_selection().is_empty(),
            "a cold tune selects"
        );
        let repeat = tune();
        assert!(Arc::ptr_eq(&repeat.tuned, &first.tuned));
        assert_eq!(repeat.fresh_evaluations, 0);
        assert_eq!(repeat.context_key, first.context_key);
        assert_eq!(repeat.fingerprint, first.fingerprint);
        assert_eq!(repeat.warm_started, first.warm_started);
        assert_eq!(path_count(&service, "resident"), 1);
        assert_eq!(path_counts(&service), (0, 0, 1));
        assert_eq!(
            loop_selections(&service),
            1,
            "handing a program back selects nothing"
        );
        // One holder is enough.
        drop(first);
        assert!(Arc::ptr_eq(&tune().tuned, &repeat.tuned));
        assert_eq!(path_count(&service, "resident"), 2);

        // A program lives exactly as long as someone holds it: with every
        // holder gone the context is answered from its stored winner, and
        // the dead entry made way for the new program's.
        let x = alpha_matrix::DenseVector::random(request.matrix.cols(), 5);
        let y = repeat.tuned.run(x.as_slice()).unwrap();
        drop(repeat);
        let rebuilt = tune();
        assert_eq!(path_count(&service, "resident"), 2);
        assert_eq!(path_counts(&service), (1, 0, 1));
        assert_eq!(rebuilt.fresh_evaluations, 0);
        assert_eq!(rebuilt.tuned.run(x.as_slice()).unwrap(), y);
        assert_eq!(live_entries(), 1);
        // Another context's request sweeps what this one left behind.
        drop(rebuilt);
        let other = TuneRequest::new(gen::powerlaw(256, 256, 6, 2.0, 82), DeviceProfile::a100());
        let _other = service.tune_batch(&[other]).pop().unwrap().unwrap();
        assert_eq!(live_entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_threads_missing_on_one_new_context_both_succeed() {
        let dir = temp_dir("resident_race");
        let service = quick_service(&dir, 8);
        let request = TuneRequest::new(gen::powerlaw(192, 192, 5, 2.0, 83), DeviceProfile::a100());
        let barrier = std::sync::Barrier::new(2);
        let served: Vec<ServedTune> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut served = service.tune_batch(std::slice::from_ref(&request));
                        served.pop().unwrap().expect("tuning succeeds")
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // Whichever of them filed its program last, both hold a right one.
        assert_same_design(
            &served[0].tuned,
            &served[1].tuned,
            &request.matrix,
            "racing builders",
        );
        let next = service.tune_batch(std::slice::from_ref(&request));
        let next = next[0].as_ref().unwrap();
        assert!(served.iter().any(|s| Arc::ptr_eq(&s.tuned, &next.tuned)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resident_program_is_found_by_digest_while_held() {
        let dir = temp_dir("resident_digest");
        let service = quick_service(&dir, 8);
        let request = TuneRequest::new(gen::powerlaw(192, 192, 5, 2.0, 86), DeviceProfile::a100());
        let (digest, device) = (request.matrix.digest(), &request.device);
        assert!(
            service.resident(digest, device).is_none(),
            "nothing built yet"
        );
        let mut served = service.tune_batch(std::slice::from_ref(&request));
        let served = served.pop().unwrap().expect("tuning succeeds");
        let (found, warm_started) = service.resident(digest, device).expect("`served` holds it");
        assert!(Arc::ptr_eq(&found, &served.tuned));
        assert_eq!(warm_started, served.warm_started);
        // Another device is another program.
        assert!(service
            .resident(digest, &DeviceProfile::rtx2080())
            .is_none());
        // Any holder keeps it alive; the last one's drop ends it.
        drop(served);
        assert!(service.resident(digest, device).is_some());
        drop(found);
        assert!(service.resident(digest, device).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two different 64 × 64 matrices with one 64-bit fingerprint, and the
    /// index of the entry that differs between them: the construction of
    /// `fingerprint_colliding_pair` in alpha-net's `tests/daemon.rs`, which
    /// explains it.  The fast hash's products vanish where a value equals
    /// the low half of its key, so raising the neighbouring value in one
    /// stripe and lowering it in another leaves every lane as it was.
    fn fingerprint_colliding_pair() -> (CsrMatrix, CsrMatrix, usize) {
        const LANES: usize = 8;
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let keys: Vec<u64> = (0..16 * LANES)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        let moderate = |key: u64| {
            let value = f32::from_bits(key as u32);
            value.is_normal() && (1e-20..1e20).contains(&value.abs())
        };
        let (lane, [up, down]) = (0..LANES)
            .find_map(|lane| {
                let mut stripes = (0..16).filter(|&s| moderate(keys[s * LANES + lane]));
                Some((lane, [stripes.next()?, stripes.next()?]))
            })
            .expect("some lane has two usable keys");
        let (rows, per_row) = (64, 8);
        let offsets: Vec<u32> = (0..=rows).map(|r| (r * per_row) as u32).collect();
        let columns: Vec<u32> = (0..rows)
            .flat_map(|r| (0..per_row).map(move |j| (j * 8 + r % 8) as u32))
            .collect();
        let mut values = vec![1.0f32; rows * per_row];
        for stripe in [up, down] {
            values[16 * stripe + 2 * lane] = f32::from_bits(keys[stripe * LANES + lane] as u32);
        }
        let mut shifted = values.clone();
        let [raised, lowered] = [up, down].map(|stripe| 16 * stripe + 2 * lane + 1);
        shifted[raised] = f32::from_bits(shifted[raised].to_bits() + 1);
        shifted[lowered] = f32::from_bits(shifted[lowered].to_bits() - 1);
        let build = |values| {
            CsrMatrix::from_raw(rows, 64, offsets.clone(), columns.clone(), values)
                .expect("valid CSR")
        };
        (build(values), build(shifted), raised)
    }

    #[test]
    fn a_program_filed_under_a_colliding_key_is_not_served() {
        // Two matrices whose fingerprints — and so store keys — collide: the
        // resident map tells them apart by digest, so each is answered with
        // a program of its own, and each program computes its own `y`.
        let (a, b, entry) = fingerprint_colliding_pair();
        assert_ne!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let dir = temp_dir("resident_collision");
        let service = counted_service(
            &dir,
            SearchConfig {
                max_iterations: 8,
                mutations_per_seed: 2,
                ..SearchConfig::default()
            },
            8,
        );
        let tune = |matrix: &CsrMatrix| {
            let request = TuneRequest::new(matrix.clone(), DeviceProfile::a100());
            let mut served = service.tune_batch(&[request]);
            served.pop().unwrap().expect("tuning succeeds")
        };
        let held = [tune(&a), tune(&b)];
        assert_eq!(held[0].context_key, held[1].context_key, "one store key");
        assert!(!Arc::ptr_eq(&held[0].tuned, &held[1].tuned));
        assert_eq!(path_count(&service, "resident"), 0);

        // `x` picks the column of the entry that differs: every row of `y` is
        // one stored value, exact in any summation order.
        let mut x = vec![0.0f32; 64];
        x[a.col_indices()[entry] as usize] = 1.0;
        let ys = [&a, &b].map(|m| m.spmv(&x).unwrap());
        assert_ne!(ys[0], ys[1]);
        for ((matrix, held), expected) in [&a, &b].into_iter().zip(&held).zip(&ys) {
            let again = tune(matrix);
            assert!(Arc::ptr_eq(&again.tuned, &held.tuned));
            assert_eq!(&again.tuned.run(&x).unwrap(), expected);
        }
        assert_eq!(path_count(&service, "resident"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_matrices_fail_without_poisoning_the_batch() {
        let dir = temp_dir("partial");
        let service = quick_service(&dir, 8);
        let empty = CsrMatrix::from_coo(&alpha_matrix::CooMatrix::new(8, 8));
        let requests = vec![
            TuneRequest::new(empty, DeviceProfile::a100()),
            TuneRequest::new(gen::powerlaw(128, 128, 4, 2.0, 5), DeviceProfile::a100()),
        ];
        let served = service.tune_batch(&requests);
        assert!(served[0].is_err());
        assert!(served[1].is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
