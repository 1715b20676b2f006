//! The [`DesignStore`]: durable design caches with an on-disk directory
//! layout and an LRU in-memory tier.

use crate::lock::StoreLock;
use alpha_search::persist::PersistError;
use alpha_search::{DesignCache, StoredDesign};
use alpha_telemetry::{Counter, Registry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Layout version string written to (and checked against) the store's
/// `store.layout` marker file.  Bump when the directory layout — not the
/// cache file format, which carries its own version — changes, or when the
/// context keys the files are named by do: `v3` keys no longer fold the
/// search's batch size (evaluation has no batches), `v2` keys did, and `v1`
/// keys are rooted in the FNV-1a predecessor of the striped
/// [`CsrMatrix::fingerprint`](alpha_matrix::CsrMatrix::fingerprint).  An
/// older directory holds nothing a current lookup could find, so it is
/// refused instead of silently orphaned.
pub const STORE_LAYOUT_VERSION: &str = "alphasparse-design-store v3";

/// Default number of per-context caches kept in memory.
const DEFAULT_CAPACITY: usize = 64;

/// Why a [`DesignStore`] operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A cache file could not be decoded (corruption, truncation, or a
    /// schema version this build does not read).
    Persist(PersistError),
    /// The directory exists but was written by an incompatible store layout.
    Layout {
        /// Layout string found in the marker file.
        found: String,
        /// Layout string this build expects.
        expected: String,
    },
    /// Another process holds the store's exclusive kernel file lock (on its
    /// `store.lock`).  Two processes writing one store directory would
    /// corrupt each other's cache files, so the second opener is refused —
    /// point it at its own directory, or stop the holder first.  A *dead*
    /// holder's lock is released by the kernel automatically, so this error
    /// always names a live process.
    Locked {
        /// The store directory that is locked.
        path: PathBuf,
        /// PID the holder recorded in the lock file (0 when unreadable).
        pid: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "design store I/O error: {e}"),
            StoreError::Persist(e) => write!(f, "design store cache file error: {e}"),
            StoreError::Layout { found, expected } => write!(
                f,
                "design store layout mismatch: directory says {found:?}, this build expects \
                 {expected:?}"
            ),
            StoreError::Locked { path, pid } => write!(
                f,
                "design store {} is locked by process {pid} (store.lock); two processes \
                 must not share one store directory",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Persist(e) => Some(e),
            StoreError::Layout { .. } | StoreError::Locked { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        StoreError::Persist(e)
    }
}

impl From<StoreError> for String {
    fn from(e: StoreError) -> Self {
        e.to_string()
    }
}

/// Counters describing how the store's memory tier is performing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `cache_for` calls answered by an already-resident cache.
    pub memory_hits: usize,
    /// `cache_for` calls that loaded an existing cache file from disk.
    pub disk_loads: usize,
    /// `cache_for` calls that created a brand-new (never-tuned) context.
    pub cold_starts: usize,
    /// Resident caches written back and dropped to respect the capacity.
    pub evictions: usize,
}

struct Resident {
    /// LRU order: index 0 is the least recently used context.
    caches: Vec<(u64, Arc<DesignCache>)>,
    capacity: usize,
    stats: StoreStats,
}

/// Per-file winner lists: file/context key → the (context key, design) pairs
/// stored in that cache file.
type WinnerIndex = HashMap<u64, Vec<(u64, StoredDesign)>>;

/// A durable store of tuned-design caches, one per evaluation context.
///
/// On disk the store is a directory: a `store.layout` marker naming the
/// layout version, and one versioned binary cache file per context under
/// `designs/` (see [`alpha_search::persist`] for the file format).  In
/// memory it keeps the most recently used caches resident — loaded lazily,
/// written back on eviction and on [`DesignStore::flush`].
///
/// ```
/// use alpha_serve::DesignStore;
///
/// let dir = std::env::temp_dir().join(format!("alpha_store_doc_{}", std::process::id()));
/// # std::fs::remove_dir_all(&dir).ok();
/// let store = DesignStore::open(&dir).expect("store opens");
///
/// // Caches are created on first touch and survive a reopen once flushed.
/// let cache = store.cache_for(0xA1FA).expect("cache");
/// assert!(cache.is_empty());
/// store.flush().expect("flush");
///
/// let reopened = DesignStore::open(&dir).expect("reopen");
/// assert_eq!(reopened.stats().disk_loads, 0);
/// reopened.cache_for(0xA1FA).expect("cache");
/// assert_eq!(reopened.stats().disk_loads, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct DesignStore {
    root: PathBuf,
    /// Cooperative inter-process lock on `root`; held for the store's whole
    /// lifetime, released (and the lock file removed) when the last store
    /// instance of this process drops.
    _lock: StoreLock,
    /// The resident LRU tier.
    resident: Mutex<Resident>,
    /// Lazily built index of the winners stored in the *on-disk* cache files
    /// (keyed by file/context key).  Avoids re-decoding every cache file —
    /// evaluations and all — each time [`DesignStore::winners`] runs; kept
    /// current by every code path that writes or loads a cache file.  Never
    /// hold this lock and `resident` at the same time.
    winner_index: Mutex<Option<WinnerIndex>>,
    /// The metrics registry this store publishes on, plus cached handles on
    /// its four counters.  The counters mirror [`StoreStats`] exactly — same
    /// increments at the same sites — so a `/metrics` scrape and a
    /// `store_stats` wire reply never disagree.
    metrics: StoreMetrics,
}

/// Cached registry handles for the store-tier counters.
struct StoreMetrics {
    registry: Arc<Registry>,
    memory_hits: Counter,
    disk_loads: Counter,
    cold_starts: Counter,
    evictions: Counter,
}

impl StoreMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        StoreMetrics {
            memory_hits: registry.counter("serve_store_memory_hits_total", &[]),
            disk_loads: registry.counter("serve_store_disk_loads_total", &[]),
            cold_starts: registry.counter("serve_store_cold_starts_total", &[]),
            evictions: registry.counter("serve_store_evictions_total", &[]),
            registry,
        }
    }
}

/// Most bytes of a layout marker read: the marker is one short line, so a
/// longer file names no layout and is reported by this much of its head.
const LAYOUT_MARKER_MAX: usize = 128;

/// Whether `marker` exists and names [`STORE_LAYOUT_VERSION`]; `Ok(false)`
/// when there is no marker yet, [`StoreError::Layout`] when it names
/// anything else.
fn layout_is_current(marker: &Path) -> Result<bool, StoreError> {
    use std::io::Read;
    let file = match std::fs::File::open(marker) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    let mut head = Vec::new();
    file.take(LAYOUT_MARKER_MAX as u64 + 1)
        .read_to_end(&mut head)?;
    let found = String::from_utf8_lossy(&head[..head.len().min(LAYOUT_MARKER_MAX)]);
    if head.len() <= LAYOUT_MARKER_MAX && found.trim() == STORE_LAYOUT_VERSION {
        return Ok(true);
    }
    Err(StoreError::Layout {
        found: found.trim().to_string(),
        expected: STORE_LAYOUT_VERSION.to_string(),
    })
}

impl DesignStore {
    /// Opens (or initialises) a design store rooted at `path`.
    ///
    /// A fresh directory is created with the current layout marker; an
    /// existing store is validated against [`STORE_LAYOUT_VERSION`] and
    /// rejected with [`StoreError::Layout`] when it was written by an
    /// incompatible layout — before anything in it is created, locked or
    /// written, so the refused directory is left byte for byte as it was.
    ///
    /// Opening also takes an exclusive **kernel file lock** on the
    /// directory's `store.lock`: a store already opened by a different
    /// process is refused with [`StoreError::Locked`], and a crashed
    /// holder's lock is released by the kernel automatically (no stale
    /// lockfiles to clean up).  Re-opening from the *same* process is
    /// always allowed — the store is internally synchronised — and
    /// reference-counted over one shared lock handle.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::open_with_registry(path, alpha_telemetry::global().clone())
    }

    /// [`DesignStore::open`] publishing its counters on an explicit
    /// [`Registry`] instead of the process-wide one — benches and tests use
    /// a private registry per store so concurrent stores in one process do
    /// not mix their counters.
    pub fn open_with_registry<P: AsRef<Path>>(
        path: P,
        registry: Arc<Registry>,
    ) -> Result<Self, StoreError> {
        let root = path.as_ref().to_path_buf();
        let marker = root.join("store.layout");
        // Checked first: taking the lock below rewrites `store.lock`.
        let initialised = layout_is_current(&marker)?;
        std::fs::create_dir_all(root.join("designs"))?;
        let lock = StoreLock::acquire(&root).map_err(|e| match StoreLock::foreign_holder(&e) {
            Some(held) => StoreError::Locked {
                path: root.clone(),
                pid: held.pid,
            },
            None => StoreError::Io(e),
        })?;
        // Under the lock nobody else initialises the directory: look again,
        // then do it.
        if !initialised && !layout_is_current(&marker)? {
            std::fs::write(&marker, format!("{STORE_LAYOUT_VERSION}\n"))?;
        }
        Ok(DesignStore {
            root,
            _lock: lock,
            resident: Mutex::new(Resident {
                caches: Vec::new(),
                capacity: DEFAULT_CAPACITY,
                stats: StoreStats::default(),
            }),
            winner_index: Mutex::new(None),
            metrics: StoreMetrics::new(registry),
        })
    }

    /// The metrics registry this store publishes its counters on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Sets how many per-context caches stay resident in memory (minimum 1).
    /// Evicted caches are written back to disk first, so a small capacity
    /// trades memory for reload I/O, never for lost work.
    pub fn with_memory_capacity(self, capacity: usize) -> Self {
        self.resident.lock().expect("store poisoned").capacity = capacity.max(1);
        self
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the memory-tier counters.
    pub fn stats(&self) -> StoreStats {
        self.resident.lock().expect("store poisoned").stats
    }

    /// Number of caches currently resident in memory.
    pub fn resident_contexts(&self) -> usize {
        self.resident.lock().expect("store poisoned").caches.len()
    }

    fn context_file(&self, context_key: u64) -> PathBuf {
        self.root
            .join("designs")
            .join(format!("ctx_{context_key:016x}.acds"))
    }

    /// Writes `cache` to `context_key`'s file, marks it clean, and keeps the
    /// winner index current.  Must not be called while holding either lock.
    fn save_cache_file(&self, context_key: u64, cache: &DesignCache) -> Result<(), StoreError> {
        cache.save_to_file(self.context_file(context_key))?;
        cache.mark_clean();
        self.note_winners(context_key, cache);
        Ok(())
    }

    /// Records the winners of `context_key`'s (just written or just loaded)
    /// cache file in the index, if that index has been built.
    fn note_winners(&self, context_key: u64, cache: &DesignCache) {
        let mut index = self.winner_index.lock().expect("store poisoned");
        if let Some(map) = index.as_mut() {
            map.insert(context_key, cache.winners());
        }
    }

    /// The cache for one evaluation context, loading it from disk — or
    /// creating it empty — on first touch.  The returned `Arc` stays valid
    /// even if the store later evicts the context; evicted caches are
    /// persisted before being dropped from the resident tier.
    pub fn cache_for(&self, context_key: u64) -> Result<Arc<DesignCache>, StoreError> {
        let mut resident = self.resident.lock().expect("store poisoned");
        if let Some(pos) = resident.caches.iter().position(|(k, _)| *k == context_key) {
            let entry = resident.caches.remove(pos);
            resident.caches.push(entry);
            resident.stats.memory_hits += 1;
            self.metrics.memory_hits.inc();
            return Ok(resident.caches.last().expect("just pushed").1.clone());
        }

        let path = self.context_file(context_key);
        let (cache, loaded_from_disk) = match DesignCache::load_from_file(&path) {
            Ok(cache) => {
                resident.stats.disk_loads += 1;
                self.metrics.disk_loads.inc();
                (cache, true)
            }
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                resident.stats.cold_starts += 1;
                self.metrics.cold_starts.inc();
                (DesignCache::new(), false)
            }
            Err(e) => return Err(e.into()),
        };
        let cache = Arc::new(cache);
        resident.caches.push((context_key, cache.clone()));
        let mut evicted_dirty: Vec<(u64, Arc<DesignCache>)> = Vec::new();
        while resident.caches.len() > resident.capacity {
            let (evicted_key, evicted) = resident.caches.remove(0);
            resident.stats.evictions += 1;
            self.metrics.evictions.inc();
            // Unchanged caches (loaded but never searched) are just dropped;
            // their file — if any — is already current.
            if evicted.is_dirty() {
                evicted_dirty.push((evicted_key, evicted));
            }
        }
        drop(resident);
        for (evicted_key, evicted) in evicted_dirty {
            self.save_cache_file(evicted_key, &evicted)?;
        }
        if loaded_from_disk {
            self.note_winners(context_key, &cache);
        }
        Ok(cache)
    }

    /// Writes one resident context back to its cache file.  Returns `false`
    /// when the context is not resident (nothing new to write: it was either
    /// never touched or already persisted at eviction).
    ///
    /// When the caller still holds the context's cache `Arc` — as a tuning
    /// worker does — prefer [`DesignStore::persist_cache`], which cannot miss
    /// a concurrently evicted context.
    pub fn persist(&self, context_key: u64) -> Result<bool, StoreError> {
        let cache = {
            let resident = self.resident.lock().expect("store poisoned");
            resident
                .caches
                .iter()
                .find(|(k, _)| *k == context_key)
                .map(|(_, c)| c.clone())
        };
        match cache {
            Some(cache) => {
                self.save_cache_file(context_key, &cache)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Writes an explicitly held cache to `context_key`'s file, whether or
    /// not the context is still resident.  This is the write path for workers
    /// that obtained the cache from [`DesignStore::cache_for`] and mutated it
    /// afterwards: even if the LRU tier evicted the context mid-search (the
    /// eviction saved an earlier snapshot), the held `Arc` carries the final
    /// state and this call makes it durable.  Returns `false` (and skips the
    /// write) when the cache has nothing unsaved.
    pub fn persist_cache(&self, context_key: u64, cache: &DesignCache) -> Result<bool, StoreError> {
        if !cache.is_dirty() {
            return Ok(false);
        }
        self.save_cache_file(context_key, cache)?;
        Ok(true)
    }

    /// Writes every resident context back to disk.  Returns the number of
    /// files written.
    pub fn flush(&self) -> Result<usize, StoreError> {
        let caches = self.resident.lock().expect("store poisoned").caches.clone();
        for (key, cache) in &caches {
            self.save_cache_file(*key, cache)?;
        }
        Ok(caches.len())
    }

    /// Every stored winning design — resident and on-disk — as
    /// (context key, design) pairs, in a deterministic order.  This is the
    /// corpus the [`TuningService`](crate::TuningService) mines for
    /// warm-start seeds; resident caches take precedence over their possibly
    /// older on-disk snapshots.
    ///
    /// Cache files are fully decoded at most once per store instance: their
    /// winners live in an in-memory index afterwards, kept current by every
    /// write, so calling this per batch stays cheap even over a large store.
    pub fn winners(&self) -> Result<Vec<(u64, StoredDesign)>, StoreError> {
        let mut winners: Vec<(u64, StoredDesign)> = Vec::new();
        let resident_keys: Vec<u64> = {
            let resident = self.resident.lock().expect("store poisoned");
            for (_, cache) in &resident.caches {
                winners.extend(cache.winners());
            }
            resident.caches.iter().map(|(k, _)| *k).collect()
        };
        self.ensure_winner_index()?;
        let index = self.winner_index.lock().expect("store poisoned");
        let map = index.as_ref().expect("just built");
        for (file_key, file_winners) in map.iter() {
            if !resident_keys.contains(file_key) {
                winners.extend(file_winners.iter().cloned());
            }
        }
        // Deterministic order regardless of map/directory enumeration: the
        // seed selection downstream must not depend on iteration order.
        winners.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.graph.signature().cmp(&b.1.graph.signature()))
        });
        Ok(winners)
    }

    /// Builds the on-disk winner index on first use by scanning `designs/`
    /// and fully decoding (once per store instance) every cache file.
    fn ensure_winner_index(&self) -> Result<(), StoreError> {
        {
            let index = self.winner_index.lock().expect("store poisoned");
            if index.is_some() {
                return Ok(());
            }
        }
        let designs_dir = self.root.join("designs");
        let mut disk_keys: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&designs_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name
                .strip_prefix("ctx_")
                .and_then(|rest| rest.strip_suffix(".acds"))
            else {
                continue;
            };
            let Ok(key) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            disk_keys.push((key, entry.path()));
        }
        let mut map = HashMap::with_capacity(disk_keys.len());
        for (key, path) in disk_keys {
            let cache = DesignCache::load_from_file(&path)?;
            map.insert(key, cache.winners());
        }
        let mut index = self.winner_index.lock().expect("store poisoned");
        // A concurrent builder may have won the race; either result is
        // equivalent, keep the first.
        index.get_or_insert(map);
        Ok(())
    }
}

impl std::fmt::Debug for DesignStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignStore")
            .field("root", &self.root)
            .field("resident", &self.resident_contexts())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_graph::presets;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alpha_serve_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn design(gflops: f64) -> StoredDesign {
        StoredDesign {
            graph: presets::csr_scalar(),
            gflops,
            matrix_features: vec![1.0, 2.0],
            evaluator: alpha_search::EvaluatorId::Simulated,
            // A realistic monomorphized-library key: persisting it through the
            // store round-trips the ACDS optional-string field.
            kernel_shape: Some("rows[off:table,org:id,col:table]:scalar".to_string()),
        }
    }

    #[test]
    fn open_initialises_and_reopens() {
        let dir = temp_store_dir("open");
        let store = DesignStore::open(&dir).unwrap();
        assert!(dir.join("store.layout").is_file());
        assert!(dir.join("designs").is_dir());
        drop(store);
        DesignStore::open(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file under `dir` with its bytes, in path order.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(dir) = pending.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    files.push((path.clone(), std::fs::read(&path).unwrap()));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn foreign_layout_is_rejected() {
        let dir = temp_store_dir("layout");
        std::fs::create_dir_all(dir.join("designs")).unwrap();
        std::fs::write(dir.join("store.layout"), "somebody-elses-store v9\n").unwrap();
        assert!(matches!(
            DesignStore::open(&dir),
            Err(StoreError::Layout { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // The layouts this one replaced: `v2` keys fold a batch size, `v1`
        // keys are rooted in the FNV-1a fingerprint, so nothing in either
        // can be found.  Refused by name, and left exactly as they were —
        // lock file included.
        for old in ["v1", "v2"] {
            let dir = temp_store_dir(&format!("layout_{old}"));
            let found = format!("alphasparse-design-store {old}");
            std::fs::create_dir_all(dir.join("designs")).unwrap();
            std::fs::write(dir.join("store.layout"), format!("{found}\n")).unwrap();
            std::fs::write(dir.join(crate::LOCK_FILE_NAME), "4242\n").unwrap();
            std::fs::write(dir.join("designs/ctx_00000000000000aa.acds"), b"old").unwrap();
            let before = snapshot(&dir);
            match DesignStore::open(&dir) {
                Err(StoreError::Layout {
                    found: refused,
                    expected,
                }) => {
                    assert_eq!(refused, found);
                    assert_eq!(expected, "alphasparse-design-store v3");
                    assert_eq!(expected, STORE_LAYOUT_VERSION);
                }
                other => panic!("{old}: expected StoreError::Layout, got {other:?}"),
            }
            assert_eq!(
                snapshot(&dir),
                before,
                "a refused {old} directory is not touched"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn hostile_layout_markers_are_refused_and_left_untouched() {
        // Seeded junk, so a failure names its input.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut junk = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        };
        let current_then_junk = [STORE_LAYOUT_VERSION.as_bytes(), b"\n", &junk(64)].concat();
        let cases: [(&str, Vec<u8>); 7] = [
            ("non_utf8", vec![0xFF, 0xFE, 0xC3, 0x28, b'\n']),
            ("nul", b"alphasparse-design-store\0v2\n".to_vec()),
            ("empty", Vec::new()),
            ("whitespace", b" \t\r\n \n".to_vec()),
            ("junk_1mib", junk(1 << 20)),
            ("current_then_junk", current_then_junk),
            (
                "current_then_long_whitespace",
                [STORE_LAYOUT_VERSION.as_bytes(), &[b' '; 1024], b"v9"].concat(),
            ),
        ];
        for (tag, marker) in cases {
            let dir = temp_store_dir(&format!("hostile_layout_{tag}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("store.layout"), &marker).unwrap();
            let before = snapshot(&dir);
            match DesignStore::open(&dir) {
                Err(StoreError::Layout { found, .. }) => {
                    assert!(
                        found.len() <= 4 * LAYOUT_MARKER_MAX,
                        "{tag}: echoes {} bytes",
                        found.len()
                    );
                }
                Err(StoreError::Io(_)) => {}
                other => panic!("{tag}: expected Layout or Io, got {other:?}"),
            }
            assert_eq!(
                snapshot(&dir),
                before,
                "{tag}: a refused directory is not touched"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A second open-file-description stands in for "another process":
    /// kernel file locks conflict between descriptions even within one
    /// process.
    fn foreign_lock(dir: &Path) -> std::fs::File {
        std::fs::create_dir_all(dir).unwrap();
        let mut file = std::fs::File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(crate::LOCK_FILE_NAME))
            .unwrap();
        file.try_lock().unwrap();
        use std::io::Write;
        file.write_all(b"41\n").unwrap();
        file.flush().unwrap();
        file
    }

    #[test]
    fn store_held_by_a_foreign_process_is_refused_until_released() {
        let dir = temp_store_dir("locked");
        let foreign = foreign_lock(&dir);
        match DesignStore::open(&dir) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, 41),
            other => panic!("expected StoreError::Locked, got {other:?}"),
        }
        // The holder releasing (or dying — the kernel does the same thing)
        // makes the store immediately openable.
        drop(foreign);
        DesignStore::open(&dir).expect("released store opens");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Set on the re-executed test binary: the store directory the child
    /// holds until it is killed.
    const HOLDER_ENV: &str = "ALPHA_SERVE_TEST_LOCK_HOLDER";

    #[test]
    fn a_killed_holder_process_releases_the_store() {
        if let Some(dir) = std::env::var_os(HOLDER_ENV) {
            // Holder mode: open, announce, then block until the parent kills
            // us (or exits, closing our stdin).
            let _store = DesignStore::open(&dir).expect("holder opens the store");
            println!("holder ready");
            use std::io::Read;
            let _ = std::io::stdin().read_to_end(&mut Vec::new());
            return;
        }
        let dir = temp_store_dir("killed_holder");
        std::fs::create_dir_all(&dir).unwrap();
        let mut child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "store::tests::a_killed_holder_process_releases_the_store",
                "--nocapture",
            ])
            .env(HOLDER_ENV, &dir)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        use std::io::BufRead;
        let ready = std::io::BufReader::new(child.stdout.take().unwrap())
            .lines()
            .any(|line| line.is_ok_and(|l| l == "holder ready"));
        assert!(ready, "the holder exited before opening the store");
        match DesignStore::open(&dir) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, child.id()),
            other => panic!("expected StoreError::Locked, got {other:?}"),
        }
        // SIGKILL: no destructor runs, only the kernel releases the lock.
        child.kill().unwrap();
        child.wait().unwrap();
        DesignStore::open(&dir).expect("a killed holder's store opens");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_process_opens_share_the_lock_and_release_it_last() {
        let dir = temp_store_dir("shared_lock");
        let first = DesignStore::open(&dir).unwrap();
        let second = DesignStore::open(&dir).expect("same-process reopen is cooperative");
        let probe = || {
            let file = std::fs::File::open(dir.join(crate::LOCK_FILE_NAME)).unwrap();
            match file.try_lock() {
                Ok(()) => {
                    file.unlock().unwrap();
                    false
                }
                Err(std::fs::TryLockError::WouldBlock) => true,
                Err(std::fs::TryLockError::Error(e)) => panic!("probe failed: {e}"),
            }
        };
        drop(first);
        assert!(probe(), "lock survives while any instance lives");
        drop(second);
        assert!(!probe(), "last drop releases the kernel lock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_lock_file_from_a_dead_process_does_not_block() {
        // A crashed daemon leaves `store.lock` behind, but its kernel lock
        // died with it — reopening must just work.
        let dir = temp_store_dir("stale_lock");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(crate::LOCK_FILE_NAME), format!("{}\n", u32::MAX)).unwrap();
        let store = DesignStore::open(&dir).expect("leftover lock file must not block opening");
        assert_eq!(
            std::fs::read_to_string(dir.join(crate::LOCK_FILE_NAME))
                .unwrap()
                .trim(),
            std::process::id().to_string()
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caches_survive_flush_and_reopen() {
        let dir = temp_store_dir("reopen");
        let store = DesignStore::open(&dir).unwrap();
        let cache = store.cache_for(42).unwrap();
        cache.record_winner(42, design(10.0));
        assert!(store.persist(42).unwrap());
        assert!(!store.persist(99).unwrap(), "untouched context");
        drop(store);

        let store = DesignStore::open(&dir).unwrap();
        let cache = store.cache_for(42).unwrap();
        assert_eq!(cache.winner(42).unwrap().gflops, 10.0);
        assert_eq!(store.stats().disk_loads, 1);
        assert_eq!(store.stats().cold_starts, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_to_disk_and_reloads() {
        let dir = temp_store_dir("lru");
        let store = DesignStore::open(&dir).unwrap().with_memory_capacity(2);
        for key in [1u64, 2, 3] {
            let cache = store.cache_for(key).unwrap();
            cache.record_winner(key, design(key as f64));
        }
        // Capacity 2: context 1 was evicted (and persisted).
        assert_eq!(store.resident_contexts(), 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store
            .root()
            .join("designs/ctx_0000000000000001.acds")
            .is_file());
        // Touching context 1 again reloads it from disk with its winner.
        let cache = store.cache_for(1).unwrap();
        assert_eq!(cache.winner(1).unwrap().gflops, 1.0);
        assert_eq!(store.stats().disk_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recency_order_protects_hot_contexts() {
        let dir = temp_store_dir("recency");
        let store = DesignStore::open(&dir).unwrap().with_memory_capacity(2);
        store.cache_for(1).unwrap();
        store.cache_for(2).unwrap();
        store.cache_for(1).unwrap(); // touch 1: now 2 is the LRU
        store.cache_for(3).unwrap(); // evicts 2, not 1
        let resident = store.resident.lock().unwrap();
        let keys: Vec<u64> = resident.caches.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn winners_unions_memory_and_disk() {
        let dir = temp_store_dir("winners");
        let store = DesignStore::open(&dir).unwrap();
        store.cache_for(7).unwrap().record_winner(7, design(7.0));
        store.flush().unwrap();
        drop(store);

        // Fresh store instance: context 7 only exists on disk, context 8
        // only in memory.
        let store = DesignStore::open(&dir).unwrap();
        store.cache_for(8).unwrap().record_winner(8, design(8.0));
        let mut winners = store.winners().unwrap();
        winners.sort_by_key(|(k, _)| *k);
        assert_eq!(winners.len(), 2);
        assert_eq!(winners[0].0, 7);
        assert_eq!(winners[1].0, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_counters_mirror_store_stats_exactly() {
        // The StoreStats wire path and the /metrics exposition must never
        // disagree: after a fixed workload touching every counter, the
        // registry and the stats snapshot hold identical values.
        let dir = temp_store_dir("registry_parity");
        let registry = alpha_telemetry::Registry::new();
        let store = DesignStore::open_with_registry(&dir, registry.clone())
            .unwrap()
            .with_memory_capacity(2);
        for key in [1u64, 2, 3] {
            store
                .cache_for(key)
                .unwrap()
                .record_winner(key, design(key as f64));
        } // 3 cold starts, 1 eviction (key 1, dirty → persisted)
        store.cache_for(3).unwrap(); // memory hit
        store.cache_for(1).unwrap(); // disk load (evicts 2)

        let stats = store.stats();
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.disk_loads, 1);
        assert_eq!(stats.cold_starts, 3);
        assert_eq!(stats.evictions, 2);

        let snapshot = registry.snapshot();
        let counter = |name: &str| snapshot.counter(name, &[]).expect(name);
        assert_eq!(
            counter("serve_store_memory_hits_total") as usize,
            stats.memory_hits
        );
        assert_eq!(
            counter("serve_store_disk_loads_total") as usize,
            stats.disk_loads
        );
        assert_eq!(
            counter("serve_store_cold_starts_total") as usize,
            stats.cold_starts
        );
        assert_eq!(
            counter("serve_store_evictions_total") as usize,
            stats.evictions
        );
        // And the exposition carries the same numbers verbatim.
        let text = registry.render_prometheus();
        assert!(text.contains("serve_store_cold_starts_total 3"));
        assert!(text.contains("serve_store_evictions_total 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_cache_files_are_reported_not_halfloaded() {
        let dir = temp_store_dir("corrupt");
        let store = DesignStore::open(&dir).unwrap();
        std::fs::write(
            store.root().join("designs/ctx_00000000000000ff.acds"),
            b"garbage",
        )
        .unwrap();
        assert!(matches!(
            store.cache_for(0xff),
            Err(StoreError::Persist(PersistError::BadMagic))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v4_context_file_is_refused_not_halfloaded() {
        let dir = temp_store_dir("acds_v4");
        let store = DesignStore::open(&dir).unwrap();
        let cache = DesignCache::new();
        cache.record_winner(0xee, design(3.0));
        // A v4 header (the layout whose evaluations carried their source), a
        // v5 one (whose graphs may hold the retired operator tag 27) and a v6
        // one (whose graphs may hold the retired lane operators, tags 25 and
        // 26).
        for version in [4u32, 5, 6] {
            let mut bytes = cache.to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let file = store.root().join("designs/ctx_00000000000000ee.acds");
            std::fs::write(&file, &bytes).unwrap();
            // Refused every time: nothing is left resident in its place, and
            // the file is not rewritten.
            for _ in 0..2 {
                let err = store.cache_for(0xee).unwrap_err();
                assert!(
                    matches!(err, StoreError::Persist(PersistError::VersionMismatch { found, expected })
                        if found == version && expected == alpha_search::CACHE_FORMAT_VERSION),
                    "{err:?}"
                );
            }
            assert_eq!(store.resident_contexts(), 0);
            assert_eq!(std::fs::read(&file).unwrap(), bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
