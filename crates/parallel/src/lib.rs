//! `alpha-parallel` — std-only data-parallel primitives: a persistent worker
//! [`Pool`] and the bounded admission queue a service puts in front of one.
//!
//! The workspace builds without a package registry, so it carries this
//! std-only stand-in for rayon.  It provides an order-preserving parallel
//! map over a slice — with the same determinism guarantee rayon's
//! `par_iter().map().collect()` gives: the output index `i` always holds
//! `f(&items[i])`, regardless of how work interleaves — and a disjoint-chunk
//! in-place runner ([`Pool::run_over_chunks`]).
//!
//! There is one way to run either: **the persistent [`Pool`]**.  Workers are
//! spawned once; a job is published to them, they take its chunks one at a
//! time from a shared list, and the submitting thread (which participates in
//! its own job) returns when every chunk has run.  Every native kernel,
//! baseline, timed candidate and paper-figure fan-out runs here; nothing
//! spawns a thread per call.
//!
//! What a fork-join costs is owned by the repo benchmark's
//! `parallel.dispatch_us` (the median no-op `T`-chunk job on the shared pool;
//! reference host, 2 vCPUs).  **Hot**, 0.8-0.9 µs: jobs arrive back to back,
//! the worker is still polling from the previous one and neither side makes
//! a syscall — against 35-39 µs for the mutex + condvar + futex round trip
//! this replaced.  **Parked**, about 6 µs (12 µs before): the submitter pays
//! one `futex` wake and never waits for the sleeper to get on a core.  See
//! "Fork-join protocol" on [`Pool`].
//!
//! Work distribution is dynamic: each executor takes the next chunk nobody
//! has taken yet and runs it outside the list's lock.  That keeps
//! long-running items (e.g. a slow candidate) from serialising behind a
//! static assignment.  Chunks and results cross threads as ordinary `&mut`
//! borrows; the only `unsafe` is the pool's lifetime erasure of the job
//! closure (`WorkPtr`).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alpha_telemetry::{Counter, Gauge, Histogram};

/// Number of worker threads to use when the caller passes `0`: one per
/// available CPU core.
///
/// Read once per process: `available_parallelism` re-reads the cgroup CPU
/// quota from cgroupfs on every call (≈ 14 µs on a 2-vCPU host, more under
/// load), and every `threads = 0` SpMV, kernel lowering and loop selection
/// asks.  A quota change after the first call is therefore not seen — just
/// as [`Pool::shared`] keeps the size it was built with.
pub fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cached handle on the process-wide `parallel_thread_spawns_total` counter —
/// the observability hook the "no spawn on the steady-state path" tests rely
/// on: snapshot the counter via `alpha_telemetry::global()`, run the hot
/// path N times, and assert it did not move.  (The counter is global, so
/// such assertions belong in single-test binaries where no unrelated test
/// spawns concurrently.)
fn spawn_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| alpha_telemetry::global().counter("parallel_thread_spawns_total", &[]))
}

/// Cached handle on the process-wide `parallel_queue_depth` gauge — additive
/// across every live [`ShardedTaskQueue`].
fn queue_depth_gauge() -> Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE
        .get_or_init(|| alpha_telemetry::global().gauge("parallel_queue_depth", &[]))
        .clone()
}

/// Splits `slice` into up to `parts` contiguous chunks of near-equal length,
/// tagged with their start offsets — the input shape
/// [`Pool::run_over_chunks`] consumes.
pub fn split_mut<T>(slice: &mut [T], parts: usize) -> Vec<(usize, &mut [T])> {
    let len = slice.len();
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let chunk_size = len.div_ceil(parts);
    let mut chunks = Vec::with_capacity(parts);
    let mut offset = 0;
    let mut rest = slice;
    while !rest.is_empty() {
        let take = chunk_size.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((offset, head));
        offset += take;
        rest = tail;
    }
    chunks
}

/// Splits `slice` at the given ascending cut positions, tagged with start
/// offsets — the unequal-length sibling of [`split_mut`].
///
/// `cuts` must start at 0, end at `slice.len()`, and be non-decreasing;
/// zero-length pieces (repeated cuts) are dropped.  This is how nnz-balanced
/// row partitioning turns its boundary list into the disjoint output chunks
/// [`Pool::run_over_chunks`] consumes.
pub fn split_mut_at<'a, T>(slice: &'a mut [T], cuts: &[usize]) -> Vec<(usize, &'a mut [T])> {
    debug_assert!(cuts.first().is_none_or(|&c| c == 0));
    debug_assert!(cuts.last().is_none_or(|&c| c == slice.len()));
    debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
    let mut chunks = Vec::with_capacity(cuts.len().saturating_sub(1));
    let mut offset = 0;
    let mut rest = slice;
    for window in cuts.windows(2) {
        let take = window[1] - window[0];
        if take == 0 {
            continue;
        }
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((offset, head));
        offset += take;
        rest = tail;
    }
    chunks
}

// ---------------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------------

thread_local! {
    /// Id of the pool whose job this thread is currently executing (0 when
    /// the thread is not running pool work).  Lets a nested submission to the
    /// same pool run inline instead of deadlocking on the submit lock.
    static EXECUTING_POOL: Cell<usize> = const { Cell::new(0) };
}

/// Restores the previous [`EXECUTING_POOL`] marker on drop, so nesting
/// between *different* pools unwinds correctly.
struct ExecutingGuard {
    previous: usize,
}

impl ExecutingGuard {
    fn enter(pool_id: usize) -> ExecutingGuard {
        let previous = EXECUTING_POOL.with(|cell| cell.replace(pool_id));
        ExecutingGuard { previous }
    }
}

impl Drop for ExecutingGuard {
    fn drop(&mut self) {
        EXECUTING_POOL.with(|cell| cell.set(self.previous));
    }
}

/// A lifetime-erased pointer to the current job's work closure.
#[derive(Clone, Copy)]
struct WorkPtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointer is only dereferenced by a worker that claimed the job
// under the pool's state lock, and the submitting stack frame — which owns
// the closure — stays in `Pool::execute` until every claimer has finished
// and no further claim is possible (the retraction rule, see `execute`).
unsafe impl Send for WorkPtr {}

impl WorkPtr {
    /// Erases the borrow's lifetime so the pointer can sit in the pool's
    /// shared state.
    ///
    /// SAFETY contract (upheld by [`Pool::execute`]): the returned pointer
    /// must not be dereferenced after `execute` returns, and `execute` must
    /// not return before every worker that claimed the job has finished
    /// running the closure.  Claims happen under the state lock and so does
    /// the retraction of unclaimed slots, so "no claim after `execute`
    /// returns" is decided under one lock.
    fn erase<'a>(work: &'a (dyn Fn() + Sync + 'a)) -> WorkPtr {
        let raw = work as *const (dyn Fn() + Sync + 'a);
        // SAFETY: only the lifetime changes (same fat-pointer layout).  The
        // pointer outlives `'a` only as a value: `execute` waits for
        // `remaining == 0` under the state lock and retracts unclaimed slots
        // there, so no dereference happens after the borrow ends.
        #[allow(clippy::missing_transmute_annotations)]
        WorkPtr(unsafe { std::mem::transmute(raw) })
    }

    /// SAFETY: see [`WorkPtr::erase`] — only valid during the owning
    /// submission.
    unsafe fn get(&self) -> &(dyn Fn() + Sync) {
        // SAFETY: the caller claimed the job under the state lock, so it is
        // counted in `remaining` and the submitting frame, which owns the
        // closure, is still inside `execute` (the check is the claim in
        // `worker_loop`; see `erase`).
        unsafe { &*self.0 }
    }
}

struct PoolState {
    /// The job currently being executed, if any.
    job: Option<WorkPtr>,
    /// Bumped once per job so late-waking workers can tell a new job from
    /// the one they already ran.
    epoch: u64,
    /// Pool workers the current job wants (dispatch cost scales with the
    /// job's parallelism, not the host's core count: a 2-chunk SpMV on a
    /// 64-core pool engages 1 worker, not 63).  Lowered to `claimed` when
    /// the submitter retracts the slots nobody picked up.
    target: usize,
    /// Pool workers that have picked the current job up so far (never
    /// exceeds `target`; late or spuriously woken workers beyond it go
    /// straight back to sleep without touching `remaining`).
    claimed: usize,
    /// Worker slots of the current job that are neither finished nor
    /// retracted; `execute` returns when it reaches 0.
    remaining: usize,
    /// Workers blocked in `work_ready.wait` — the only ones a submitter has
    /// to pay a `futex` wake for.
    sleepers: usize,
    /// The submitter is blocked in `work_done.wait`, so the worker that
    /// finishes the job has to notify it.
    submitter_parked: bool,
    /// First panic payload raised inside the current job, if any.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; workers exit when they observe it.
    shutdown: bool,
    /// When the current job was published; taken by the first worker to
    /// claim it, which observes the elapsed time as dispatch latency.
    published: Option<Instant>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes parked workers when a job is published (or shutdown begins).
    work_ready: Condvar,
    /// Wakes a parked submitter when the last worker finishes the job.
    work_done: Condvar,
    /// Serialises submissions: one job runs at a time, concurrent submitters
    /// queue here (the admission order is the OS's lock wake order).
    submit: Mutex<()>,
    /// Lock-free mirror of `state.epoch`, stored after the job is published:
    /// what a worker polls between jobs.  A hint only — every decision it
    /// prompts is re-made under `state`.
    published_epoch: AtomicU64,
    /// Epoch of the last job whose final worker has finished: what the
    /// submitter polls before it parks.  A hint only, like `published_epoch`.
    finished_epoch: AtomicU64,
    /// `parallel_dispatch_latency_us`: publish-to-first-worker-pickup.
    dispatch: Histogram,
    /// `parallel_dispatch_total{path}`: how each worker slot of each job was
    /// resolved.  `hot / (hot + woken + retracted)` is the hit rate of the
    /// spin window.
    paths: DispatchPaths,
}

/// The `parallel_dispatch_total` family, one counter per way a job's worker
/// slot can end.  Every slot ends exactly one way, so the three sum to the
/// worker slots requested.
struct DispatchPaths {
    /// Claimed by a worker that had not parked since its previous job (or
    /// since it started): no wake-up was paid for it.
    hot: Counter,
    /// Claimed by a worker that was blocked in `work_ready.wait`.
    woken: Counter,
    /// Still unclaimed when the submitter finished its own share, so taken
    /// back instead of waited for.
    retracted: Counter,
}

impl DispatchPaths {
    fn registered() -> DispatchPaths {
        let path =
            |path| alpha_telemetry::global().counter("parallel_dispatch_total", &[("path", path)]);
        DispatchPaths {
            hot: path("hot"),
            woken: path("woken"),
            retracted: path("retracted"),
        }
    }
}

/// How long an executor polls before it blocks in the kernel: a worker for
/// the next job after finishing one, the submitter for its last worker.  Also
/// the yardstick for "the caller is looping": a woken worker polls only if
/// jobs arrived less than this far apart while it slept.
///
/// Derived from the cost it avoids.  Parking a worker and waking it again is
/// a `futex` wait, a `futex` wake and a trip through the scheduler: 35 µs on
/// the reference host (`parallel.dispatch_us` of the repo benchmark, before
/// this window existed).  Spin-then-park is within 2x of the best possible
/// policy when the spin lasts as long as the park it replaces costs, and
/// callers that loop over one kernel — a solver's SpMV, `TimingHarness`
/// reps, the search's timed candidates — come back after their own share of
/// the previous job plus a few µs of bookkeeping, i.e. within one more
/// small-class chunk (about 25 µs).  35 + 25 = 60 µs covers both; a caller
/// that stays away longer pays the wake-up it would have paid anyway, and an
/// idle pool burns at most this much CPU per worker per burst.
const SPIN_WINDOW: Duration = Duration::from_micros(60);

/// Spins until `ready()` (returning true) or `deadline` (returning false).
/// The clock is read once per 32 `spin_loop` hints (about 1 µs), so the exit
/// is late by at most that.  Callers re-check their condition under the
/// state lock either way.
fn poll_until(deadline: Instant, ready: impl Fn() -> bool) -> bool {
    loop {
        for _ in 0..32 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if Instant::now() >= deadline {
            return false;
        }
    }
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

/// A persistent worker pool: threads are spawned **once** and reused for
/// every job, removing the per-call `std::thread` spawn cost (tens of
/// microseconds — more than an entire sub-100 µs SpMV) from steady-state hot
/// paths.
///
/// Jobs are **scoped**: [`Pool::parallel_map`] and [`Pool::run_over_chunks`]
/// borrow their inputs and outputs from the caller's stack and do not return
/// until every worker is done with them, so non-`'static` closures work
/// exactly as they do with `std::thread::scope`.  The submitting thread
/// participates in its own job, so a pool built with [`Pool::new`]`(n)`
/// executes with the same parallelism as `n` spawned threads while keeping
/// only `n - 1` OS threads of its own.
///
/// # Fork-join protocol
///
/// One mutex-protected state, two condvars, and three rules that keep the
/// kernel out of a steady-state fork-join:
///
/// 1. **Workers poll before they park, while the caller is looping.**  After
///    a job a worker polls a lock-free mirror of the job epoch for a bounded
///    window (60 µs) and only then blocks on the condvar; it always
///    re-checks for a job under the lock first, so a wake-up cannot be lost.
///    A worker that had to be woken polls only if jobs arrived within a
///    window of each other while it slept — a one-off request sends it
///    straight back to sleep.
/// 2. **Only sleepers are woken, and only as many as are needed.**  The
///    state counts blocked workers; a job that wants `k` workers and finds
///    `a` awake notifies `k - a` sleepers.  The submitter polls for its last
///    worker in the same bounded way, and workers notify it only if it
///    actually parked.  Back-to-back jobs therefore make no syscall.
/// 3. **The submitter never waits on a thread that has not started.**  Every
///    job drains one shared list of chunks, so when the submitter returns
///    from its own share nothing is left for a worker that has not claimed
///    yet: its slot is retracted under the lock instead of waited for.  A
///    cold call costs the serial time plus one uncontended lock.
///
/// `parallel_dispatch_total{path="hot"|"woken"|"retracted"}` counts how each
/// worker slot was resolved.
///
/// # Concurrency and failure semantics
///
/// * One job runs at a time; concurrent submitters (e.g. several daemon
///   connection threads sharing one execution pool) queue on an internal
///   lock and run back to back.
/// * A panic inside a job is caught on the worker, handed to the submitter,
///   and re-raised there **after** every worker has finished — the pool
///   itself stays usable for the next job.
/// * Submitting from inside a job of the same pool (nesting) runs the nested
///   job inline on the current thread instead of deadlocking.
/// * An idle pool is parked: polling happens only right after a job, for
///   one bounded window, and only for callers that come back within one.
/// * `Drop` publishes no new work, wakes the workers and joins them.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    id: usize,
}

impl Pool {
    /// A pool executing with `threads`-way parallelism (`0` means one per
    /// available CPU core).  `threads - 1` workers are spawned and park;
    /// the submitting thread is the final executor.  `Pool::new(1)` spawns
    /// nothing — every job runs inline.
    pub fn new(threads: usize) -> Pool {
        let threads = match threads {
            0 => default_threads(),
            threads => threads,
        };
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                target: 0,
                claimed: 0,
                remaining: 0,
                sleepers: 0,
                submitter_parked: false,
                panic: None,
                shutdown: false,
                published: None,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            submit: Mutex::new(()),
            published_epoch: AtomicU64::new(0),
            finished_epoch: AtomicU64::new(0),
            dispatch: alpha_telemetry::global().histogram("parallel_dispatch_latency_us", &[]),
            paths: DispatchPaths::registered(),
        });
        let handles = (0..threads - 1)
            .map(|worker| {
                let shared = shared.clone();
                spawn_counter().inc();
                std::thread::Builder::new()
                    .name(format!("alpha-pool-{id}-{worker}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("pool worker spawns")
            })
            .collect();
        Pool {
            shared,
            handles,
            id,
        }
    }

    /// The process-wide shared pool, sized to the host's core count and
    /// created on first use.  This is the default executor of every
    /// steady-state SpMV (`NativeKernel::run`, `TunedSpmv::run`, the native
    /// baselines) and of candidate-batch fan-out — the paths that used to
    /// spawn threads per call.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::new(0))
    }

    /// The pool's parallelism: its workers plus the submitting thread.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// OS threads this pool owns (its spawn count for the whole lifetime of
    /// the pool — reused, never re-spawned).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// True when the calling thread is already executing a job of *this*
    /// pool, in which case submissions run inline.
    fn is_reentrant(&self) -> bool {
        EXECUTING_POOL.with(|cell| cell.get() == self.id)
    }

    /// Publishes `work` to at most `worker_hint` pool workers, runs it on
    /// the calling thread too, waits for every worker that picked it up to
    /// finish, and returns the first panic payload (worker or caller), if
    /// any.
    ///
    /// `worker_hint` is the job's parallelism minus the caller: only that
    /// many workers are engaged, so small jobs pay dispatch proportional to
    /// their own size, not to the pool's.
    ///
    /// `work` must be a *drain*: every invocation takes chunks from one
    /// shared list until none are left, so once one invocation has returned
    /// normally, another one has nothing to do.  That is what lets the
    /// submitter retract unclaimed worker slots instead of waiting for them
    /// (`run_over_chunks`, which `parallel_map` runs on, is the only caller;
    /// after a panic the leftovers are abandoned with the job).
    fn execute(&self, work: &(dyn Fn() + Sync), worker_hint: usize) -> Option<Box<dyn Any + Send>> {
        let shared = &*self.shared;
        let target = worker_hint.min(self.handles.len());
        let _admission = shared.submit.lock().expect("pool submit lock poisoned");
        let (epoch, sleepers) = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            state.job = Some(WorkPtr::erase(work));
            state.epoch = state.epoch.wrapping_add(1);
            state.target = target;
            state.claimed = 0;
            state.remaining = target;
            state.panic = None;
            state.published = if target > 0 {
                Some(Instant::now())
            } else {
                None
            };
            (state.epoch, state.sleepers)
        };
        // Stored after the lock is released, so a polling worker that sees
        // it does not run into a lock the submitter still holds.  Pairs with
        // the `Acquire` load in `worker_loop`; the job itself is published
        // by the mutex.
        shared.published_epoch.store(epoch, Ordering::Release);
        // Wake only sleepers, and only those the awake workers cannot cover.
        // Lost-wakeup-safe: every worker counted as awake re-checks the
        // claim predicate under the lock before it ever sleeps, and the
        // sleepers were counted under the same lock that published the job.
        let awake = self.handles.len() - sleepers;
        let wake = target.saturating_sub(awake);
        if wake > 0 && wake == sleepers {
            shared.work_ready.notify_all();
        } else {
            for _ in 0..wake {
                shared.work_ready.notify_one();
            }
        }

        // The submitter is an executor too: mark the thread (for reentrancy
        // detection) and run the same work function the workers run.
        let caller_outcome = {
            let _executing = ExecutingGuard::enter(self.id);
            catch_unwind(AssertUnwindSafe(work))
        };

        let mut state = shared.state.lock().expect("pool state poisoned");
        // Retraction: the caller's drain has returned, so a slot no worker
        // has claimed yet has no work left to find.  Take it back rather
        // than wait for a wake-up whose only effect would be to decrement
        // `remaining`.
        //
        // SAFETY (of every `WorkPtr::get`): claims and this retraction both
        // happen under `state`.  From here on `claimed == target`, so the
        // claim predicate is false for every worker until the next job is
        // published, and `remaining` counts exactly the workers that did
        // claim and have not finished.  `execute` returns only once that is
        // 0: no worker can claim — and therefore dereference — after it.
        let unclaimed = state.target - state.claimed;
        if unclaimed > 0 {
            state.target = state.claimed;
            state.remaining -= unclaimed;
            shared.paths.retracted.add(unclaimed as u64);
        }
        if state.remaining > 0 {
            drop(state);
            // Pairs with the `Release` store of the finishing worker.
            poll_until(Instant::now() + SPIN_WINDOW, || {
                shared.finished_epoch.load(Ordering::Acquire) == epoch
            });
            state = shared.state.lock().expect("pool state poisoned");
            while state.remaining > 0 {
                state.submitter_parked = true;
                state = shared.work_done.wait(state).expect("pool state poisoned");
            }
            state.submitter_parked = false;
        }
        // Only now may the borrow behind the erased pointer end.
        state.job = None;
        let worker_panic = state.panic.take();
        drop(state);
        worker_panic.or(caller_outcome.err())
    }

    /// Order-preserving parallel map on the pool: `result[i] == f(&items[i])`
    /// with up to [`Pool::threads`] concurrent executors (and no more than
    /// there are items).  A one-thread pool, or a single item, runs inline
    /// with no pool dispatch at all.  Panics in `f` propagate to the caller;
    /// the pool survives them, and the results produced before the panic are
    /// dropped with their slots.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads() == 1 || items.len() <= 1 || self.is_reentrant() {
            return items.iter().map(&f).collect();
        }
        // One slot per item, each a chunk of its own: the executor that
        // takes chunk `i` is the only one to write `slots[i]`.
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.run_over_chunks(split_mut(&mut slots, items.len()), |index, slot| {
            slot[0] = Some(f(&items[index]));
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every item was mapped"))
            .collect()
    }

    /// Runs `f(offset, chunk)` over disjoint mutable chunks on the pool —
    /// the zero-copy in-place sibling of [`Pool::parallel_map`]: kernels that
    /// own disjoint output ranges write straight into them instead of
    /// staging results in freshly allocated buffers.  Panics propagate; the
    /// pool survives them.
    pub fn run_over_chunks<T, F>(&self, chunks: Vec<(usize, &mut [T])>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if chunks.len() <= 1 || self.is_reentrant() {
            for (offset, chunk) in chunks {
                f(offset, chunk);
            }
            return;
        }
        // One chunk runs on the caller; at most one worker per remaining
        // chunk is engaged.
        let worker_hint = chunks.len() - 1;
        // Each executor takes the next chunk under the lock and runs it
        // outside it, so every chunk runs once and the job is a drain.
        let chunks = Mutex::new(chunks.into_iter());
        let work = || loop {
            let next = chunks.lock().expect("pool chunk list poisoned").next();
            let Some((offset, chunk)) = next else {
                break;
            };
            f(offset, chunk);
        };
        if let Some(payload) = self.execute(&work, worker_hint) {
            resume_unwind(payload);
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("workers", &self.workers())
            .finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, pool_id: usize) {
    // Workers belong to exactly one pool; mark the thread permanently so a
    // nested submission from inside job code runs inline.
    EXECUTING_POOL.with(|cell| cell.set(pool_id));
    // The last job this worker has looked at (claimed or not).
    let mut seen_epoch = 0u64;
    // End of the current poll window, and whether it passed without a new
    // job showing up.  A fresh worker has no window: it parks.
    let mut hot_until = Instant::now();
    let mut window_over = true;
    loop {
        let mut state = shared.state.lock().expect("pool state poisoned");
        let mut slept = false;
        let mut caller_loops = false;
        if window_over && state.epoch == seen_epoch && !state.shutdown {
            // A whole window without a job: block.  This check and the
            // submitter's count of sleepers share the lock, so a job is
            // either visible here or its submitter sees this sleeper.
            let parked_at = Instant::now();
            state.sleepers += 1;
            state = shared.work_ready.wait(state).expect("pool state poisoned");
            state.sleepers -= 1;
            slept = true;
            // Is the caller coming back faster than a window?  Jobs published
            // during the sleep against its length say so: a solver loop wakes
            // this worker tens of microseconds after it parked (or with
            // several jobs already gone by); a request a millisecond after
            // the last one does not, and polling for its successor would
            // only burn a core some other thread could use.
            let arrivals = u32::try_from(state.epoch.wrapping_sub(seen_epoch)).unwrap_or(u32::MAX);
            caller_loops = parked_at.elapsed() < SPIN_WINDOW * arrivals;
        }
        if state.shutdown {
            return;
        }
        // A job this worker has not looked at yet, with a claim slot left?
        // (Within one job `claimed` only grows and `target` only shrinks,
        // so a job that is not claimable now never becomes so: looking once
        // is enough.  Slots are retracted and the job cleared only by the
        // submitter, under this lock.)
        let mut work = None;
        if state.epoch != seen_epoch {
            seen_epoch = state.epoch;
            if state.claimed < state.target {
                if let Some(job) = state.job {
                    work = Some(job);
                    state.claimed += 1;
                    if let Some(published) = state.published.take() {
                        shared.dispatch.observe_duration(published.elapsed());
                    }
                    if slept {
                        shared.paths.woken.inc();
                    } else {
                        shared.paths.hot.inc();
                    }
                }
            }
        }
        drop(state);
        if let Some(work) = work {
            // SAFETY: this worker claimed the job under the state lock, so
            // the submitter counts it in `remaining` and stays inside
            // `execute` — keeping the closure behind the pointer alive —
            // until the decrement below (the retraction rule only removes
            // slots nobody claimed).
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { work.get() }()));
            let mut state = shared.state.lock().expect("pool state poisoned");
            if let Err(payload) = outcome {
                if state.panic.is_none() {
                    state.panic = Some(payload);
                }
            }
            state.remaining -= 1;
            let finished = state.remaining == 0;
            let wake_submitter = finished && state.submitter_parked;
            drop(state);
            if finished {
                // Pairs with the submitter's `Acquire` poll; stored after
                // the unlock so the submitter it releases finds the lock
                // free.
                shared.finished_epoch.store(seen_epoch, Ordering::Release);
            }
            if wake_submitter {
                shared.work_done.notify_one();
            }
        }
        if slept && !caller_loops {
            // Woken for a one-off: back to sleep, unless the next job is
            // already there.
            window_over = true;
            continue;
        }
        if slept {
            // The kernel may have put this thread on its waker's core (Linux
            // does when the other cores look unavailable, e.g. halted vCPUs),
            // where polling would stall the very thread that publishes the
            // next job.  Hand the core back once; the window below starts
            // when this thread next runs, on a core of its own or after the
            // submitter has left this one.  Cold path only: a hot worker
            // never gets here.
            std::thread::yield_now();
        }
        // Poll before parking while the caller is in a loop: after a job
        // claimed without sleeping, or a wake-up that shows jobs arriving
        // within a window of each other (even one that came too late to
        // claim anything).  Merely seeing jobs go by does not extend the
        // window, so a worker that small jobs never need parks after one.
        if work.is_some() || slept {
            hot_until = Instant::now() + SPIN_WINDOW;
        }
        window_over = !poll_until(hot_until, || {
            shared.published_epoch.load(Ordering::Acquire) != seen_epoch
        });
    }
}

/// Why [`ShardedTaskQueue::try_push`] refused an item.  The item is handed back so
/// the caller can reply with backpressure (or retry) without cloning it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — admission control says reject.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

/// A bounded multi-producer / multi-consumer queue of N FIFO shards behind
/// one lock and one global admission bound — the admission primitive a
/// long-lived service puts between its event loop and a worker lane.
///
/// Producers use [`ShardedTaskQueue::try_push`], which **never blocks**: a
/// full queue returns [`PushError::Full`] immediately so the caller can shed
/// load (reply "busy") instead of stacking unbounded work.  Consumers use
/// [`ShardedTaskQueue::pop`], which blocks until an item arrives or the
/// queue is [closed](ShardedTaskQueue::close) and drained — the
/// clean-shutdown signal for a worker pool.  With one shard it is a plain
/// global FIFO (the daemon's SpMV exec lane).
///
/// Shards are about fairness, not lock contention: every push and pop takes
/// the one lock.  Items go to the shard chosen by the caller's hash key (the
/// daemon hashes the submitting tenant, so one tenant's storm lands in one
/// shard), and consumers serve the non-empty shards round-robin — a cheap
/// fairness floor on top of the explicit per-tenant admission credits.
///
/// Capacity is **global**: the admission bound spans all shards (a
/// `queue_capacity = 1` daemon rejects the second concurrent job no matter
/// which shard it hashes to).
pub struct ShardedTaskQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Number of shards, fixed at construction.
    shard_count: usize,
    /// Shared `parallel_queue_depth` gauge (additive across queues), moved
    /// under the state lock so it never reads below zero.
    depth: Gauge,
}

struct QueueState<T> {
    /// One FIFO per shard.
    shards: Vec<VecDeque<T>>,
    /// Items queued across all shards.
    len: usize,
    closed: bool,
    /// The shard the next pop looks at first: one past the shard the last
    /// pop served, so consumers take the non-empty shards in turn.
    next_scan: usize,
}

impl<T> ShardedTaskQueue<T> {
    /// A queue of `shards` shards (minimum 1) admitting at most `capacity`
    /// items at a time across all of them (minimum 1).
    pub fn bounded(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.max(1);
        ShardedTaskQueue {
            state: Mutex::new(QueueState {
                shards: (0..shard_count).map(|_| VecDeque::new()).collect(),
                len: 0,
                closed: false,
                next_scan: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            shard_count,
            depth: queue_depth_gauge(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().expect("sharded queue poisoned")
    }

    /// Number of shards the queue was built with.
    #[cfg(test)]
    fn shards(&self) -> usize {
        self.shard_count
    }

    /// The shard a hash key routes to (Fibonacci multiplicative hash, so
    /// sequential keys spread instead of clustering).
    fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shard_count
    }

    /// Enqueues `item` on the shard `key` hashes to unless the queue is full
    /// or closed; never blocks.
    pub fn try_push(&self, key: u64, item: T) -> Result<(), PushError<T>> {
        let shard = self.shard_of(key);
        {
            let mut state = self.lock();
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.len >= self.capacity {
                return Err(PushError::Full(item));
            }
            state.shards[shard].push_back(item);
            state.len += 1;
            self.depth.add(1);
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues one item, blocking while all shards are empty.  The scan
    /// starts one past the shard the previous pop served, so consumers drain
    /// the non-empty shards round-robin instead of favouring the lowest
    /// index.  Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        while state.len == 0 {
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("sharded queue poisoned");
        }
        let shard = (0..self.shard_count)
            .map(|offset| (state.next_scan + offset) % self.shard_count)
            .find(|&shard| !state.shards[shard].is_empty())
            .expect("a queued item sits in some shard");
        state.next_scan = shard + 1;
        state.len -= 1;
        self.depth.sub(1);
        state.shards[shard].pop_front()
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`], and
    /// every blocked or future [`ShardedTaskQueue::pop`] returns `None` once
    /// the remaining items are drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued across all shards (racy by nature; for stats).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global admission bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for ShardedTaskQueue<T> {
    fn drop(&mut self) {
        // Undrained items leave with the queue; keep the shared gauge honest.
        let remaining = self
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .len;
        if remaining > 0 {
            self.depth.sub(remaining as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_and_covers_every_item() {
        // Every pool size — serial, smaller and larger — and every input
        // length around it gives the same answer.
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for len in [1, 3, 257] {
                let items: Vec<usize> = (0..len).collect();
                let doubled = pool.parallel_map(&items, |&x| 2 * x);
                assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn runs_on_multiple_threads_when_asked() {
        // A map engages every executor the pool has, and no more.
        let pool = Pool::new(3);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        pool.parallel_map(&items, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak > 1, "work never overlapped");
        assert!(peak <= 3, "a 3-way pool ran {peak} executors");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = Pool::new(2).parallel_map::<u8, u8, _>(&[], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn split_mut_covers_the_slice_with_correct_offsets() {
        let mut data: Vec<usize> = vec![0; 103];
        let chunks = split_mut(&mut data, 4);
        assert_eq!(chunks.len(), 4);
        let mut expected_offset = 0;
        for (offset, chunk) in &chunks {
            assert_eq!(*offset, expected_offset);
            expected_offset += chunk.len();
        }
        assert_eq!(expected_offset, 103);
        assert!(split_mut(&mut data, 0).len() == 1);
        assert!(split_mut::<u8>(&mut [], 4).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        // The cached count is the host's count.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(default_threads(), host);
    }

    #[test]
    fn pop_blocks_until_an_item_or_close_arrives() {
        let queue = ShardedTaskQueue::bounded(1, 1);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while queue.pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            for i in 0..20 {
                // Capacity 1: spin until the workers make room.
                let mut item = i;
                loop {
                    match queue.try_push(0, item) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            item = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => unreachable!(),
                    }
                }
            }
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn sharded_queue_enforces_global_capacity_across_shards() {
        let queue = ShardedTaskQueue::bounded(2, 8);
        assert_eq!(queue.capacity(), 2);
        assert_eq!(queue.shards(), 8);
        // Keys chosen to land in different shards; the *global* bound still
        // rejects the third push.
        let (a, b) = (0u64, 1u64);
        assert_ne!(queue.shard_of(a), queue.shard_of(b));
        queue.try_push(a, 10).unwrap();
        queue.try_push(b, 20).unwrap();
        match queue.try_push(a, 30) {
            Err(PushError::Full(30)) => {}
            other => panic!("expected Full(30), got {other:?}"),
        }
        assert_eq!(queue.len(), 2);
        let mut drained = vec![queue.pop().unwrap(), queue.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 20]);
        assert!(queue.is_empty());
    }

    #[test]
    fn sharded_queue_is_fifo_within_a_shard() {
        let queue = ShardedTaskQueue::bounded(16, 4);
        for i in 0..8 {
            queue.try_push(7, i).unwrap(); // same key → same shard
        }
        for i in 0..8 {
            assert_eq!(queue.pop(), Some(i), "per-shard order must be FIFO");
        }
    }

    #[test]
    fn pops_rotate_across_shards() {
        // One consumer, one storming key and one quiet key in two of eight
        // shards: pops alternate between the shards while both hold items,
        // however unevenly they were filled — the per-tenant fairness floor
        // of the daemon's admission queue.
        let queue = ShardedTaskQueue::bounded(16, 8);
        let (storm, quiet) = (1u64, 0u64);
        assert_ne!(queue.shard_of(storm), queue.shard_of(quiet));
        for i in 0..6 {
            queue.try_push(storm, 100 + i).unwrap();
        }
        for i in 0..2 {
            queue.try_push(quiet, i).unwrap();
        }
        let popped: Vec<u32> = (0..8).map(|_| queue.pop().unwrap()).collect();
        let from_storm: Vec<bool> = popped.iter().map(|&item| item >= 100).collect();
        assert!(
            from_storm[..4].windows(2).all(|pair| pair[0] != pair[1]),
            "pops must alternate between shards while both hold items: {popped:?}"
        );
        let (storm_items, quiet_items): (Vec<u32>, Vec<u32>) =
            popped.iter().partition(|&&item| item >= 100);
        assert_eq!(
            storm_items,
            (100..106).collect::<Vec<_>>(),
            "FIFO per shard"
        );
        assert_eq!(quiet_items, [0, 1], "FIFO per shard");
        assert!(queue.is_empty());
    }

    #[test]
    fn sharded_queue_close_drains_then_signals_exit() {
        let queue = ShardedTaskQueue::bounded(4, 2);
        queue.try_push(0, 10).unwrap();
        queue.try_push(1, 11).unwrap();
        queue.close();
        match queue.try_push(2, 12) {
            Err(PushError::Closed(12)) => {}
            other => panic!("expected Closed(12), got {other:?}"),
        }
        let mut drained = vec![queue.pop().unwrap(), queue.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 11], "closing must not drop queued work");
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "pop after close stays None");
    }

    #[test]
    fn sharded_queue_single_shard_degenerates_to_task_queue() {
        let queue = ShardedTaskQueue::bounded(3, 1);
        for (key, item) in [(3u64, 1), (99, 2), (12345, 3)] {
            assert_eq!(queue.shard_of(key), 0);
            queue.try_push(key, item).unwrap();
        }
        match queue.try_push(7, 4) {
            Err(PushError::Full(4)) => {}
            other => panic!("expected Full(4), got {other:?}"),
        }
        // One shard → global FIFO regardless of key, and a popped item frees
        // its slot.
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(7, 4).unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), Some(4));
        assert!(queue.is_empty());
    }

    #[test]
    fn sharded_queue_survives_concurrent_producers_and_consumers() {
        let queue = ShardedTaskQueue::bounded(4, 8);
        let consumed = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        let queue = &queue;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(item) = queue.pop() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                        sum.fetch_add(item, Ordering::SeqCst);
                    }
                });
            }
            let producers: Vec<_> = (0..4u64)
                .map(|producer| {
                    scope.spawn(move || {
                        for i in 0..50usize {
                            let mut item = i;
                            loop {
                                match queue.try_push(producer.wrapping_mul(31) + i as u64, item) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => unreachable!(),
                                }
                            }
                        }
                    })
                })
                .collect();
            for handle in producers {
                handle.join().unwrap();
            }
            // Close only after every producer finished, so the blocked
            // consumers drain the remainder and exit; the scope then joins
            // them without deadlocking.
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 200);
        assert_eq!(sum.load(Ordering::SeqCst), 4 * (0..50).sum::<usize>());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let queue = ShardedTaskQueue::bounded(0, 0);
        assert_eq!((queue.capacity(), queue.shards()), (1, 1));
        queue.try_push(0, 1).unwrap();
        assert!(matches!(queue.try_push(0, 2), Err(PushError::Full(2))));
    }

    #[test]
    fn split_mut_at_honours_uneven_cuts_and_skips_empties() {
        let mut data: Vec<usize> = (0..10).collect();
        let chunks = split_mut_at(&mut data, &[0, 3, 3, 4, 10]);
        let shapes: Vec<(usize, usize)> = chunks.iter().map(|(o, c)| (*o, c.len())).collect();
        assert_eq!(shapes, vec![(0, 3), (3, 1), (4, 6)]);
        for (offset, chunk) in &chunks {
            for (i, v) in chunk.iter().enumerate() {
                assert_eq!(*v, offset + i);
            }
        }
        assert!(split_mut_at::<u8>(&mut [], &[0]).is_empty());
        assert!(split_mut_at::<u8>(&mut [], &[]).is_empty());
    }

    #[test]
    fn pool_map_preserves_order_and_matches_serial() {
        let items: Vec<usize> = (0..513).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            assert_eq!(pool.threads(), threads);
            assert_eq!(pool.workers(), threads - 1);
            for _ in 0..3 {
                assert_eq!(pool.parallel_map(&items, |&x| x * x), expected);
            }
        }
    }

    #[test]
    fn pool_actually_runs_work_concurrently() {
        let pool = Pool::new(4);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        pool.parallel_map(&items, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "work never overlapped");
    }

    #[test]
    fn small_jobs_engage_only_as_many_executors_as_they_have_chunks() {
        // A 2-chunk job on an 8-way pool must run with at most 2 concurrent
        // executors (1 worker + the caller) — dispatch scales with the job,
        // not with the pool.
        let pool = Pool::new(8);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut data = vec![0usize; 64];
        for _ in 0..10 {
            pool.run_over_chunks(split_mut(&mut data, 2), |_, chunk| {
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(500));
                concurrent.fetch_sub(1, Ordering::SeqCst);
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            });
        }
        assert!(data.iter().all(|&v| v == 10));
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "2-chunk jobs must engage at most 2 executors, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pool_run_over_chunks_writes_in_place() {
        let pool = Pool::new(3);
        let mut data: Vec<usize> = vec![0; 257];
        for parts in [1, 2, 5] {
            data.fill(0);
            pool.run_over_chunks(split_mut(&mut data, parts), |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i));
        }
    }

    #[test]
    fn pool_propagates_panics_and_survives_them() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |&x| {
                if x == 17 {
                    panic!("candidate 17 exploded");
                }
                // Results produced before/around the panic are dropped, not
                // leaked (exercised by returning an owned allocation).
                vec![x; 3]
            })
        }));
        let payload = result.expect_err("panic must propagate to the submitter");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("formatted panic");
        assert!(message.contains("exploded") || message == "formatted panic");

        // Drop-after-panic: the pool keeps working and still shuts down
        // cleanly when it goes out of scope at the end of this test.
        let doubled = pool.parallel_map(&items, |&x| 2 * x);
        assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn pool_handles_concurrent_submissions() {
        // The daemon shape: many OS threads share one execution pool.
        let pool = Pool::new(4);
        let items_per_client: Vec<Vec<usize>> =
            (0..6).map(|c| (c * 100..c * 100 + 97).collect()).collect();
        std::thread::scope(|scope| {
            for items in &items_per_client {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..5 {
                        let out = pool.parallel_map(items, |&x| x + 1);
                        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn nested_submission_to_the_same_pool_runs_inline() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..16).collect();
        let results = pool.parallel_map(&outer, |&o| {
            // A nested map on the same pool must not deadlock; it degrades
            // to inline execution on this executor thread.
            let nested = pool.parallel_map(&inner, |&i| i * 10);
            nested.iter().sum::<usize>() + o
        });
        let nested_sum: usize = inner.iter().map(|i| i * 10).sum();
        assert_eq!(
            results,
            outer.iter().map(|o| nested_sum + o).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drop_while_idle_joins_cleanly() {
        let pool = Pool::new(3);
        let _ = pool.parallel_map(&[1, 2, 3], |&x| x);
        drop(pool); // Must not hang or panic.
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = Pool::shared() as *const Pool;
        let b = Pool::shared() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::shared().threads() >= 1);
    }

    /// The states the spin-then-park protocol adds: workers hot, mid-poll
    /// and parked; slots retracted; the submitter polling or parked.
    mod pool_states {
        use super::*;
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};

        /// Blocks until every worker of `pool` is parked in `work_ready`.
        fn wait_until_parked(pool: &Pool) {
            while pool.shared.state.lock().unwrap().sleepers < pool.workers() {
                std::thread::yield_now();
            }
        }

        fn dispatch_count(path: &str) -> u64 {
            alpha_telemetry::global()
                .counter("parallel_dispatch_total", &[("path", path)])
                .get()
        }

        #[test]
        fn schedule_stress_runs_every_chunk_once_and_never_outlives_the_job() {
            const POISON: u32 = 0xDEAD_BEEF;
            let pool = Pool::new(4);
            std::thread::scope(|scope| {
                for submitter in 0..4u64 {
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (submitter + 1);
                        let mut next = |bound: u64| {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng % bound
                        };
                        // One stack array for every job of this submitter:
                        // poisoned between jobs, so a worker that touched a
                        // job after `execute` returned would leave a mark
                        // the next check finds.
                        let mut cells = [POISON; 8];
                        for job in 0..2_000 {
                            assert!(
                                cells.iter().all(|&c| c == POISON),
                                "job {job}: a chunk was written after its job returned: {cells:x?}"
                            );
                            let chunks = 1 + next(8) as usize;
                            cells[..chunks].fill(0);
                            pool.run_over_chunks(
                                split_mut(&mut cells[..chunks], chunks),
                                |_, chunk| {
                                    chunk[0] += 1;
                                },
                            );
                            assert!(
                                cells[..chunks].iter().all(|&c| c == 1),
                                "job {job}: every chunk must run exactly once: {cells:x?}"
                            );
                            cells.fill(POISON);
                            // Gaps on both sides of the spin window catch the
                            // workers hot, mid-poll and parked.
                            let gap = Duration::from_micros(next(200));
                            if gap < Duration::from_micros(40) {
                                let start = Instant::now();
                                while start.elapsed() < gap {
                                    std::hint::spin_loop();
                                }
                            } else {
                                std::thread::sleep(gap);
                            }
                        }
                    });
                }
            });
        }

        #[test]
        fn retraction_returns_without_waking_anyone() {
            // A no-op job on parked workers: the caller drains both chunks
            // long before a woken worker could get on a core, so the worker
            // slot is retracted and the call costs the serial time plus a
            // lock — not a futex round trip.
            let pool = Pool::new(2);
            let rounds = 50;
            let retracted_before = dispatch_count("retracted");
            let mut retracted = 0;
            let mut micros = Vec::with_capacity(rounds);
            let mut cells = [0u8; 2];
            for _ in 0..rounds {
                wait_until_parked(&pool);
                let start = Instant::now();
                pool.run_over_chunks(split_mut(&mut cells, 2), |_, chunk| chunk[0] += 1);
                micros.push(start.elapsed().as_micros());
                // After a job `target` is what was claimed: 0 of the 1 slot.
                retracted += usize::from(pool.shared.state.lock().unwrap().target == 0);
            }
            assert_eq!(cells, [rounds as u8; 2]);
            assert!(
                retracted * 2 > rounds,
                "only {retracted} of {rounds} cold no-op jobs were retracted"
            );
            assert!(dispatch_count("retracted") - retracted_before >= retracted as u64);
            // The parked path at the parent commit waited for the worker
            // (about 35 µs per call, every call); the median retracted call is
            // a notify and two locks.
            micros.sort_unstable();
            assert!(
                micros[rounds / 2] < 30,
                "median cold dispatch took {} µs",
                micros[rounds / 2]
            );
        }

        #[test]
        fn panic_on_a_worker_while_others_poll_reaches_the_submitter() {
            let pool = Pool::new(4);
            // Get every worker out of its initial park and into a poll.
            let items: Vec<usize> = (0..64).collect();
            pool.parallel_map(&items, |&x| x);
            let submitter = std::thread::current().id();
            let worker_arrived = AtomicBool::new(false);
            let mut cells = [0u8; 2];
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run_over_chunks(split_mut(&mut cells, 2), |_, _| {
                    if std::thread::current().id() == submitter {
                        // Hold the caller's chunk until a worker has taken
                        // the other one, so the panic is the worker's.
                        while !worker_arrived.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else {
                        worker_arrived.store(true, Ordering::SeqCst);
                        panic!("worker chunk exploded");
                    }
                })
            }));
            let payload = result.expect_err("the worker's panic must reach the submitter");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"worker chunk exploded")
            );
            assert_eq!(pool.parallel_map(&items, |&x| x + 1)[63], 64);
        }

        #[test]
        fn drop_while_workers_are_polling_joins_promptly() {
            let pool = Pool::new(4);
            let items: Vec<usize> = (0..64).collect();
            pool.parallel_map(&items, |&x| x);
            let start = Instant::now();
            drop(pool);
            assert!(
                start.elapsed() < Duration::from_millis(250),
                "joining polling workers took {:?}",
                start.elapsed()
            );
        }
    }
}
