//! Pool reuse property: once a pool exists, running jobs through it spawns
//! **zero** additional OS threads — the whole point of amortising dispatch
//! out of the hot path.
//!
//! This lives in its own integration binary with a single `#[test]` because
//! `parallel_thread_spawns_total` is a process-global counter: any
//! concurrently running test that spawns would make the assertion racy.

use alpha_parallel::{split_mut, Pool};

/// The spawn counter now lives in the process-wide telemetry registry
/// (the old `thread_spawns()` free function is gone; this is the counter).
fn thread_spawns() -> u64 {
    alpha_telemetry::global()
        .counter("parallel_thread_spawns_total", &[])
        .get()
}

#[test]
fn pool_spawns_exactly_once_then_reuses_workers_forever() {
    let before_pool = thread_spawns();
    let pool = Pool::new(4);
    assert_eq!(pool.workers(), 3, "n-way pool parks n-1 workers");
    assert_eq!(
        thread_spawns() - before_pool,
        3,
        "construction spawns the workers"
    );

    let items: Vec<usize> = (0..4096).collect();
    let expected: Vec<usize> = items.iter().map(|x| x * 7).collect();
    let steady_state = thread_spawns();
    for _ in 0..200 {
        assert_eq!(pool.parallel_map(&items, |&x| x * 7), expected);
    }
    let mut data = vec![0usize; 4096];
    for _ in 0..200 {
        pool.run_over_chunks(split_mut(&mut data, 4), |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
    }
    assert_eq!(
        thread_spawns(),
        steady_state,
        "steady-state pool jobs must not spawn threads"
    );
}
