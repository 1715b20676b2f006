//! Polling is bounded: a burst of back-to-back jobs gets the workers out of
//! their park and into the poll window, and once the burst is over every
//! live pool is parked in the kernel again.
//!
//! This lives in its own integration binary with a single `#[test]` because
//! both measurements are process-global — the `parallel_dispatch_total`
//! counters and the CPU time of the whole process.

use alpha_parallel::{split_mut, Pool};
use std::time::{Duration, Instant};

fn dispatch_count(path: &str) -> u64 {
    alpha_telemetry::global()
        .counter("parallel_dispatch_total", &[("path", path)])
        .get()
}

/// User + system CPU time of this process in clock ticks (fields 14 and 15
/// of `/proc/self/stat`, counted after the parenthesised command name).
#[cfg(target_os = "linux")]
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after_name = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |field: usize| fields[field - 3].parse::<u64>().expect("tick count");
    ticks(14) + ticks(15)
}

#[test]
fn an_idle_pool_burns_no_cpu() {
    let pools = [Pool::new(2), Pool::new(2), Pool::new(2)];
    let jobs = 300;

    // The burst: two-chunk jobs a few microseconds apart, each of which
    // either finds its worker polling or wakes it into a poll window.  (How
    // many find it polling is the scheduler's call — a worker that shares
    // the submitter's core cannot be both running and useful — so the hit
    // rate is the benchmark's to measure, not this test's to assert.)
    let resolved = || ["hot", "woken", "retracted"].map(dispatch_count);
    let before = resolved();
    let mut cells = [0u32; 2];
    for pool in &pools {
        for _ in 0..jobs {
            pool.run_over_chunks(split_mut(&mut cells, 2), |_, chunk| {
                chunk[0] += 1;
                // Long enough for a polling worker to take the other chunk.
                let start = Instant::now();
                while start.elapsed() < Duration::from_micros(5) {
                    std::hint::spin_loop();
                }
            });
        }
    }
    assert_eq!(cells, [3 * jobs; 2]);
    let after = resolved();
    let [hot, woken, retracted] = [0, 1, 2].map(|path| after[path] - before[path]);
    assert_eq!(
        hot + woken + retracted,
        3 * u64::from(jobs),
        "every job's worker slot ends exactly one way"
    );
    // The idleness: every worker's window ran out long ago.
    #[cfg(target_os = "linux")]
    {
        // 100 ticks per second on every Linux this runs on (USER_HZ).
        let ticks_before = process_cpu_ticks();
        std::thread::sleep(Duration::from_millis(300));
        let burned_ms = (process_cpu_ticks() - ticks_before) * 10;
        assert!(
            burned_ms < 20,
            "three idle pools burned {burned_ms} ms of CPU in 300 ms"
        );
    }
}
