//! Every size and operation count of the benchmark, in one file, so the
//! whole benchmark can be rescaled to a time cap without dropping a workload.
//!
//! Load is a fixed number of operations, never a fixed duration: the daemon's
//! warm-tune latency and RSS depend on how many jobs it has finished, so a
//! time-boxed run would measure a different program state each time.  The
//! driver's `--seconds` therefore scales the *counts* ([`Counts::scaled`]):
//! the same `--seconds` always runs the same operations, and at
//! [`REFERENCE_SECONDS`] the timed phase takes about that long on the 2-core
//! host the counts were sized on.
//!
//! Every run executes all four subjects (cold tune, local SpMV, warm serving,
//! mixed serving) because every run has to report every metric; a workload is
//! a *mix*: its own subject runs at the heavy count, the other three at the
//! light count.
//!
//! The timed phase is [`ROUNDS`] interleaved rounds, each holding an equal
//! share of every subject's operations, so that host drift hits every subject
//! equally (what drift is left after `speed.rs` has normalised it away).

use std::time::Duration;

/// The `--seconds` value the counts below were sized for (`run_seconds` in
/// `BENCHMARK.json`).
pub const REFERENCE_SECONDS: u64 = 15;

/// Interleaved rounds of the timed phase.
pub const ROUNDS: usize = 16;

/// How many of `total` operations fall into round `round` of [`ROUNDS`], and
/// how many fell into the rounds before it: an even, deterministic split.
pub fn share(total: usize, round: usize) -> (usize, usize) {
    let before = total * round / ROUNDS;
    (total * (round + 1) / ROUNDS - before, before)
}

/// Kernel threads are `min(nproc, MAX_KERNEL_THREADS)`.
pub const MAX_KERNEL_THREADS: usize = 4;
/// Closed-loop client connections of `serve_warm` are
/// `min(nproc, MAX_CONNECTIONS)`.
pub const MAX_CONNECTIONS: usize = 2;

/// A result differing from `CsrMatrix::spmv` by more than this
/// (`max_scaled_error`) is a failed operation.
pub const ERROR_TOLERANCE: f32 = 1e-3;
/// A native baseline whose padded footprint exceeds this multiple of the CSR
/// footprint is skipped (ELL on a power-law matrix).
pub const BASELINE_FOOTPRINT_LIMIT: f64 = 4.0;

/// Device every tune targets (`SearchConfig::default().device`).
pub const DEVICE: &str = "A100";
/// `wait_job` poll interval.
pub const JOB_POLL: Duration = Duration::from_micros(200);
/// Deadline of one remote operation; exceeding it is a failed operation.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);
/// Pause before retrying a `Busy` answer that carries no hint.
pub const BUSY_BACKOFF: Duration = Duration::from_millis(1);

/// Seed offsets: matrix `i` of a fleet is generated from
/// `seed + <offset> + i`, so the fleets of one run never share a matrix.
pub const COLD_SEED_OFFSET: u64 = 0;
pub const LARGE_SEED_OFFSET: u64 = 100;
pub const SMALL_SEED_OFFSET: u64 = 200;
pub const WARM_SEED_OFFSET: u64 = 300;
pub const MIXED_RESIDENT_SEED_OFFSET: u64 = 400;
pub const MIXED_WRITER_SEED_OFFSET: u64 = 500;

/// Triad arrays are this multiple of the reported last-level cache, unless
/// three of them do not fit in [`TRIAD_MEMORY_SHARE`] of the available memory.
pub const TRIAD_LLC_MULTIPLE: usize = 4;
pub const TRIAD_MEMORY_SHARE: f64 = 0.25;
pub const TRIAD_PASSES: usize = 3;

/// What the host-speed probe (`speed.rs`) reads, in microseconds, on the host
/// the benchmark was sized on when it is quiet: timings are reported as
/// measured x this / the probe's reading at the time.  On another host, take
/// the lower quartile of the readings a run prints.
pub const SPEED_REFERENCE_US: f64 = 800.0;

/// Spans recorded to price one span of the benchmark's own recorder.
pub const SPAN_CALIBRATION_SPANS: usize = 200_000;

/// The four workloads.  The names are fixed; later issues refer to them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TuneCold,
    SpmvLocal,
    ServeWarm,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TuneCold,
        Workload::SpmvLocal,
        Workload::ServeWarm,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneCold => "tune_cold",
            Workload::SpmvLocal => "spmv_local",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Matrix shapes and search budgets.  Identical for every workload, so a
/// metric means the same thing whichever mix measured it.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Cold-tune fleet: one matrix per pattern family.
    pub cold_rows: usize,
    pub cold_row_len: usize,
    /// `SearchConfig::max_iterations` / `mutations_per_seed` of a cold native
    /// tune.
    pub cold_budget: usize,
    pub cold_mutations: usize,
    /// Large local-SpMV class (uniform, powerlaw, banded): the kernel loop
    /// dominates a call and the format streams from beyond L2.
    pub large_rows: usize,
    pub large_row_len: usize,
    pub large_budget: usize,
    /// Small local-SpMV class (all five families): L2-resident, so dispatch
    /// and per-run telemetry dominate a call.
    pub small_rows: usize,
    pub small_row_len: usize,
    pub small_budget: usize,
    /// Matrices the daemon serves (both serving subjects).
    pub serve_rows: usize,
    pub serve_row_len: usize,
    pub serve_budget: usize,
    pub serve_mutations: usize,
    /// Store-resident fleet of `serve_warm`.
    pub warm_fleet: usize,
    /// Jobs the `serve_mixed` reader runs SpMV over.
    pub mixed_resident: usize,
    /// Cap on one triad array in bytes.  The rule is four times the reported
    /// LLC, but this host reports the whole socket's 260 MiB L3 to a 2-vCPU
    /// microVM whose memory is backed on first touch: faulting in three 1 GiB
    /// arrays takes 13-24 s, more than the rest of the run.  Three capped
    /// arrays still exceed the L3 together; the run prints both sizes.
    pub triad_cap_bytes: usize,
    /// Calls per replay probe (preset kernels, 1-thread twins, codecs, store
    /// calls) in the traced run.
    pub probe_calls: usize,
    /// Calls per twin of the telemetry-overhead A/B (small class, 1 thread).
    pub telemetry_calls: usize,
    /// No-op pool dispatches timed for `parallel.dispatch_us`.
    pub dispatch_calls: usize,
}

/// The sizes every reported number uses.  Scaled from the issue's 65 536-,
/// 524 288- and 16 384-row fleets so that 4 + 22 x 4 runs fit the driver's
/// 3420 s cap; raise them here to measure a DRAM-bound large class.
pub const FULL: Sizes = Sizes {
    cold_rows: 16_384,
    cold_row_len: 16,
    cold_budget: 80,
    cold_mutations: 2,
    large_rows: 65_536,
    large_row_len: 16,
    large_budget: 20,
    small_rows: 8_192,
    small_row_len: 8,
    small_budget: 40,
    serve_rows: 16_384,
    serve_row_len: 16,
    serve_budget: 30,
    serve_mutations: 3,
    warm_fleet: 8,
    mixed_resident: 4,
    triad_cap_bytes: 256 << 20,
    probe_calls: 20,
    telemetry_calls: 2_000,
    dispatch_calls: 2_000,
};

/// Tiny sizes for the `cargo test` smoke run: every code path, no meaningful
/// number.
pub const SMOKE: Sizes = Sizes {
    cold_rows: 256,
    cold_row_len: 4,
    cold_budget: 6,
    cold_mutations: 1,
    large_rows: 1_024,
    large_row_len: 4,
    large_budget: 4,
    small_rows: 128,
    small_row_len: 4,
    small_budget: 4,
    serve_rows: 256,
    serve_row_len: 4,
    serve_budget: 4,
    serve_mutations: 1,
    warm_fleet: 2,
    mixed_resident: 2,
    triad_cap_bytes: 1 << 20,
    probe_calls: 2,
    telemetry_calls: 8,
    dispatch_calls: 8,
};

/// Operation counts of one run: totals over the timed phase, split evenly
/// over its rounds by [`share`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Cold tunes, cycling over the fleet (pass after pass), each with a
    /// fresh tuner.
    pub cold_tunes: usize,
    /// Timed `run_into` calls on each cold-tune winner.
    pub winner_calls: usize,
    /// Timed calls of each large-class subject (the generated kernel and every
    /// baseline get the same number in the same round).
    pub large_calls: usize,
    /// Timed calls of each small-class kernel.
    pub small_calls: usize,
    /// Per connection: iterations of [1 warm tune, `warm_spmv` remote SpMVs].
    pub warm_iterations: usize,
    pub warm_spmv: usize,
    /// Cold tunes the `serve_mixed` writer submits, and the reader's idle
    /// baseline calls (taken while the writer is not running).
    pub mixed_tunes: usize,
    pub mixed_idle_calls: usize,
}

/// Light counts: what every run spends on the three subjects that are not
/// its workload's own.  Sized so each percentile the benchmark reports still
/// has ten samples beyond it (20 warm tunes for the median, 1280 remote SpMVs
/// for a p99), and so that the process stays below the resident size at which
/// this host starts to charge for memory (see [`Counts::of`]).
const LIGHT: Counts = Counts {
    cold_tunes: 5,
    winner_calls: 200,
    large_calls: 48,
    small_calls: 2_000,
    warm_iterations: 10,
    warm_spmv: 64,
    mixed_tunes: 8,
    mixed_idle_calls: 800,
};

/// Counts of the `cargo test` smoke run.
pub const SMOKE_COUNTS: Counts = Counts {
    cold_tunes: 5,
    winner_calls: 4,
    large_calls: 16,
    small_calls: 16,
    warm_iterations: 2,
    warm_spmv: 4,
    mixed_tunes: 2,
    mixed_idle_calls: 16,
};

impl Counts {
    /// The mix of one workload at [`REFERENCE_SECONDS`]: [`LIGHT`] with the
    /// workload's own subject raised to its heavy count.
    ///
    /// The serving counts are bounded by memory, not time.  The daemon keeps
    /// about 8.5 MB per finished job, and on this microVM the first touch of a
    /// page costs 0.5 ms per MB for the first 0.8-1 GB a process touches and
    /// 6 ms per MB beyond (the host backs guest memory lazily): past that
    /// point a warm tune reads 80 ms instead of 35.  Every mix keeps the whole
    /// process under 800 MB, so that no run is measured half in one regime
    /// and half in the other.
    pub fn of(workload: Workload) -> Counts {
        match workload {
            Workload::TuneCold => Counts {
                cold_tunes: 15,
                ..LIGHT
            },
            Workload::SpmvLocal => Counts {
                large_calls: 160,
                small_calls: 8_000,
                ..LIGHT
            },
            Workload::ServeWarm => Counts {
                warm_iterations: 16,
                warm_spmv: 192,
                ..LIGHT
            },
            Workload::ServeMixed => Counts {
                mixed_tunes: 20,
                mixed_idle_calls: 2_000,
                ..LIGHT
            },
        }
    }

    /// Scales the totals from [`REFERENCE_SECONDS`] to `seconds`, never below
    /// one.  Calls per cold-tune winner and SpMVs per warm iteration keep
    /// their value: they shape an operation, not how many run.
    pub fn scaled(self, seconds: u64) -> Counts {
        let scale = |n: usize| {
            ((n as u64 * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS).max(1) as usize
        };
        Counts {
            cold_tunes: scale(self.cold_tunes),
            large_calls: scale(self.large_calls),
            small_calls: scale(self.small_calls),
            warm_iterations: scale(self.warm_iterations),
            mixed_tunes: scale(self.mixed_tunes),
            mixed_idle_calls: scale(self.mixed_idle_calls),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MIN_BEYOND;

    #[test]
    fn reference_seconds_leaves_counts_unchanged() {
        for workload in Workload::ALL {
            let counts = Counts::of(workload);
            assert_eq!(counts.scaled(REFERENCE_SECONDS), counts);
        }
    }

    #[test]
    fn scaling_is_monotone_and_never_zero() {
        let counts = Counts::of(Workload::ServeWarm);
        assert_eq!(counts.scaled(1).warm_iterations, 1);
        assert_eq!(counts.scaled(30).warm_iterations, 32);
        assert_eq!(counts.scaled(1).mixed_tunes, 1);
        assert_eq!(counts.scaled(30).warm_spmv, counts.warm_spmv);
    }

    #[test]
    fn rounds_share_every_operation_exactly_once() {
        for total in [0, 1, 5, 12, 48, 2_000] {
            let shares: Vec<_> = (0..ROUNDS).map(|round| share(total, round)).collect();
            assert_eq!(shares.iter().map(|s| s.0).sum::<usize>(), total);
            for (round, (count, before)) in shares.iter().enumerate() {
                assert_eq!(*before, shares[..round].iter().map(|s| s.0).sum::<usize>());
                assert!(*count <= total.div_ceil(ROUNDS));
            }
        }
    }

    #[test]
    fn every_mix_supports_the_reported_percentiles() {
        for workload in Workload::ALL {
            let counts = Counts::of(workload);
            let remote = MAX_CONNECTIONS * counts.warm_iterations * counts.warm_spmv;
            assert!(
                remote / 100 >= MIN_BEYOND,
                "{workload:?}: p99 of remote SpMV"
            );
            assert!(counts.mixed_idle_calls / 2 >= MIN_BEYOND);
            assert!(MAX_CONNECTIONS * counts.warm_iterations / 2 >= MIN_BEYOND);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
