//! Steady-state wall-clock measurement: warmup + min-of-N, in one race.
//!
//! One execution of a small kernel is dominated by cold caches and scheduler
//! noise.  The harness therefore discards `warmup` executions, times `runs`
//! more, and reports the **minimum** — the standard steady-state estimator
//! for short kernels (the median, mean and maximum ride along for
//! dispersion).  Every reading that ranks something on the host comes out
//! of one loop, [`TimingHarness::race`]: a measurement is a race of one, loop
//! selection races a partition's loops, and `reproduce host` races winners
//! and presets.  The same harness times generated kernels and the
//! `alpha-baselines` native kernels, so "generated vs CSR/ELL/HYB/merge"
//! comparisons are apples-to-apples.

use crate::kernel::NativeKernel;
use alpha_codegen::EvaluatorId;
use alpha_matrix::Scalar;
use std::time::Instant;

/// Warmup + min-of-N wall-clock timing parameters.
///
/// The parameters are part of a measurement's *identity*: they are folded
/// into evaluation cache keys and recorded in persisted winners via
/// [`EvaluatorId::Native`], because a min-of-50 number is a different
/// experiment than a min-of-3 one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingHarness {
    /// Executions discarded before timing starts.
    pub warmup: u32,
    /// Timed executions (at least 1 is always performed).
    pub runs: u32,
}

impl Default for TimingHarness {
    fn default() -> Self {
        TimingHarness { warmup: 2, runs: 5 }
    }
}

impl TimingHarness {
    /// A minimal harness (no warmup, single run) for tests and tiny search
    /// budgets where per-candidate cost matters more than timing fidelity.
    pub fn quick() -> Self {
        TimingHarness { warmup: 0, runs: 1 }
    }

    /// The durable identity of measurements taken with these parameters.
    pub fn evaluator_id(self) -> EvaluatorId {
        EvaluatorId::Native {
            warmup: self.warmup,
            runs: self.runs.max(1),
        }
    }

    /// Times `f` (one call = one kernel execution) and summarises the runs:
    /// a [race](TimingHarness::race) of one, with nothing to set up.
    /// `useful_flops` and `threads` are echoed into the report.
    pub fn measure(self, useful_flops: u64, threads: usize, mut f: impl FnMut()) -> MeasuredReport {
        let mut reports = self.race(&mut f, &[(useful_flops, threads)], |_, _| {}, |f, _| f());
        reports.pop().expect("a race of one reports once")
    }

    /// The one timing loop: races the contestants `0..echo.len()` on a shared
    /// `field` (a kernel's output buffer, a partition whose loop each
    /// contestant binds).  `warmup` rounds, then `runs` (at least 1) timed
    /// rounds; each round runs contestant 0, 1, …, n−1 in turn, so a
    /// disturbance of the host (this is wall-clock time on a shared machine)
    /// spoils one round of everyone rather than every run of one contestant.
    /// `setup(field, i)` prepares contestant `i` right before each of its
    /// runs and stays outside the clock; only `run(field, i)` is clocked.
    ///
    /// Returns one report per contestant, in order; `echo[i]` is contestant
    /// `i`'s `(useful flops, threads)`, echoed into its report.
    pub fn race<S: ?Sized>(
        self,
        field: &mut S,
        echo: &[(u64, usize)],
        mut setup: impl FnMut(&mut S, usize),
        mut run: impl FnMut(&mut S, usize),
    ) -> Vec<MeasuredReport> {
        let warmup = self.warmup as usize;
        let runs = self.runs.max(1) as usize;
        let mut samples_us = vec![Vec::with_capacity(runs); echo.len()];
        for round in 0..warmup + runs {
            for (contestant, samples) in samples_us.iter_mut().enumerate() {
                setup(field, contestant);
                let start = Instant::now();
                run(field, contestant);
                let us = start.elapsed().as_secs_f64() * 1e6;
                if round >= warmup {
                    samples.push(us);
                }
            }
        }
        samples_us
            .into_iter()
            .zip(echo)
            .map(|(samples, &(flops, threads))| {
                MeasuredReport::from_samples(samples, self.warmup, flops, threads)
            })
            .collect()
    }

    /// Times a lowered kernel end to end on the process-wide persistent
    /// pool: the output buffer is preallocated and reused across every
    /// warmup and timed rep, and no rep spawns a thread.  Reps run back to
    /// back, so from the second one on the pool's workers are still polling
    /// and a rep pays the hot fork-join (about 1 µs), not a wake-up — the
    /// measurement is allocation-free and what it times is the steady state
    /// of a caller that loops.  The first execution also validates the input
    /// dimensions.
    pub fn measure_kernel(
        self,
        kernel: &NativeKernel,
        x: &[Scalar],
        threads: usize,
    ) -> Result<MeasuredReport, String> {
        let mut y = vec![0.0; kernel.rows()];
        kernel.run_into(x, &mut y, threads)?;
        let workers = kernel.workers_for(threads);
        Ok(self.measure(kernel.useful_flops(), workers, || {
            kernel
                .run_into(x, &mut y, threads)
                .expect("validated above");
        }))
    }
}

/// The outcome of one steady-state measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredReport {
    /// Fastest timed execution in microseconds — the steady-state estimate
    /// every derived figure uses.
    pub min_us: f64,
    /// Mean of the timed executions in microseconds.
    pub mean_us: f64,
    /// Median of the timed executions in microseconds — with
    /// [`MeasuredReport::stddev_us`], the sample-spread view beside the
    /// min-of-N estimate.
    pub median_us: f64,
    /// Slowest timed execution in microseconds.
    pub max_us: f64,
    /// Population standard deviation of the timed executions in
    /// microseconds (0 when only one run was timed).
    pub stddev_us: f64,
    /// Warmup executions that were discarded.
    pub warmup: u32,
    /// Timed executions.
    pub runs: u32,
    /// Useful floating-point operations per execution (`2 * nnz`).
    pub useful_flops: u64,
    /// Worker threads the kernel ran with (resolved, never 0).
    pub threads: usize,
    /// Measured throughput in GFLOP/s, from the minimum time.
    pub gflops: f64,
}

impl MeasuredReport {
    /// Summarises timed executions (`samples_us`, at least one, in
    /// microseconds, any order) taken after `warmup` discarded ones.
    /// `useful_flops` and `threads` are echoed into the report.  A pure
    /// function of its arguments: [`TimingHarness::race`] reads the clock,
    /// this does the arithmetic.
    pub fn from_samples(
        mut samples_us: Vec<f64>,
        warmup: u32,
        useful_flops: u64,
        threads: usize,
    ) -> MeasuredReport {
        // Every statistic below is order-independent, so the samples are
        // sorted in place (no second buffer).
        samples_us.sort_by(f64::total_cmp);
        let runs = samples_us.len();
        let min_us = samples_us[0];
        let max_us = samples_us[runs - 1];
        let mean_us = samples_us.iter().sum::<f64>() / runs as f64;
        let median_us = if runs % 2 == 1 {
            samples_us[runs / 2]
        } else {
            (samples_us[runs / 2 - 1] + samples_us[runs / 2]) / 2.0
        };
        // Population standard deviation of the trials: the harness reports
        // the dispersion of *these* runs, not an estimate of a wider
        // population (0 for a single run, by construction).
        let stddev_us = (samples_us
            .iter()
            .map(|&us| (us - mean_us) * (us - mean_us))
            .sum::<f64>()
            / runs as f64)
            .sqrt();
        MeasuredReport {
            min_us,
            mean_us,
            median_us,
            max_us,
            stddev_us,
            warmup,
            runs: runs as u32,
            useful_flops,
            threads,
            gflops: if min_us > 0.0 {
                useful_flops as f64 / min_us / 1e3
            } else {
                0.0
            },
        }
    }

    /// One-line human-readable summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:>8.2} GFLOPS  {:>9.1} us min ({:.1} median ± {:.1}, {} run(s), {} thread(s))",
            self.gflops, self.min_us, self.median_us, self.stddev_us, self.runs, self.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::gen;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn measure_counts_warmup_and_runs() {
        let calls = AtomicU32::new(0);
        let harness = TimingHarness { warmup: 3, runs: 4 };
        let report = harness.measure(100, 1, || {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 7);
        assert_eq!(report.runs, 4);
        assert_eq!(report.warmup, 3);
        assert!(report.min_us <= report.mean_us);
        assert!(report.mean_us <= report.max_us);
        assert!(report.min_us <= report.median_us && report.median_us <= report.max_us);
        assert!(report.stddev_us >= 0.0);
        assert!(report.gflops >= 0.0);
    }

    #[test]
    fn a_measurement_is_a_race_of_one() {
        for (warmup, runs) in [(0, 0), (2, 0), (2, 5)] {
            let mut calls = 0;
            let report = TimingHarness { warmup, runs }.measure(8, 3, || calls += 1);
            assert_eq!(calls, warmup + runs.max(1));
            assert_eq!((report.warmup, report.runs), (warmup, runs.max(1)));
        }
    }

    /// What a race of three, two warmup and three timed rounds, calls:
    /// `(true, i)` for setup(i), `(false, i)` for run(i).
    fn recorded_race() -> Vec<(bool, usize)> {
        let mut log = Vec::new();
        let reports = TimingHarness { warmup: 2, runs: 3 }.race(
            &mut log,
            &[(10, 1), (20, 2), (30, 4)],
            |log, i| log.push((true, i)),
            |log, i| log.push((false, i)),
        );
        let counted: Vec<_> = reports
            .iter()
            .map(|r| (r.useful_flops, r.threads, r.runs))
            .collect();
        assert_eq!(counted, [(10, 1, 3), (20, 2, 3), (30, 4, 3)]);
        log
    }

    #[test]
    fn a_race_interleaves_its_contestants_round_by_round() {
        let log = recorded_race();
        let runs: Vec<usize> = log.iter().filter(|c| !c.0).map(|c| c.1).collect();
        assert_eq!(runs, [0, 1, 2].repeat(2 + 3));
    }

    #[test]
    fn a_race_runs_each_setup_outside_the_clock_right_before_its_run() {
        let round = [
            (true, 0),
            (false, 0),
            (true, 1),
            (false, 1),
            (true, 2),
            (false, 2),
        ];
        assert_eq!(recorded_race(), round.repeat(2 + 3));
        // A setup that takes a millisecond is not in a no-op's reading.
        let sleep = |_: &mut (), _| std::thread::sleep(std::time::Duration::from_millis(1));
        let report = &TimingHarness::quick().race(&mut (), &[(0, 1)], sleep, |_, _| {})[0];
        assert!(report.min_us < 1_000.0, "{}", report.summary());
    }

    #[test]
    fn single_run_spread_is_degenerate() {
        let report = TimingHarness::quick().measure(10, 1, || {
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        assert_eq!(report.runs, 1);
        assert_eq!(report.min_us, report.median_us);
        assert_eq!(report.median_us, report.max_us);
        assert_eq!(report.stddev_us, 0.0, "one sample has no spread");
    }

    #[test]
    fn spread_statistics_describe_the_samples() {
        // Fixed samples, out of order: every statistic is exact.  Odd count:
        // the middle sample is the median; deviations of ±2000 µs.
        let report = MeasuredReport::from_samples(vec![4_100.0, 100.0, 2_100.0], 2, 10, 1);
        assert_eq!(report.min_us, 100.0);
        assert_eq!(report.median_us, 2_100.0);
        assert_eq!(report.max_us, 4_100.0);
        assert_eq!(report.mean_us, 2_100.0);
        assert_eq!(report.stddev_us, (8.0e6f64 / 3.0).sqrt());
        assert_eq!((report.warmup, report.runs), (2, 3));
        assert_eq!(report.gflops, 10.0 / 100.0 / 1e3);
        assert!(report.summary().contains('±'));
        // Even count: the median is the mean of the middle two; deviations
        // of ±1 and ±3 give a variance of 5.
        let report = MeasuredReport::from_samples(vec![7.0, 1.0, 5.0, 3.0], 0, 10, 1);
        assert_eq!((report.min_us, report.max_us), (1.0, 7.0));
        assert_eq!((report.median_us, report.mean_us), (4.0, 4.0));
        assert_eq!(report.stddev_us, 5.0f64.sqrt());
        // A single sample has no spread.
        let report = MeasuredReport::from_samples(vec![50.0], 0, 10, 1);
        assert_eq!(
            (report.min_us, report.median_us, report.max_us),
            (50.0, 50.0, 50.0)
        );
        assert_eq!(report.stddev_us, 0.0);
    }

    #[test]
    fn zero_runs_still_measures_once() {
        let calls = AtomicU32::new(0);
        let report = TimingHarness { warmup: 0, runs: 0 }.measure(2, 1, || {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(report.runs, 1);
    }

    #[test]
    fn measure_kernel_produces_a_consistent_report() {
        let matrix = gen::uniform_random(512, 512, 8, 3);
        let generated =
            generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default()).unwrap();
        let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        let report = TimingHarness::default()
            .measure_kernel(&kernel, &[1.0; 512], 2)
            .unwrap();
        assert!(report.min_us > 0.0);
        assert!(report.gflops > 0.0);
        assert_eq!(report.useful_flops, 2 * matrix.nnz() as u64);
        assert_eq!(report.threads, 2);
        assert!(report.summary().contains("GFLOPS"));
    }

    #[test]
    fn automatic_thread_reports_name_the_workers_the_kernel_ran_with() {
        // ~130k nnz: worth 8 scalar workers, but only one 8-lane worker.
        // The report must echo the lane-aware count the run path resolves,
        // not the scalar threshold's.
        let matrix = gen::uniform_random(4_096, 4_096, 32, 9);
        let mut generated =
            generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default()).unwrap();
        generated.set_simd_plans(&[alpha_graph::SimdPlan {
            lanes: 8,
            lane_mapping: alpha_graph::SimdLaneMapping::Nnz,
        }]);
        let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        if !crate::cpu_features::force_scalar() {
            assert_eq!(kernel.max_lanes(), 8);
        }
        let x = vec![1.0; matrix.cols()];
        let report = TimingHarness::quick()
            .measure_kernel(&kernel, &x, 0)
            .unwrap();
        assert_eq!(report.threads, kernel.workers_for(0));
        assert_eq!(
            report.threads,
            crate::kernel::effective_workers(0, kernel.nnz(), kernel.max_lanes())
        );
        assert!(
            report.threads <= crate::kernel::effective_workers(0, kernel.nnz(), 1),
            "a vectorized kernel never wakes more workers than a scalar one"
        );
        // Explicit requests are echoed verbatim.
        let report = TimingHarness::quick()
            .measure_kernel(&kernel, &x, 3)
            .unwrap();
        assert_eq!(report.threads, 3);
    }

    #[test]
    fn harness_parameters_are_the_measurement_identity() {
        let a = TimingHarness { warmup: 1, runs: 3 }.evaluator_id();
        let b = TimingHarness {
            warmup: 1,
            runs: 50,
        }
        .evaluator_id();
        assert_ne!(a, b);
        assert_ne!(a.salt(42), b.salt(42));
        assert_ne!(a.salt(42), EvaluatorId::Simulated.salt(42));
        assert!(a.is_native());
        assert_eq!(a.label(), "native");
    }

    #[test]
    fn wrong_input_length_is_an_error_not_a_panic() {
        let matrix = gen::uniform_random(64, 64, 4, 1);
        let generated =
            generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default()).unwrap();
        let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        assert!(TimingHarness::quick()
            .measure_kernel(&kernel, &[1.0; 63], 1)
            .is_err());
    }
}
