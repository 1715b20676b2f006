//! Steady-state wall-clock measurement: warmup + min-of-N.
//!
//! One execution of a small kernel is dominated by cold caches and scheduler
//! noise.  The harness therefore discards `warmup` executions, times `runs`
//! more, and reports the **minimum** — the standard steady-state estimator
//! for short kernels (the mean and maximum ride along for dispersion).  The
//! same harness times generated kernels and the `alpha-baselines` native
//! kernels, so "generated vs CSR/ELL/HYB/merge" comparisons are
//! apples-to-apples.

use crate::kernel::NativeKernel;
use alpha_gpu::PerfReport;
use alpha_matrix::Scalar;
use alpha_search::EvaluatorId;
use std::time::Instant;

/// Device label measured reports carry (there is exactly one "device": the
/// host CPU the process runs on).
pub const NATIVE_DEVICE_LABEL: &str = "host-cpu";

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

    /// Times `f` (one call = one kernel execution) and summarises the runs.
    /// `useful_flops` and `threads` are echoed into the report.
    pub fn measure<F: FnMut()>(
        self,
        useful_flops: u64,
        threads: usize,
        mut f: F,
    ) -> MeasuredReport {
        for _ in 0..self.warmup {
            f();
        }
        let runs = self.runs.max(1);
        let mut samples_us = Vec::with_capacity(runs as usize);
        for _ in 0..runs {
            let start = Instant::now();
            f();
            samples_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        MeasuredReport::from_samples(samples_us, self.warmup, useful_flops, threads)
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
        self.measure_kernel_with_pool(kernel, x, threads, alpha_parallel::Pool::shared())
    }

    /// [`TimingHarness::measure_kernel`] on an explicit persistent pool
    /// (e.g. an evaluator's private pool, so measurements are not perturbed
    /// by unrelated traffic on the shared one).
    pub fn measure_kernel_with_pool(
        self,
        kernel: &NativeKernel,
        x: &[Scalar],
        threads: usize,
        pool: &alpha_parallel::Pool,
    ) -> Result<MeasuredReport, String> {
        let mut y = vec![0.0; kernel.rows()];
        kernel.run_into_with_pool(x, &mut y, threads, pool)?;
        Ok(
            self.measure(kernel.useful_flops(), kernel.workers_for(threads), || {
                kernel
                    .run_into_with_pool(x, &mut y, threads, pool)
                    .expect("dimensions validated above");
            }),
        )
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
    /// [`MeasuredReport::stddev_us`], the sample-spread view that lets
    /// benches report their noise instead of only min-of-N.
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
    /// function of its arguments: [`TimingHarness::measure`] reads the clock,
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

    /// Converts to the [`PerfReport`] shape the `Evaluator` trait returns, so
    /// measured results flow through the unchanged search/caching/serving
    /// stack.  `format_bytes` is the design's memory footprint.
    pub fn to_perf_report(&self, format_bytes: usize) -> PerfReport {
        PerfReport::from_measured_time(
            NATIVE_DEVICE_LABEL,
            self.min_us,
            self.useful_flops,
            format_bytes,
        )
    }

    /// Relative sample spread: standard deviation over median (0 when the
    /// median is 0).  A quick "how noisy was this measurement" number —
    /// values above ~0.3 mean the min-of-N estimate should be read with
    /// suspicion.
    pub fn noise(&self) -> f64 {
        if self.median_us > 0.0 {
            self.stddev_us / self.median_us
        } else {
            0.0
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
        assert!(report.noise() >= 0.0);
        assert!(report.gflops >= 0.0);
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
        assert_eq!(report.noise(), 0.0);
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
        assert_eq!(report.noise(), 5.0f64.sqrt() / 4.0);
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

        let perf = report.to_perf_report(kernel.format_bytes());
        assert_eq!(perf.device, NATIVE_DEVICE_LABEL);
        assert_eq!(perf.time_us, report.min_us);
        assert!((perf.gflops - report.gflops).abs() < 1e-9);
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
        assert_ne!(a.salt(42), alpha_search::EvaluatorId::Simulated.salt(42));
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
