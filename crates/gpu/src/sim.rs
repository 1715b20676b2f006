//! The simulator driver: launches an [`SpmvKernel`] over its grid, executes
//! every thread block on the host (in parallel across worker threads), and
//! feeds the gathered counters to the cost model.

use crate::context::BlockContext;
use crate::cost::{self, CostInputs};
use crate::counters::absorb_block;
use crate::kernel::SpmvKernel;
use crate::{KernelCounters, PerfReport};
use alpha_codegen::DeviceProfile;
use alpha_matrix::Scalar;

/// The result of simulating one kernel launch.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The computed output vector `y = A·x`.
    pub y: Vec<Scalar>,
    /// The modelled performance of the launch.
    pub report: PerfReport,
}

/// The GPU simulator for one device profile.
#[derive(Debug, Clone)]
pub struct GpuSim {
    device: DeviceProfile,
    worker_threads: usize,
}

impl GpuSim {
    /// Creates a simulator for the given device, with one host worker per
    /// available CPU core.
    pub fn new(device: DeviceProfile) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        GpuSim {
            device,
            worker_threads: workers,
        }
    }

    /// Overrides the number of host worker threads (useful to make unit tests
    /// deterministic in their scheduling or to disable parallelism).
    pub fn with_workers(device: DeviceProfile, worker_threads: usize) -> Self {
        GpuSim {
            device,
            worker_threads: worker_threads.max(1),
        }
    }

    /// Launches the kernel on the simulated device.
    ///
    /// Returns an error when the input vector length does not match the
    /// kernel or when the launch configuration violates device limits.
    pub fn run(&self, kernel: &dyn SpmvKernel, x: &[Scalar]) -> Result<SimResult, String> {
        if x.len() != kernel.input_cols() {
            return Err(format!(
                "input vector has {} elements, kernel expects {}",
                x.len(),
                kernel.input_cols()
            ));
        }
        let launch = kernel.launch_config(&self.device);
        launch.validate(&self.device)?;

        let y_len = kernel.output_rows();
        let grid = launch.grid_dim;
        let workers = self.worker_threads.min(grid).max(1);

        // Each worker accumulates into a private y buffer and private
        // counters, executing blocks `w, w + workers, …` through one block
        // context; both are merged in worker order afterwards, which keeps
        // the execution deterministic regardless of scheduling.  A single
        // worker runs on the caller's thread.
        let run_worker = |w: usize| {
            let mut y = vec![0.0; y_len];
            let mut counters = KernelCounters::default();
            let mut ctx = BlockContext::new(&self.device, x, &mut y, launch.block_dim);
            for block in (w..grid).step_by(workers) {
                kernel.execute_block(block, &mut ctx);
                absorb_block(&mut counters, &ctx.finish());
            }
            drop(ctx);
            (y, counters)
        };
        let partials: Vec<(Vec<Scalar>, KernelCounters)> = if workers == 1 {
            vec![run_worker(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || run_worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("simulator worker panicked"))
                    .collect()
            })
        };

        let mut y = vec![0.0; y_len];
        let mut counters = KernelCounters::default();
        for (partial_y, partial_counters) in &partials {
            for (acc, v) in y.iter_mut().zip(partial_y) {
                *acc += v;
            }
            counters.merge(partial_counters);
        }

        let inputs = CostInputs {
            launch,
            format_bytes: kernel.format_bytes(),
            x_len: x.len(),
            y_len,
            useful_flops: kernel.useful_flops(),
        };
        let report = cost::evaluate(&self.device, &counters, &inputs);
        Ok(SimResult { y, report })
    }

    /// Convenience wrapper: runs the kernel and checks the result against a
    /// reference output, returning the report only if it matches within
    /// `tol`.  Used pervasively by the search engine — a machine-designed
    /// kernel that produces wrong results must never win.
    pub fn run_checked(
        &self,
        kernel: &dyn SpmvKernel,
        x: &[Scalar],
        reference_y: &[Scalar],
        tol: Scalar,
    ) -> Result<SimResult, String> {
        let result = self.run(kernel, x)?;
        if !alpha_matrix::within_tolerance(&result.y, reference_y, tol) {
            return Err(format!(
                "kernel '{}' produced incorrect results",
                kernel.name()
            ));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ReferenceCsrKernel;
    use alpha_matrix::{gen, DenseVector};

    #[test]
    fn parallel_and_serial_execution_agree() {
        let matrix = gen::powerlaw(500, 500, 8, 2.0, 11);
        let x = DenseVector::random(500, 5);
        let kernel = ReferenceCsrKernel::new(matrix.clone());
        let serial = GpuSim::with_workers(DeviceProfile::test_profile(), 1);
        let parallel = GpuSim::with_workers(DeviceProfile::test_profile(), 8);
        let a = serial.run(&kernel, x.as_slice()).unwrap();
        let b = parallel.run(&kernel, x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(a.y.clone()).approx_eq(&b.y, 1e-5));
        // Counters are identical regardless of host parallelism.
        assert_eq!(a.report.counters.fma_ops, b.report.counters.fma_ops);
        assert_eq!(a.report.counters.blocks, b.report.counters.blocks);
    }

    #[test]
    fn run_rejects_wrong_input_length() {
        let kernel = ReferenceCsrKernel::new(gen::uniform_random(64, 64, 4, 1));
        let sim = GpuSim::new(DeviceProfile::test_profile());
        assert!(sim.run(&kernel, &[0.0; 10]).is_err());
    }

    #[test]
    fn run_checked_rejects_wrong_results() {
        let matrix = gen::uniform_random(100, 100, 4, 2);
        let x = DenseVector::ones(100);
        let correct = matrix.spmv(x.as_slice()).unwrap();
        let kernel = ReferenceCsrKernel::new(matrix);
        let sim = GpuSim::new(DeviceProfile::test_profile());
        assert!(sim
            .run_checked(&kernel, x.as_slice(), &correct, 1e-4)
            .is_ok());
        let mut wrong = correct;
        wrong[0] += 100.0;
        assert!(sim
            .run_checked(&kernel, x.as_slice(), &wrong, 1e-4)
            .is_err());
    }

    /// The reference kernel, optionally overwriting one output row with
    /// `+∞` and asserting every block runs on one given thread.
    struct Probe {
        inner: ReferenceCsrKernel,
        poison_row: Option<usize>,
        thread: Option<std::thread::ThreadId>,
    }

    impl SpmvKernel for Probe {
        fn name(&self) -> String {
            "probe".to_string()
        }
        fn launch_config(&self, device: &DeviceProfile) -> crate::LaunchConfig {
            self.inner.launch_config(device)
        }
        fn execute_block(&self, block_id: usize, ctx: &mut BlockContext<'_>) {
            if let Some(thread) = self.thread {
                assert_eq!(std::thread::current().id(), thread);
            }
            self.inner.execute_block(block_id, ctx);
            if let (0, Some(row)) = (block_id, self.poison_row) {
                ctx.store_y(row, Scalar::INFINITY);
            }
        }
        fn format_bytes(&self) -> usize {
            self.inner.format_bytes()
        }
        fn useful_flops(&self) -> u64 {
            self.inner.useful_flops()
        }
        fn output_rows(&self) -> usize {
            self.inner.output_rows()
        }
        fn input_cols(&self) -> usize {
            self.inner.input_cols()
        }
    }

    #[test]
    fn run_checked_rejects_an_infinity_in_a_finite_row() {
        let matrix = gen::uniform_random(100, 100, 4, 2);
        let x = DenseVector::ones(100);
        let correct = matrix.spmv(x.as_slice()).unwrap();
        let kernel = Probe {
            inner: ReferenceCsrKernel::new(matrix),
            poison_row: Some(3),
            thread: None,
        };
        for workers in [1, 3] {
            let sim = GpuSim::with_workers(DeviceProfile::test_profile(), workers);
            assert_eq!(
                sim.run(&kernel, x.as_slice()).unwrap().y[3],
                Scalar::INFINITY
            );
            assert!(sim
                .run_checked(&kernel, x.as_slice(), &correct, 1e-4)
                .is_err());
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let kernel = Probe {
            inner: ReferenceCsrKernel::new(gen::uniform_random(1_000, 1_000, 4, 6)),
            poison_row: None,
            thread: Some(std::thread::current().id()),
        };
        let x = DenseVector::ones(1_000);
        let sim = GpuSim::with_workers(DeviceProfile::test_profile(), 1);
        let report = sim.run(&kernel, x.as_slice()).unwrap().report;
        assert!(report.counters.blocks > 1);
    }

    #[test]
    fn larger_matrices_reach_higher_gflops() {
        // The flat-tail trend of Figure 9a: throughput rises with matrix size
        // until bandwidth saturates, because launch overhead amortises.
        let sim = GpuSim::new(DeviceProfile::a100());
        let small = ReferenceCsrKernel::new(gen::uniform_random(512, 512, 8, 3));
        let large = ReferenceCsrKernel::new(gen::uniform_random(65_536, 65_536, 8, 3));
        let xs = DenseVector::ones(512);
        let xl = DenseVector::ones(65_536);
        let rs = sim.run(&small, xs.as_slice()).unwrap();
        let rl = sim.run(&large, xl.as_slice()).unwrap();
        assert!(rl.report.gflops > rs.report.gflops);
    }

    #[test]
    fn a100_outperforms_rtx2080_on_same_kernel() {
        let matrix = gen::uniform_random(32_768, 32_768, 16, 9);
        let x = DenseVector::ones(32_768);
        let kernel = ReferenceCsrKernel::new(matrix);
        let a100 = GpuSim::new(DeviceProfile::a100())
            .run(&kernel, x.as_slice())
            .unwrap();
        let rtx = GpuSim::new(DeviceProfile::rtx2080())
            .run(&kernel, x.as_slice())
            .unwrap();
        assert!(a100.report.gflops > rtx.report.gflops);
    }
}
