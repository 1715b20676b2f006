//! The cost model as a search's ground truth, plugged in through
//! `alpha-search`'s `EvaluatorChoice::custom(EvaluatorId::Simulated,
//! SimEvaluator::boxed)`: the search links no simulator unless its caller
//! does.

use crate::{GpuSim, SimKernel};
use alpha_codegen::{generate_with, DeviceProfile, EvalContext, Evaluation, Evaluator};
use alpha_graph::OperatorGraph;
use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// The evaluator factory a search calls with its own device, so the
    /// cost model runs on exactly the device its context key hashes.
    pub fn boxed(device: &DeviceProfile) -> Box<dyn Evaluator> {
        Box::new(SimEvaluator::new(device.clone()))
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
        let kernel = SimKernel::new(&generated.kernel, &generated.format);
        let (x, reference) = (ctx.x.as_slice(), &ctx.reference);
        let result = self.sim.run_checked(&kernel, x, reference, ctx.tolerance);
        Some(Evaluation {
            gflops: result.ok()?.report.gflops,
            cached: false,
            kernel_shape: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::GeneratorOptions;
    use alpha_graph::presets;
    use alpha_matrix::gen;

    #[test]
    fn sim_evaluator_produces_reports_for_feasible_designs() {
        let matrix = gen::powerlaw(256, 256, 8, 2.0, 3);
        let device = DeviceProfile::a100();
        let ctx = EvalContext::new(&matrix, &device, GeneratorOptions::default(), 7).unwrap();
        let evaluator = SimEvaluator::new(device);
        let eval = evaluator
            .evaluate(&ctx, &presets::csr_scalar())
            .expect("feasible");
        assert!(eval.gflops > 0.0);
        assert!(!eval.cached);
        assert_eq!(evaluator.simulations(), 1);
    }
}
