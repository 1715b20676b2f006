//! The cost model as a search's ground truth, plugged in through
//! `alpha-search`'s `EvaluatorChoice::custom(EvaluatorId::Simulated,
//! SimEvaluator::boxed)`: the search links no simulator unless its caller
//! does.

use crate::{refine, GpuSim, SimKernel};
use alpha_codegen::{generate_with, DeviceProfile, EvalContext, Evaluation, Evaluator};
use alpha_graph::OperatorGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

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

    fn refine(
        &self,
        ctx: &EvalContext<'_>,
        structures: &[OperatorGraph],
        level2: &[(OperatorGraph, Option<f64>)],
    ) -> Vec<OperatorGraph> {
        refine::fine_grid_picks(ctx.matrix, structures, level2)
    }
}

/// A test double: the cost model behind a gate that records the most
/// evaluations it ever held at once and, while closed, holds each one.
#[derive(Default)]
pub struct GatedSim {
    /// (closed, evaluations inside, the most there ever were).
    state: Mutex<(bool, usize, usize)>,
    changed: Condvar,
}

/// The gate's lock is held only to update its counters, never across a call.
const POISONED: &str = "no panic while the gate's counters are locked";

impl GatedSim {
    /// The cost model on `device` behind this gate, its level-3 hook too.
    pub fn evaluator(self: &Arc<Self>, device: &DeviceProfile) -> Box<dyn Evaluator> {
        Box::new(Gated(self.clone(), SimEvaluator::new(device.clone())))
    }

    /// Closes the gate, or opens it and lets the held evaluations go.
    pub fn set_closed(&self, closed: bool) {
        self.state().0 = closed;
        self.changed.notify_all();
    }

    /// True once an evaluation is inside the gate, false when none is by
    /// `deadline`.
    pub fn holds_one(&self, deadline: Duration) -> bool {
        let held = self
            .changed
            .wait_timeout_while(self.state(), deadline, |s| s.1 == 0);
        held.expect(POISONED).0 .1 > 0
    }

    /// The most evaluations that were ever inside the gate at once.
    pub fn widest(&self) -> usize {
        self.state().2
    }

    fn state(&self) -> MutexGuard<'_, (bool, usize, usize)> {
        self.state.lock().expect(POISONED)
    }
}

struct Gated(Arc<GatedSim>, SimEvaluator);

impl Evaluator for Gated {
    fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        let gate = &self.0;
        let mut state = gate.state();
        state.1 += 1;
        state.2 = state.2.max(state.1);
        gate.changed.notify_all();
        drop(gate.changed.wait_while(state, |s| s.0).expect(POISONED));
        // Stay inside long enough for a concurrent call to show.
        std::thread::sleep(Duration::from_micros(300));
        let evaluation = self.1.evaluate(ctx, graph);
        gate.state().1 -= 1;
        evaluation
    }

    fn refine(
        &self,
        ctx: &EvalContext<'_>,
        structures: &[OperatorGraph],
        level2: &[(OperatorGraph, Option<f64>)],
    ) -> Vec<OperatorGraph> {
        self.1.refine(ctx, structures, level2)
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
