//! `alpha-gpu` — the GPU execution substrate of the AlphaSparse reproduction.
//!
//! The paper runs generated CUDA kernels on NVIDIA A100 and RTX 2080 GPUs;
//! this crate substitutes those with a **functional simulator plus analytical
//! cost model** (see DESIGN.md).  A kernel is expressed against the
//! [`SpmvKernel`] trait: the simulator executes it block by block on the host
//! (producing the actual `y = A·x` result, so correctness is always checked),
//! while a [`BlockContext`] records the events the cost model charges —
//! global-memory transactions with warp-level coalescing, x-vector gathers
//! with an L2 model, shared-memory traffic, atomics with contention,
//! warp shuffles, per-lane arithmetic and synchronisation.
//!
//! The cost model combines the counters into a *roofline-with-load-balance*
//! time estimate: kernel time is the maximum of (a) DRAM/L2 traffic divided by
//! the device bandwidth and (b) per-SM compute/latency time obtained by
//! scheduling thread blocks onto SMs in waves, where a block's latency is the
//! maximum over its warps and a warp's latency is the maximum over its lanes
//! (lockstep divergence).  This keeps the quantities the paper's evaluation
//! hinges on — load balance, padding waste, access regularity, reduction
//! strategy cost — first-class, while absolute numbers stay modelled rather
//! than measured.
//!
//! The cost model's [`PerfReport`] and its [`KernelCounters`] live here,
//! the only crate that computes them; [`DeviceProfile`] and [`WARP_SIZE`]
//! are `alpha-codegen`'s, re-exported.  A generated kernel runs as a
//! [`SimKernel`]; the cost model ranks candidates as the plugged-in
//! [`SimEvaluator`], which hands the search its report's GFLOP/s and picks
//! the search's level-3 candidates ([`refine`]).  No serving crate links
//! this crate.

pub mod context;
pub mod cost;
pub mod counters;
pub mod eval;
mod features;
mod gbt;
pub mod kernel;
pub mod launch;
pub mod memory;
pub mod refine;
pub mod sim;
mod tree;

pub use alpha_codegen::{DeviceProfile, WARP_SIZE};
pub use context::BlockContext;
pub use cost::PerfReport;
pub use counters::KernelCounters;
pub use eval::{GatedSim, SimEvaluator};
pub use kernel::{ReferenceCsrKernel, SimKernel, SpmvKernel};
pub use launch::LaunchConfig;
pub use sim::{GpuSim, SimResult};

/// Size in bytes of a global-memory transaction sector (CUDA L2 sector size).
pub const SECTOR_BYTES: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::{gen, DenseVector};

    #[test]
    fn warp_and_sector_constants() {
        assert_eq!(WARP_SIZE, 32);
        assert_eq!(SECTOR_BYTES, 32);
    }

    #[test]
    fn end_to_end_generation_produces_correct_spmv() {
        let matrix = gen::powerlaw(400, 400, 10, 2.0, 9);
        let x = DenseVector::random(400, 3);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let sim = GpuSim::new(DeviceProfile::test_profile());
        for (name, graph) in presets::all_presets() {
            let generated = generate(&graph, &matrix, GeneratorOptions::default()).unwrap();
            let kernel = SimKernel::new(&generated.kernel, &generated.format);
            let y = sim.run(&kernel, x.as_slice()).unwrap().y;
            let right = DenseVector::from_vec(y).approx_eq(&expected, 1e-3);
            assert!(right, "{name}: wrong SpMV result");
            assert!(!generated.source().is_empty());
            assert!(generated.kernel.format_bytes() > 0);
        }
    }
}
