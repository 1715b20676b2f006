//! `alpha-search` — the Search Engine of the AlphaSparse reproduction (paper
//! Section VI).
//!
//! The engine drives a search over the Operator Graph design space in up
//! to three levels:
//!
//! 1. **Graph structure enumeration** ([`enumerate`]) — candidate structures
//!    are seeded from the preset graphs and extended by mutation (swapping
//!    reduction strategies, adding sorting/binning/padding, branching the
//!    matrix with `ROW_DIV`), filtered by the pruning rules.
//! 2. **Coarse parameter search** ([`engine`]) — each structure's parameters
//!    are swept on a coarse grid and every candidate is evaluated by
//!    generating its kernel and handing it to the search's [`Evaluator`]:
//!    by default the wall-clock time of the native CPU loop (`alpha-cpu`) on
//!    the host the search runs on, or, plugged in, the `alpha-gpu`
//!    simulator's cost model.  Either way the result is checked against the
//!    reference SpMV.
//! 3. **The evaluator's picks** — [`Evaluator::refine`] proposes a few more
//!    candidates from the level-2 readings, and the engine evaluates them.
//!    The cost model interpolates its readings onto the fine parameter grid
//!    (the paper's ML step, in `alpha-gpu`); the measured default proposes
//!    nothing, so a measured search stops at level 2.
//!
//! The iteration budget is the search's stop (the paper's simulated
//! annealing and 8-hour cap never bind at the budgets a search here runs
//! with), and the pruning rules ([`prune`]) encode the "ban list" of
//! operators that make no sense for the input sparsity pattern.
//!
//! Evaluations are memoised in a [`DesignCache`] that can be made durable:
//! [`persist`] serialises the cache — including per-context winning designs
//! and pinned warm-start seeds — with a std-only versioned binary codec, so
//! tuned designs survive process restarts (the foundation of the
//! `alpha-serve` DesignStore).

#![warn(missing_docs)]

pub mod engine;
pub mod enumerate;
pub mod eval;
pub mod features;
pub mod persist;
pub mod prune;

pub use engine::{search, search_with_cache, SearchConfig, SearchOutcome, SearchStats};
pub use eval::{
    context_key, context_key_for, CacheStats, CachingEvaluator, DesignCache, EvalContext,
    Evaluation, Evaluator, EvaluatorChoice, EvaluatorId,
};
pub use persist::{ByteReader, ByteWriter, PersistError, StoredDesign, CACHE_FORMAT_VERSION};
pub use prune::PruneRules;

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_gpu::{DeviceProfile, GpuSim, SimEvaluator, SimKernel};
    use alpha_matrix::gen;

    #[test]
    fn end_to_end_search_beats_the_csr_scalar_seed() {
        let matrix = gen::powerlaw(2_048, 2_048, 12, 1.9, 3);
        let config = SearchConfig {
            device: DeviceProfile::a100(),
            max_iterations: 60,
            evaluator: EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed),
            ..SearchConfig::default()
        };
        let outcome = search(&matrix, &config).expect("search succeeds");
        assert!(outcome.best_gflops > 0.0);
        assert!(outcome.stats.iterations > 0);
        assert!(outcome.stats.iterations <= 60);
        // The winner must be at least as good as the plain CSR-scalar design
        // that seeds the search.
        let scalar = alpha_codegen::generate(
            &alpha_graph::presets::csr_scalar(),
            &matrix,
            alpha_codegen::GeneratorOptions::default(),
        )
        .unwrap();
        let sim = GpuSim::new(DeviceProfile::a100());
        let x = alpha_matrix::DenseVector::ones(matrix.cols());
        let scalar = SimKernel::new(&scalar.kernel, &scalar.format);
        let scalar_gflops = sim.run(&scalar, x.as_slice()).unwrap().report.gflops;
        assert!(outcome.best_gflops >= scalar_gflops);
    }
}
