//! `alpha-search` — the Search Engine of the AlphaSparse reproduction (paper
//! Section VI).
//!
//! The engine drives a three-level search over the Operator Graph design
//! space:
//!
//! 1. **Graph structure enumeration** ([`enumerate`]) — candidate structures
//!    are seeded from the preset graphs and extended by mutation (swapping
//!    reduction strategies, adding sorting/binning/padding, branching the
//!    matrix with `ROW_DIV`), filtered by the pruning rules.
//! 2. **Coarse parameter search** ([`engine`]) — each structure's parameters
//!    are swept on a coarse grid and every candidate is evaluated by
//!    generating its kernel and handing it to the search's [`Evaluator`]:
//!    by default the wall-clock time of the native CPU loop (`alpha-cpu`) on
//!    the host the search runs on, or, opted into, the `alpha-gpu`
//!    simulator's cost model.  Either way the result is checked against the
//!    reference SpMV.
//! 3. **ML interpolation** — a gradient-boosted-tree cost model ([`ml`])
//!    trained on the measured candidates predicts the fine parameter grid;
//!    only the most promising predictions are evaluated for real.
//!
//! Simulated annealing terminates the first two levels early, and the
//! pruning rules ([`prune`]) encode the "ban list" of operators that make no
//! sense for the input sparsity pattern.
//!
//! Evaluations are memoised in a [`DesignCache`] that can be made durable:
//! [`persist`] serialises the cache — including per-context winning designs
//! and pinned warm-start seeds — with a std-only versioned binary codec, so
//! tuned designs survive process restarts (the foundation of the
//! `alpha-serve` DesignStore).

#![warn(missing_docs)]

mod anneal;
pub mod engine;
pub mod enumerate;
pub mod eval;
pub mod features;
mod gbt;
pub mod ml;
pub mod persist;
pub mod prune;
mod tree;

pub use engine::{search, search_with_cache, SearchConfig, SearchOutcome, SearchStats};
pub use eval::{
    context_key, context_key_for, CacheStats, CachingEvaluator, DesignCache, EvalContext,
    Evaluation, Evaluator, EvaluatorChoice, EvaluatorId, SimEvaluator,
};
pub use persist::{ByteReader, ByteWriter, PersistError, StoredDesign, CACHE_FORMAT_VERSION};
pub use prune::PruneRules;

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_gpu::DeviceProfile;
    use alpha_matrix::gen;

    #[test]
    fn end_to_end_search_beats_the_csr_scalar_seed() {
        let matrix = gen::powerlaw(2_048, 2_048, 12, 1.9, 3);
        let config = SearchConfig {
            device: DeviceProfile::a100(),
            max_iterations: 60,
            evaluator: EvaluatorChoice::Simulated,
            ..SearchConfig::default()
        };
        let outcome = search(&matrix, &config).expect("search succeeds");
        assert!(outcome.best_report.gflops > 0.0);
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
        let sim = alpha_gpu::GpuSim::new(DeviceProfile::a100());
        let x = alpha_matrix::DenseVector::ones(matrix.cols());
        let scalar_gflops = sim.run(&scalar.kernel, x.as_slice()).unwrap().report.gflops;
        assert!(outcome.best_report.gflops >= scalar_gflops);
    }

    #[test]
    fn rmad_is_zero_for_perfect_predictions() {
        let targets = [10.0, 20.0, 30.0];
        assert_eq!(
            ml::relative_mean_absolute_deviation(&targets, &targets),
            0.0
        );
    }

    #[test]
    fn rmad_scales_with_error() {
        let targets = [10.0, 10.0];
        let preds = [11.0, 9.0];
        assert!((ml::relative_mean_absolute_deviation(&preds, &targets) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rmad_rejects_mismatched_lengths() {
        ml::relative_mean_absolute_deviation(&[1.0], &[1.0, 2.0]);
    }
}
