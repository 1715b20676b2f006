//! The cost model's third search level (paper Section VI-A): gradient-boosted
//! regression trees, standing in for XGBoost, are fitted to the level-2
//! readings and extend them onto the fine parameter grid; the few most
//! promising predictions go back to the search to be evaluated for real.
//! [`SimEvaluator`](crate::SimEvaluator) answers the search's
//! `Evaluator::refine` hook with [`fine_grid_picks`].  A measured search has
//! no level 3: the default hook proposes nothing.

pub use crate::features::{featurise, Sample, FEATURE_COUNT};
pub use crate::gbt::GradientBoostedTrees;
pub use crate::tree::RegressionTree;

use alpha_graph::params::parameter_variants;
use alpha_graph::OperatorGraph;
use alpha_matrix::{CsrMatrix, MatrixStats};
use std::collections::BTreeSet;

/// Fewest feasible level-2 readings the model is fitted to.
const MIN_SAMPLES: usize = 8;
/// Predictions handed back to the search.
const PICKS: usize = 5;
/// Boosting rounds of the model.
pub(crate) const ROUNDS: usize = 40;

/// The level-3 picks for `matrix`: fits the model to the feasible `level2`
/// readings and returns the five fine-grid variants of `structures` with the
/// highest predictions, best first.  Every level-2 candidate, infeasible ones
/// too, is left out; fewer than eight feasible readings fit no model and pick
/// nothing.
pub fn fine_grid_picks(
    matrix: &CsrMatrix,
    structures: &[OperatorGraph],
    level2: &[(OperatorGraph, Option<f64>)],
) -> Vec<OperatorGraph> {
    let stats = MatrixStats::from_csr(matrix);
    let samples: Vec<Sample> = level2
        .iter()
        .filter_map(|(graph, gflops)| {
            gflops.map(|gflops| Sample::new(featurise(graph, &stats), gflops))
        })
        .collect();
    if samples.len() < MIN_SAMPLES {
        return Vec::new();
    }
    let model = GradientBoostedTrees::fit(&samples, ROUNDS);
    let seen: BTreeSet<String> = level2.iter().map(|(graph, _)| graph.signature()).collect();
    let mut predictions: Vec<(f64, OperatorGraph)> = structures
        .iter()
        .flat_map(|structure| parameter_variants(structure, true))
        .filter(|candidate| !seen.contains(&candidate.signature()))
        .map(|candidate| (model.predict(&featurise(&candidate, &stats)), candidate))
        .collect();
    predictions.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite predictions"));
    predictions.truncate(PICKS);
    predictions
        .into_iter()
        .map(|(_, candidate)| candidate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimEvaluator;
    use alpha_codegen::{DeviceProfile, EvalContext, Evaluator, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::gen;

    #[test]
    fn the_cost_models_picks_are_few_and_never_a_level_two_candidate() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 5);
        let device = DeviceProfile::a100();
        let ctx = EvalContext::new(&matrix, &device, GeneratorOptions::default(), 7).unwrap();
        let sim = SimEvaluator::new(device);
        let structures = vec![presets::csr5_like(16), presets::sell_like()];
        let level2: Vec<(OperatorGraph, Option<f64>)> = structures
            .iter()
            .flat_map(|structure| parameter_variants(structure, false))
            .map(|graph| {
                let gflops = sim.evaluate(&ctx, &graph).map(|e| e.gflops);
                (graph, gflops)
            })
            .collect();
        let feasible: Vec<usize> = (0..level2.len())
            .filter(|&i| level2[i].1.is_some())
            .collect();
        assert!(feasible.len() > MIN_SAMPLES, "{} feasible", feasible.len());

        // Seven feasible readings fit no model, however many infeasible.
        let mut short = level2.clone();
        for &i in &feasible[MIN_SAMPLES - 1..] {
            short[i].1 = None;
        }
        assert!(sim.refine(&ctx, &structures, &short).is_empty());

        let picks = sim.refine(&ctx, &structures, &level2);
        assert!((1..=PICKS).contains(&picks.len()), "{} picks", picks.len());
        let seen: BTreeSet<String> = level2.iter().map(|(g, _)| g.signature()).collect();
        assert!(picks.iter().all(|g| !seen.contains(&g.signature())));
        // An infeasible reading trains nothing, yet it is still not picked.
        let mut marked = level2.clone();
        marked.push((picks[0].clone(), None));
        let first = picks[0].signature();
        let repicked = sim.refine(&ctx, &structures, &marked);
        assert!(!repicked.is_empty() && repicked.iter().all(|g| g.signature() != first));
    }
}
