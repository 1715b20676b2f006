//! Gradient-boosted regression trees: the model that interpolates the cost
//! model's coarse-grid readings onto the fine parameter grid (the paper's
//! XGBoost substitute).

use crate::features::Sample;
use crate::tree::RegressionTree;

/// Shrinkage applied to every tree's contribution.
const LEARNING_RATE: f64 = 0.2;
/// Deepest tree of the ensemble.
const MAX_DEPTH: usize = 4;
/// Fewest samples a node needs to split.
const MIN_SAMPLES_SPLIT: usize = 4;

/// A gradient-boosting ensemble for least-squares regression.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    base: f64,
    trees: Vec<RegressionTree>,
}

impl GradientBoostedTrees {
    /// Fits an ensemble of `rounds` trees.
    pub fn fit(samples: &[Sample], rounds: usize) -> Self {
        let mut model = GradientBoostedTrees {
            base: 0.0,
            trees: Vec::with_capacity(rounds),
        };
        if samples.is_empty() {
            return model;
        }
        model.base = samples.iter().map(|s| s.target).sum::<f64>() / samples.len() as f64;
        // Each round fits a tree to the residuals the ensemble leaves so far.
        let mut stage = samples.to_vec();
        for sample in &mut stage {
            sample.target -= model.base;
        }
        for _ in 0..rounds {
            let tree = RegressionTree::fit(&stage, MAX_DEPTH, MIN_SAMPLES_SPLIT);
            for sample in &mut stage {
                sample.target -= LEARNING_RATE * tree.predict(&sample.features);
            }
            model.trees.push(tree);
        }
        model
    }

    /// Predicts the target for a feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|t| LEARNING_RATE * t.predict(features))
                .sum::<f64>()
    }

    /// Number of boosting rounds actually stored.
    pub fn rounds(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::ROUNDS;

    /// Mean absolute deviation relative to the mean target — the metric the
    /// paper quotes (about 5 % for its XGBoost interpolation).
    fn relative_mean_absolute_deviation(predictions: &[f64], targets: &[f64]) -> f64 {
        let deviation: f64 = predictions
            .iter()
            .zip(targets)
            .map(|(p, t)| (p - t).abs())
            .sum();
        deviation / targets.iter().map(|t| t.abs()).sum::<f64>()
    }

    fn cost_surface(a: f64, b: f64) -> f64 {
        // A memory-bound-like cost surface: piecewise trends with an
        // interaction, similar to GFLOPS as a function of block size and
        // nnz-per-thread.
        100.0 + 30.0 * (a / 4.0).floor() - 5.0 * b + if a > 8.0 { 20.0 } else { 0.0 }
    }

    fn training_grid() -> Vec<Sample> {
        let mut samples = Vec::new();
        for a in 0..16 {
            for b in 0..8 {
                samples.push(Sample::new(
                    vec![a as f64, b as f64],
                    cost_surface(a as f64, b as f64),
                ));
            }
        }
        samples
    }

    #[test]
    fn boosting_reduces_error_over_single_tree() {
        let samples = training_grid();
        let single = GradientBoostedTrees::fit(&samples, 1);
        let full = GradientBoostedTrees::fit(&samples, ROUNDS);
        let err = |m: &GradientBoostedTrees| {
            let preds: Vec<f64> = samples.iter().map(|s| m.predict(&s.features)).collect();
            let targets: Vec<f64> = samples.iter().map(|s| s.target).collect();
            relative_mean_absolute_deviation(&preds, &targets)
        };
        assert!(err(&full) < err(&single));
    }

    #[test]
    fn interpolation_error_is_small_on_heldout_grid_points() {
        // Train on even coordinates, test on odd ones: the coarse-to-fine
        // interpolation task of the paper's Section VI-A.
        let all = training_grid();
        let train: Vec<Sample> = all
            .iter()
            .filter(|s| {
                (s.features[0] as usize).is_multiple_of(2)
                    && (s.features[1] as usize).is_multiple_of(2)
            })
            .cloned()
            .collect();
        let test: Vec<Sample> = all
            .iter()
            .filter(|s| s.features[0] as usize % 2 == 1 || s.features[1] as usize % 2 == 1)
            .cloned()
            .collect();
        let model = GradientBoostedTrees::fit(&train, ROUNDS);
        let preds: Vec<f64> = test.iter().map(|s| model.predict(&s.features)).collect();
        let targets: Vec<f64> = test.iter().map(|s| s.target).collect();
        let rmad = relative_mean_absolute_deviation(&preds, &targets);
        assert!(rmad < 0.10, "interpolation error {rmad:.3} too large");
    }

    #[test]
    fn empty_training_set_predicts_zero() {
        let model = GradientBoostedTrees::fit(&[], ROUNDS);
        assert_eq!(model.predict(&[1.0, 2.0]), 0.0);
        assert_eq!(model.rounds(), 0);
    }

    #[test]
    fn rounds_match_config() {
        let model = GradientBoostedTrees::fit(&training_grid(), 7);
        assert_eq!(model.rounds(), 7);
    }
}
