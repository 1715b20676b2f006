//! Gradient-boosted regression trees: the cost model used by the Search
//! Engine's third level to interpolate measured performance onto the fine
//! parameter grid (the paper's XGBoost substitute).

use crate::ml::Sample;
use crate::tree::RegressionTree;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtConfig {
    /// Number of boosting rounds.
    pub rounds: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples needed to split a node.
    pub min_samples_split: usize,
}

impl Default for GbtConfig {
    fn default() -> Self {
        GbtConfig {
            rounds: 40,
            learning_rate: 0.2,
            max_depth: 4,
            min_samples_split: 4,
        }
    }
}

/// A gradient-boosting ensemble for least-squares regression.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    base: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
}

impl GradientBoostedTrees {
    /// Fits the ensemble.
    pub fn fit(samples: &[Sample], config: GbtConfig) -> Self {
        let base = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|s| s.target).sum::<f64>() / samples.len() as f64
        };
        let mut model = GradientBoostedTrees {
            base,
            trees: Vec::with_capacity(config.rounds),
            learning_rate: config.learning_rate,
        };
        if samples.is_empty() {
            return model;
        }
        let mut residuals: Vec<f64> = samples.iter().map(|s| s.target - base).collect();
        for _ in 0..config.rounds {
            let stage: Vec<Sample> = samples
                .iter()
                .zip(&residuals)
                .map(|(s, &r)| Sample::new(s.features.clone(), r))
                .collect();
            let tree = RegressionTree::fit(&stage, config.max_depth, config.min_samples_split);
            for (sample, residual) in samples.iter().zip(residuals.iter_mut()) {
                *residual -= config.learning_rate * tree.predict(&sample.features);
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
                .map(|t| self.learning_rate * t.predict(features))
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
    use crate::ml::relative_mean_absolute_deviation;

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
        let single = GradientBoostedTrees::fit(
            &samples,
            GbtConfig {
                rounds: 1,
                ..Default::default()
            },
        );
        let full = GradientBoostedTrees::fit(&samples, GbtConfig::default());
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
        let model = GradientBoostedTrees::fit(&train, GbtConfig::default());
        let preds: Vec<f64> = test.iter().map(|s| model.predict(&s.features)).collect();
        let targets: Vec<f64> = test.iter().map(|s| s.target).collect();
        let rmad = relative_mean_absolute_deviation(&preds, &targets);
        assert!(rmad < 0.10, "interpolation error {rmad:.3} too large");
    }

    #[test]
    fn empty_training_set_predicts_zero() {
        let model = GradientBoostedTrees::fit(&[], GbtConfig::default());
        assert_eq!(model.predict(&[1.0, 2.0]), 0.0);
        assert_eq!(model.rounds(), 0);
    }

    #[test]
    fn rounds_match_config() {
        let model = GradientBoostedTrees::fit(
            &training_grid(),
            GbtConfig {
                rounds: 7,
                ..Default::default()
            },
        );
        assert_eq!(model.rounds(), 7);
    }
}
