//! The lightweight machine-learning components of the Search Engine:
//! gradient-boosted regression trees (standing in for XGBoost, paper Section
//! VI-A) used to interpolate the cost model's coarse-grid readings onto the
//! fine parameter grid (level 3, which a measured search does not run).  The
//! engine ([`crate::engine`]) is their only user.

pub use crate::gbt::{GbtConfig, GradientBoostedTrees};
pub use crate::tree::RegressionTree;

/// A training / prediction sample: a feature vector (operator-graph and
/// parameter features) and its target (measured GFLOPS).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature values.
    pub features: Vec<f64>,
    /// Target value.
    pub target: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(features: Vec<f64>, target: f64) -> Self {
        Sample { features, target }
    }
}

/// Mean absolute deviation between predictions and targets, relative to the
/// mean target magnitude — the metric the paper quotes (about 5 % for its
/// XGBoost interpolation).
pub fn relative_mean_absolute_deviation(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target length mismatch"
    );
    if targets.is_empty() {
        return 0.0;
    }
    let mad = predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / targets.len() as f64;
    let scale = targets.iter().map(|t| t.abs()).sum::<f64>() / targets.len() as f64;
    if scale == 0.0 {
        mad
    } else {
        mad / scale
    }
}
