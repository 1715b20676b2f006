//! A regression tree with exact greedy splits on squared error — the weak
//! learner of the gradient-boosting ensemble.

use crate::ml::Sample;

/// A node of the regression tree (stored in a flat arena).
#[derive(Debug, Clone)]
enum Node {
    /// Internal split: `feature < threshold` goes left, otherwise right.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf prediction.
    Leaf { value: f64 },
}

/// A CART-style regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    max_depth: usize,
    min_samples_split: usize,
}

impl RegressionTree {
    /// Fits a tree of at most `max_depth` levels; nodes with fewer than
    /// `min_samples_split` samples become leaves.
    pub fn fit(samples: &[Sample], max_depth: usize, min_samples_split: usize) -> Self {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            max_depth: max_depth.max(1),
            min_samples_split: min_samples_split.max(2),
        };
        let indices: Vec<usize> = (0..samples.len()).collect();
        tree.build(samples, &indices, 0);
        tree
    }

    /// Predicts the target for a feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = features.get(*feature).copied().unwrap_or(0.0);
                    node = if v < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn build(&mut self, samples: &[Sample], indices: &[usize], depth: usize) -> usize {
        let mean = mean_target(samples, indices);
        let node_index = self.nodes.len();
        if depth >= self.max_depth || indices.len() < self.min_samples_split {
            self.nodes.push(Node::Leaf { value: mean });
            return node_index;
        }
        let Some((feature, threshold)) = best_split(samples, indices) else {
            self.nodes.push(Node::Leaf { value: mean });
            return node_index;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| samples[i].features.get(feature).copied().unwrap_or(0.0) < threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf { value: mean });
            return node_index;
        }
        // Reserve the slot, then build children.
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.build(samples, &left_idx, depth + 1);
        let right = self.build(samples, &right_idx, depth + 1);
        self.nodes[node_index] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_index
    }
}

fn mean_target(samples: &[Sample], indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    indices.iter().map(|&i| samples[i].target).sum::<f64>() / indices.len() as f64
}

/// Finds the `(feature, threshold)` pair minimising the post-split squared
/// error, or `None` when no split improves on the parent.
fn best_split(samples: &[Sample], indices: &[usize]) -> Option<(usize, f64)> {
    let n_features = samples
        .get(indices[0])
        .map(|s| s.features.len())
        .unwrap_or(0);
    let parent_sse = sse(samples, indices);
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in 0..n_features {
        let mut values: Vec<f64> = indices
            .iter()
            .map(|&i| samples[i].features.get(feature).copied().unwrap_or(0.0))
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        for pair in values.windows(2) {
            let threshold = (pair[0] + pair[1]) / 2.0;
            let (left, right): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| {
                samples[i].features.get(feature).copied().unwrap_or(0.0) < threshold
            });
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let split_sse = sse(samples, &left) + sse(samples, &right);
            if split_sse + 1e-12 < parent_sse && best.map(|(_, _, s)| split_sse < s).unwrap_or(true)
            {
                best = Some((feature, threshold, split_sse));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

fn sse(samples: &[Sample], indices: &[usize]) -> f64 {
    let mean = mean_target(samples, indices);
    indices
        .iter()
        .map(|&i| (samples[i].target - mean).powi(2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples_from(f: impl Fn(f64, f64) -> f64) -> Vec<Sample> {
        let mut samples = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let (a, b) = (i as f64, j as f64);
                samples.push(Sample::new(vec![a, b], f(a, b)));
            }
        }
        samples
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let samples = samples_from(|_, _| 7.0);
        let tree = RegressionTree::fit(&samples, 4, 2);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[3.0, 3.0]), 7.0);
    }

    #[test]
    fn step_function_is_learned_exactly() {
        let samples = samples_from(|a, _| if a < 6.0 { 1.0 } else { 5.0 });
        let tree = RegressionTree::fit(&samples, 3, 2);
        assert!((tree.predict(&[2.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[9.0, 0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_trees_fit_better() {
        let samples = samples_from(|a, b| a * 2.0 + b);
        let shallow = RegressionTree::fit(&samples, 1, 2);
        let deep = RegressionTree::fit(&samples, 6, 2);
        let err = |tree: &RegressionTree| {
            samples
                .iter()
                .map(|s| (tree.predict(&s.features) - s.target).abs())
                .sum::<f64>()
        };
        assert!(err(&deep) < err(&shallow));
    }

    #[test]
    fn predict_on_empty_tree_is_zero() {
        let tree = RegressionTree::fit(&[], 3, 2);
        assert_eq!(tree.predict(&[1.0]), 0.0);
    }

    #[test]
    fn missing_features_are_treated_as_zero() {
        let samples = samples_from(|a, _| a);
        let tree = RegressionTree::fit(&samples, 4, 2);
        // Predicting with an empty feature vector falls into the low branch.
        let low = tree.predict(&[]);
        assert!(low <= tree.predict(&[11.0, 0.0]));
    }
}
