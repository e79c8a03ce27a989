//! The original per-node-sorting induction algorithms and the seed
//! boxed-node walk, preserved verbatim as the test oracle.
//!
//! The production paths ([`DecisionTree::fit`], [`RegressionTree::fit`])
//! use sort-once induction over a columnar [`FeatureMatrix`] and emit
//! packed node records. This module keeps the original
//! O(nodes · features · n log n) algorithms — row-major input, a fresh
//! sort per feature per node — emitting the seed's boxed `Node` /
//! `RNode` enums and walking them with the seed's `match` loop, for two
//! purposes:
//!
//! 1. **Equivalence testing**: `tests/flat_equivalence.rs` proves the
//!    rebuilt kernels grow identical trees ([`ReferenceTree::to_tree`]
//!    converts node for node) and that both production walks make
//!    bit-identical predictions against the seed walk. The projected
//!    forests here replay the forests' bagging serially and predict
//!    through an explicit per-row feature projection, the oracle for
//!    the baked-in feature maps.
//! 2. **Benchmarking**: `misam-bench`'s `bench_train` times the
//!    reference against the production kernels to quantify the speedup.
//!
//! Nothing in the production crates should call these; they are
//! deliberately slow.

use crate::arena::NodeRecord;
use crate::forest::{majority, ForestParams};
use crate::matrix::FeatureMatrix;
use crate::regforest::RegForestParams;
use crate::regression::{RegParams, RegressionTree};
use crate::tree::{argmax, gini, DecisionTree, TreeParams};

/// One node of the seed's boxed classifier tree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    /// Internal split: go left when `x[feature] <= threshold`.
    Split { feature: u16, threshold: f64, left: u32, right: u32 },
    /// Terminal node predicting `class` with training purity `purity`.
    Leaf { class: u16, purity: f32 },
}

/// One node of the seed's boxed regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RNode {
    Split { feature: u16, threshold: f64, left: u32, right: u32 },
    Leaf { value: f64 },
}

/// A classifier grown by [`fit_tree`], in the seed's boxed layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
    importances: Vec<f64>,
}

impl ReferenceTree {
    /// The seed walk: class and purity of the leaf `features` reaches.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`.
    pub fn predict_with_purity(&self, features: &[f64]) -> (usize, f64) {
        assert_eq!(features.len(), self.n_features, "feature vector has wrong arity");
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                Node::Split { feature, threshold, left, right } => {
                    i = if features[feature as usize] <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                }
                Node::Leaf { class, purity } => return (class as usize, purity as f64),
            }
        }
    }

    /// The seed walk's class for one row.
    pub fn predict(&self, features: &[f64]) -> usize {
        self.predict_with_purity(features).0
    }

    /// The seed walk over a batch of rows.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|f| self.predict(f)).collect()
    }

    /// The same tree as packed node records, node for node.
    pub fn to_tree(&self) -> DecisionTree {
        let nodes = self
            .nodes
            .iter()
            .map(|n| match *n {
                Node::Split { feature, threshold, left, right } => {
                    NodeRecord::split(feature, threshold, left, right)
                }
                Node::Leaf { class, purity } => NodeRecord::class_leaf(class, purity),
            })
            .collect();
        DecisionTree::from_parts(nodes, self.n_features, self.n_classes, self.importances.clone())
    }
}

/// A regression tree grown by [`fit_regression`], in the seed's boxed
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRegressionTree {
    nodes: Vec<RNode>,
    n_features: usize,
}

impl ReferenceRegressionTree {
    /// The seed walk: the value of the leaf `features` reaches.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature vector has wrong arity");
        let mut i = 0usize;
        loop {
            match self.nodes[i] {
                RNode::Split { feature, threshold, left, right } => {
                    i = if features[feature as usize] <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                }
                RNode::Leaf { value } => return value,
            }
        }
    }

    /// The same tree as packed node records, node for node.
    pub fn to_tree(&self) -> RegressionTree {
        let nodes = self
            .nodes
            .iter()
            .map(|n| match *n {
                RNode::Split { feature, threshold, left, right } => {
                    NodeRecord::split(feature, threshold, left, right)
                }
                RNode::Leaf { value } => NodeRecord::value_leaf(value),
            })
            .collect();
        RegressionTree::from_parts(nodes, self.n_features)
    }
}

/// A forest whose members keep their local feature numbering: each
/// predicts through an explicit projection of the input row, the way
/// forests predicted before their maps were baked into the splits.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedForest<T> {
    members: Vec<(T, Vec<usize>)>,
    n_classes: usize,
}

/// Replays [`crate::forest::RandomForest`]'s bagging serially, fitting
/// each member on its projected bootstrap without baking its map.
pub fn fit_projected_forest(
    x: &[Vec<f64>],
    y: &[usize],
    n_classes: usize,
    params: &ForestParams,
) -> ProjectedForest<DecisionTree> {
    let m = FeatureMatrix::from_rows(x);
    let members = params
        .bagging()
        .plans(m.n_rows(), m.n_features())
        .into_iter()
        .map(|plan| {
            let ys: Vec<usize> = plan.boot.iter().map(|&i| y[i]).collect();
            let sub = m.gather_project(&plan.boot, Some(&plan.map));
            (DecisionTree::fit_matrix(&sub, &ys, n_classes, &params.tree), plan.map)
        })
        .collect();
    ProjectedForest { members, n_classes }
}

/// Replays [`crate::regforest::RegressionForest`]'s bagging serially,
/// fitting each member on its projected bootstrap without baking its map.
pub fn fit_projected_regression_forest(
    x: &[Vec<f64>],
    y: &[f64],
    params: &RegForestParams,
) -> ProjectedForest<RegressionTree> {
    let m = FeatureMatrix::from_rows(x);
    let members = params
        .bagging()
        .plans(m.n_rows(), m.n_features())
        .into_iter()
        .map(|plan| {
            let ys: Vec<f64> = plan.boot.iter().map(|&i| y[i]).collect();
            let sub = m.gather_project(&plan.boot, Some(&plan.map));
            (RegressionTree::fit_matrix(&sub, &ys, &params.tree), plan.map)
        })
        .collect();
    ProjectedForest { members, n_classes: 0 }
}

fn project(features: &[f64], map: &[usize]) -> Vec<f64> {
    map.iter().map(|&f| features[f]).collect()
}

impl ProjectedForest<DecisionTree> {
    /// Majority vote over projected member predictions (ties break to
    /// the lower class index).
    pub fn predict(&self, features: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for (tree, map) in &self.members {
            votes[tree.predict(&project(features, map))] += 1;
        }
        majority(&votes)
    }
}

impl ProjectedForest<RegressionTree> {
    /// Tree-order average of projected member predictions.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (tree, map) in &self.members {
            sum += tree.predict(&project(features, map));
        }
        sum / self.members.len() as f64
    }
}

/// Fits a classifier with the original per-node-sorting algorithm.
/// Same contract (and panics) as [`DecisionTree::fit`].
pub fn fit_tree(
    x: &[Vec<f64>],
    y: &[usize],
    n_classes: usize,
    params: &TreeParams,
) -> ReferenceTree {
    assert!(!x.is_empty(), "cannot fit a tree to an empty dataset");
    assert_eq!(x.len(), y.len(), "feature and label counts differ");
    let n_features = x[0].len();
    assert!(x.iter().all(|r| r.len() == n_features), "feature rows have inconsistent lengths");
    assert!(y.iter().all(|&l| l < n_classes), "label out of range");
    if let Some(w) = &params.class_weights {
        assert!(w.len() >= n_classes, "class-weight vector too short");
    }

    let weights: Vec<f64> =
        y.iter().map(|&l| params.class_weights.as_ref().map_or(1.0, |w| w[l])).collect();
    let mut b = RefBuilder {
        x,
        y,
        weights,
        n_classes,
        params,
        nodes: Vec::new(),
        importance_raw: vec![0.0; n_features],
    };
    let idx: Vec<u32> = (0..x.len() as u32).collect();
    b.grow(idx, 0);

    let total: f64 = b.importance_raw.iter().sum();
    let importances = if total > 0.0 {
        b.importance_raw.iter().map(|v| v / total).collect()
    } else {
        vec![0.0; n_features]
    };
    ReferenceTree { nodes: b.nodes, n_features, n_classes, importances }
}

struct RefBuilder<'a> {
    x: &'a [Vec<f64>],
    y: &'a [usize],
    weights: Vec<f64>,
    n_classes: usize,
    params: &'a TreeParams,
    nodes: Vec<Node>,
    importance_raw: Vec<f64>,
}

impl RefBuilder<'_> {
    fn grow(&mut self, idx: Vec<u32>, depth: usize) -> u32 {
        let (counts, total_w) = self.class_counts(&idx);
        let node_gini = gini(&counts, total_w);
        let majority = argmax(&counts);

        let make_leaf = |nodes: &mut Vec<Node>| {
            let purity = if total_w > 0.0 { (counts[majority] / total_w) as f32 } else { 1.0 };
            nodes.push(Node::Leaf { class: majority as u16, purity });
            (nodes.len() - 1) as u32
        };

        if depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || node_gini <= 0.0
        {
            return make_leaf(&mut self.nodes);
        }

        let Some(split) = self.best_split(&idx, &counts, total_w, node_gini) else {
            return make_leaf(&mut self.nodes);
        };

        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { class: 0, purity: 0.0 }); // placeholder
        self.importance_raw[split.0] += split.2;

        let (li, ri): (Vec<u32>, Vec<u32>) =
            idx.iter().partition(|&&i| self.x[i as usize][split.0] <= split.1);
        let left = self.grow(li, depth + 1);
        let right = self.grow(ri, depth + 1);
        self.nodes[me] = Node::Split { feature: split.0 as u16, threshold: split.1, left, right };
        me as u32
    }

    fn class_counts(&self, idx: &[u32]) -> (Vec<f64>, f64) {
        let mut counts = vec![0.0; self.n_classes];
        let mut total = 0.0;
        for &i in idx {
            let w = self.weights[i as usize];
            counts[self.y[i as usize]] += w;
            total += w;
        }
        (counts, total)
    }

    /// The per-node sort: one fresh `sort_unstable_by` per feature per
    /// node — the cost the production kernel eliminates.
    fn best_split(
        &self,
        idx: &[u32],
        parent_counts: &[f64],
        total_w: f64,
        parent_gini: f64,
    ) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let mut order: Vec<u32> = idx.to_vec();
        for f in 0..self.x[0].len() {
            order.sort_unstable_by(|&a, &b| {
                self.x[a as usize][f]
                    .partial_cmp(&self.x[b as usize][f])
                    .expect("features must not be NaN")
            });
            let mut left_counts = vec![0.0; self.n_classes];
            let mut left_w = 0.0;
            let mut left_n = 0usize;
            for pair in 0..order.len().saturating_sub(1) {
                let i = order[pair] as usize;
                let w = self.weights[i];
                left_counts[self.y[i]] += w;
                left_w += w;
                left_n += 1;
                let v = self.x[i][f];
                let v_next = self.x[order[pair + 1] as usize][f];
                if v == v_next {
                    continue; // can't split between equal values
                }
                let right_n = order.len() - left_n;
                if left_n < self.params.min_samples_leaf || right_n < self.params.min_samples_leaf {
                    continue;
                }
                let right_w = total_w - left_w;
                let right_counts: Vec<f64> =
                    parent_counts.iter().zip(left_counts.iter()).map(|(p, l)| p - l).collect();
                let g_left = gini(&left_counts, left_w);
                let g_right = gini(&right_counts, right_w);
                let child = (left_w * g_left + right_w * g_right) / total_w;
                let gain = (parent_gini - child) * total_w;
                if gain > self.params.min_gain && best.is_none_or(|b| gain > b.2) {
                    best = Some((f, 0.5 * (v + v_next), gain));
                }
            }
        }
        best
    }
}

/// Fits a regression tree with the original per-node-sorting algorithm.
/// Same contract (and panics) as [`RegressionTree::fit`].
pub fn fit_regression(x: &[Vec<f64>], y: &[f64], params: &RegParams) -> ReferenceRegressionTree {
    assert!(!x.is_empty(), "cannot fit a tree to an empty dataset");
    assert_eq!(x.len(), y.len(), "feature and target counts differ");
    let n_features = x[0].len();
    assert!(x.iter().all(|r| r.len() == n_features), "ragged feature rows");
    assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");

    let mut nodes = Vec::new();
    let idx: Vec<u32> = (0..x.len() as u32).collect();
    grow_reg(x, y, params, idx, 0, &mut nodes);
    ReferenceRegressionTree { nodes, n_features }
}

fn grow_reg(
    x: &[Vec<f64>],
    y: &[f64],
    params: &RegParams,
    idx: Vec<u32>,
    depth: usize,
    nodes: &mut Vec<RNode>,
) -> u32 {
    let n = idx.len() as f64;
    let mean = idx.iter().map(|&i| y[i as usize]).sum::<f64>() / n;
    let sse: f64 = idx.iter().map(|&i| (y[i as usize] - mean).powi(2)).sum();

    let leaf = |nodes: &mut Vec<RNode>| {
        nodes.push(RNode::Leaf { value: mean });
        (nodes.len() - 1) as u32
    };

    if depth >= params.max_depth || idx.len() < 2 * params.min_samples_leaf || sse <= 0.0 {
        return leaf(nodes);
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    let mut order = idx.clone();
    // `f` is a column index across every row of `x`, not an index into
    // one slice, so the range loop is the natural form.
    #[allow(clippy::needless_range_loop)]
    for f in 0..x[0].len() {
        order.sort_unstable_by(|&a, &b| {
            x[a as usize][f].partial_cmp(&x[b as usize][f]).expect("features must not be NaN")
        });
        let mut lsum = 0.0;
        let mut lsq = 0.0;
        let total_sum: f64 = order.iter().map(|&i| y[i as usize]).sum();
        let total_sq: f64 = order.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        for k in 0..order.len() - 1 {
            let yi = y[order[k] as usize];
            lsum += yi;
            lsq += yi * yi;
            let v = x[order[k] as usize][f];
            let v_next = x[order[k + 1] as usize][f];
            if v == v_next {
                continue;
            }
            let ln = (k + 1) as f64;
            let rn = (order.len() - k - 1) as f64;
            if (ln as usize) < params.min_samples_leaf || (rn as usize) < params.min_samples_leaf {
                continue;
            }
            let l_sse = lsq - lsum * lsum / ln;
            let rsum = total_sum - lsum;
            let r_sse = (total_sq - lsq) - rsum * rsum / rn;
            let gain = sse - l_sse - r_sse;
            if gain > params.min_gain && best.is_none_or(|b| gain > b.2) {
                best = Some((f, 0.5 * (v + v_next), gain));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        return leaf(nodes);
    };

    let me = nodes.len();
    nodes.push(RNode::Leaf { value: mean }); // placeholder
    let (li, ri): (Vec<u32>, Vec<u32>) =
        idx.iter().partition(|&&i| x[i as usize][feature] <= threshold);
    let left = grow_reg(x, y, params, li, depth + 1, nodes);
    let right = grow_reg(x, y, params, ri, depth + 1, nodes);
    nodes[me] = RNode::Split { feature: feature as u16, threshold, left, right };
    me as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_production_agree_on_continuous_features() {
        // Distinct feature values everywhere → candidate scan order is
        // unambiguous → the trees must be *equal*, importances included.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..150 {
            let a = i as f64 + (i as f64) * 1e-6;
            let b = ((i * 37) % 151) as f64 + (i as f64) * 1e-7;
            x.push(vec![a, b]);
            y.push(usize::from(a > 75.0) ^ usize::from(b > 70.0));
        }
        let params = TreeParams::default();
        let reference = fit_tree(&x, &y, 2, &params);
        let production = DecisionTree::fit(&x, &y, 2, &params);
        assert_eq!(reference.to_tree(), production);
    }

    #[test]
    fn reference_and_production_regression_agree() {
        let x: Vec<Vec<f64>> = (0..120).map(|i| vec![i as f64 * 1.001, (i as f64).sin()]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.5 + r[1]).collect();
        let params = RegParams::default();
        let reference = fit_regression(&x, &y, &params);
        let production = RegressionTree::fit(&x, &y, &params);
        assert_eq!(reference.to_tree(), production);
    }
}
