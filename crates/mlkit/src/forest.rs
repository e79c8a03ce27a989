//! Random-forest classifier — the ensemble alternative the paper's §3.1
//! implicitly trades away.
//!
//! Misam chooses a single decision tree "due to its lightweight footprint
//! and low-latency inference". This module provides the counterfactual: a
//! bagged forest with per-split feature subsampling, so the accuracy /
//! footprint / inference-latency trade-off can be *measured* (see the
//! `ablation_models` experiment) instead of asserted.
//!
//! Trees grow in parallel on `misam_pool` workers. Every random
//! draw (feature subsets, bootstrap indices) is sequenced **serially**
//! from the seeded RNG before any worker starts, in exactly the order
//! the original serial loop drew them, so the fitted forest is
//! bit-identical at any thread count — `MISAM_THREADS=1` and
//! `MISAM_THREADS=32` produce byte-for-byte the same model (tested in
//! `tests/flat_equivalence.rs`).
//!
//! Each tree is fitted on its bootstrap rows projected to its feature
//! subset, then its feature map is baked into the split indices
//! ([`DecisionTree::with_feature_map`]), so prediction walks every tree
//! on the unprojected input. The bagging plan and the parallel fit are
//! shared with [`crate::regforest::RegressionForest`] through [`bag`].

use crate::arena::Partition;
use crate::matrix::FeatureMatrix;
use crate::simd;
use crate::tree::{DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyperparameters for forest induction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Parameters of each tree.
    pub tree: TreeParams,
    /// Fraction of the training set bootstrapped per tree.
    pub sample_fraction: f64,
    /// Features visible to each tree (a random subset per tree; `None`
    /// uses all features).
    pub features_per_tree: Option<usize>,
    /// Seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 25,
            tree: TreeParams::default(),
            sample_fraction: 0.8,
            features_per_tree: None,
            seed: 0,
        }
    }
}

/// A bagged ensemble of CART trees with majority voting. Every tree's
/// feature map is baked into its splits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

/// Pre-drawn randomness for one tree: its feature subset (tree feature
/// `j` is input feature `map[j]`) and bootstrap row indices. Drawing
/// these serially up front is what makes the parallel fit deterministic.
#[derive(Debug)]
pub(crate) struct TreePlan {
    pub(crate) map: Vec<usize>,
    pub(crate) boot: Vec<usize>,
}

/// The bagging shape both forests share.
#[derive(Debug)]
pub(crate) struct Bagging {
    pub(crate) n_trees: usize,
    pub(crate) sample_fraction: f64,
    pub(crate) features_per_tree: Option<usize>,
    /// RNG seed, already salted per forest kind.
    pub(crate) seed: u64,
}

impl Bagging {
    /// Draws every tree's plan serially, in the exact order the original
    /// serial loop consumed the RNG stream: per tree, the feature subset
    /// first, then the bootstrap indices.
    ///
    /// # Panics
    ///
    /// Panics if `n_trees == 0`, `sample_fraction` is outside `(0, 1]`,
    /// or `features_per_tree` is 0 or exceeds `n_features`.
    pub(crate) fn plans(&self, n_rows: usize, n_features: usize) -> Vec<TreePlan> {
        assert!(self.n_trees > 0, "forest needs at least one tree");
        assert!(
            self.sample_fraction > 0.0 && self.sample_fraction <= 1.0,
            "sample fraction must be in (0, 1]"
        );
        if let Some(f) = self.features_per_tree {
            assert!(f > 0 && f <= n_features, "features_per_tree out of range");
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_boot = ((n_rows as f64 * self.sample_fraction).round() as usize).max(1);
        (0..self.n_trees)
            .map(|_| {
                let map: Vec<usize> = match self.features_per_tree {
                    Some(k) => {
                        let mut all: Vec<usize> = (0..n_features).collect();
                        for i in 0..k {
                            let j = rng.gen_range(i..n_features);
                            all.swap(i, j);
                        }
                        all.truncate(k);
                        all
                    }
                    None => (0..n_features).collect(),
                };
                let boot: Vec<usize> = (0..n_boot).map(|_| rng.gen_range(0..n_rows)).collect();
                TreePlan { map, boot }
            })
            .collect()
    }
}

/// Fits one member per plan on its projected bootstrap, in parallel;
/// results come back in plan order, so member `i` is always the tree
/// plan `i` would have grown.
///
/// Worker threads beyond the machine's cores only add scheduling
/// overhead (a 2-thread fit on a 1-CPU host benched ~5% slower than
/// serial), and tiny trees never win back the scoped-spawn cost: clamp
/// to the hardware, then fall back to serial when the per-tree work
/// (gathered submatrix cells, the dominant cost of a tree fit) is below
/// the crossover.
pub(crate) fn bag<T: Send>(
    m: &FeatureMatrix,
    bagging: &Bagging,
    threads: usize,
    fit: impl Fn(&FeatureMatrix, &TreePlan) -> T + Sync,
) -> Vec<T> {
    const MIN_PARALLEL_CELLS: usize = 1 << 14;
    let plans = bagging.plans(m.n_rows(), m.n_features());
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let per_tree = plans[0].boot.len() * plans[0].map.len();
    let threads = if per_tree < MIN_PARALLEL_CELLS { 1 } else { threads.min(cores) };
    misam_pool::par_map_with(&plans, threads, |plan| {
        fit(&m.gather_project(&plan.boot, Some(&plan.map)), plan)
    })
}

impl RandomForest {
    /// Fits a forest to feature rows `x` and labels `y`, growing trees
    /// in parallel (worker count from `MISAM_THREADS`, default all
    /// cores). The result is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`DecisionTree::fit`], or if
    /// `n_trees == 0`, `sample_fraction` is outside `(0, 1]`, or
    /// `features_per_tree` is 0 or exceeds the feature count.
    pub fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize, params: &ForestParams) -> Self {
        assert!(!x.is_empty(), "cannot fit a forest to an empty dataset");
        Self::fit_matrix(&FeatureMatrix::from_rows(x), y, n_classes, params)
    }

    /// [`RandomForest::fit`] with an explicit worker count (1 = serial).
    pub fn fit_with_threads(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        params: &ForestParams,
        threads: usize,
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a forest to an empty dataset");
        Self::fit_inner(&FeatureMatrix::from_rows(x), y, n_classes, params, threads)
    }

    /// Fits a forest to columnar features; bootstraps and feature
    /// projections are gathered column-at-a-time from the shared matrix.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RandomForest::fit`].
    pub fn fit_matrix(
        m: &FeatureMatrix,
        y: &[usize],
        n_classes: usize,
        params: &ForestParams,
    ) -> Self {
        Self::fit_inner(m, y, n_classes, params, misam_pool::default_threads())
    }

    fn fit_inner(
        m: &FeatureMatrix,
        y: &[usize],
        n_classes: usize,
        params: &ForestParams,
        threads: usize,
    ) -> Self {
        let n_features = m.n_features();
        let trees = bag(m, &params.bagging(), threads, |sub, plan| {
            let ys: Vec<usize> = plan.boot.iter().map(|&i| y[i]).collect();
            DecisionTree::fit_matrix(sub, &ys, n_classes, &params.tree)
                .with_feature_map(&plan.map, n_features)
        });
        RandomForest { trees, n_classes, n_features }
    }

    /// Predicts by majority vote (ties break to the lower class index).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training arity.
    pub fn predict(&self, features: &[f64]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature vector has wrong arity");
        let mut votes = vec![0usize; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(features)] += 1;
        }
        majority(&votes)
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|f| self.predict(f)).collect()
    }

    /// Predicts every row of a columnar matrix: each tree runs the
    /// frontier walk, then votes are tallied per row. Identical to
    /// [`RandomForest::predict`] row for row.
    ///
    /// # Panics
    ///
    /// Panics if `m.n_features() != n_features`.
    pub fn predict_batch_matrix(&self, m: &FeatureMatrix) -> Vec<usize> {
        self.votes(m, simd::partition_segment)
    }

    /// [`RandomForest::predict_batch_matrix`] pinned to the scalar
    /// (branchy) partition — the kernel bench baseline. Bit-identical
    /// output.
    #[doc(hidden)]
    pub fn predict_batch_matrix_scalar(&self, m: &FeatureMatrix) -> Vec<usize> {
        self.votes(m, simd::partition_segment_scalar)
    }

    fn votes(&self, m: &FeatureMatrix, partition: impl Partition) -> Vec<usize> {
        let nc = self.n_classes;
        let mut votes = vec![0usize; m.n_rows() * nc];
        for tree in &self.trees {
            tree.walk_batch(m, partition, |class, rows| {
                for &r in rows {
                    votes[r as usize * nc + class] += 1;
                }
            });
        }
        votes.chunks(nc).map(majority).collect()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total compact-serialized size across all trees — the footprint a
    /// host runtime would ship (compare with the single tree's ~6 KB).
    pub fn serialized_size(&self) -> usize {
        self.trees.iter().map(DecisionTree::serialized_size).sum()
    }
}

impl ForestParams {
    /// The bagging shape these parameters describe, salted for the
    /// classifier forest (crate-internal: fitting and the reference
    /// projection oracle).
    pub(crate) fn bagging(&self) -> Bagging {
        Bagging {
            n_trees: self.n_trees,
            sample_fraction: self.sample_fraction,
            features_per_tree: self.features_per_tree,
            seed: self.seed ^ 0xf0_0e57,
        }
    }
}

/// Majority class of a vote tally; ties break to the lower class index.
pub(crate) fn majority(votes: &[usize]) -> usize {
    votes
        .iter()
        .enumerate()
        .max_by_key(|&(i, &v)| (v, votes.len() - i))
        .map(|(i, _)| i)
        .expect("at least one class")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_problem(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let f: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = usize::from(f[0] + 0.3 * f[1] > 0.65);
            // 10% label noise.
            let label = if rng.gen_bool(0.1) { 1 - label } else { label };
            x.push(f);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn forest_fits_and_predicts() {
        let (x, y) = noisy_problem(400, 1);
        let forest = RandomForest::fit(&x, &y, 2, &ForestParams::default());
        let acc = forest.predict_batch(&x).iter().zip(&y).filter(|(p, a)| p == a).count() as f64
            / x.len() as f64;
        assert!(acc > 0.8, "train accuracy {acc:.2}");
    }

    #[test]
    fn forest_generalizes_at_least_as_well_as_one_shallow_tree() {
        let (xt, yt) = noisy_problem(500, 2);
        let (xv, yv) = noisy_problem(300, 3);
        let tree_params = TreeParams { max_depth: 3, ..TreeParams::default() };
        let tree = DecisionTree::fit(&xt, &yt, 2, &tree_params);
        let forest = RandomForest::fit(
            &xt,
            &yt,
            2,
            &ForestParams { n_trees: 30, tree: tree_params, ..ForestParams::default() },
        );
        let acc = |pred: Vec<usize>| {
            pred.iter().zip(&yv).filter(|(p, a)| p == a).count() as f64 / yv.len() as f64
        };
        let t_acc = acc(tree.predict_batch(&xv));
        let f_acc = acc(forest.predict_batch(&xv));
        assert!(f_acc + 0.03 >= t_acc, "forest {f_acc:.2} should not trail the stump {t_acc:.2}");
    }

    #[test]
    fn forest_footprint_scales_with_tree_count() {
        let (x, y) = noisy_problem(200, 4);
        let small =
            RandomForest::fit(&x, &y, 2, &ForestParams { n_trees: 5, ..ForestParams::default() });
        let big =
            RandomForest::fit(&x, &y, 2, &ForestParams { n_trees: 40, ..ForestParams::default() });
        assert!(big.serialized_size() > 4 * small.serialized_size());
        assert_eq!(big.n_trees(), 40);
    }

    #[test]
    fn feature_subsampling_restricts_visibility() {
        let (x, y) = noisy_problem(300, 5);
        let forest = RandomForest::fit(
            &x,
            &y,
            2,
            &ForestParams { n_trees: 12, features_per_tree: Some(2), ..ForestParams::default() },
        );
        // Still functions end to end.
        let _ = forest.predict(&x[0]);
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (x, y) = noisy_problem(150, 6);
        let a = RandomForest::fit(&x, &y, 2, &ForestParams { seed: 9, ..Default::default() });
        let b = RandomForest::fit(&x, &y, 2, &ForestParams { seed: 9, ..Default::default() });
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_forest() {
        let (x, y) = noisy_problem(200, 7);
        let params = ForestParams { n_trees: 10, seed: 3, ..Default::default() };
        let serial = RandomForest::fit_with_threads(&x, &y, 2, &params, 1);
        let parallel = RandomForest::fit_with_threads(&x, &y, 2, &params, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        RandomForest::fit(
            &[vec![1.0]],
            &[0],
            1,
            &ForestParams { n_trees: 0, ..Default::default() },
        );
    }
}
