//! Bagged regression forest — the ensemble form of
//! [`crate::regression::RegressionTree`], built for the learned
//! cycle-level surrogate executor.
//!
//! The surrogate oracle (see `misam-oracle::surrogate`) predicts
//! per-design log-latency from pair features; a single regression tree
//! overfits the corpus shape grid, so the surrogate trains one bagged
//! forest per design. Induction shares [`crate::forest::RandomForest`]'s
//! bagging exactly: every random draw (feature subsets, bootstrap
//! indices) is sequenced **serially** from the seeded RNG before any
//! worker starts, so the fitted forest is bit-identical at any thread
//! count, and each tree's feature map is baked into its splits at fit
//! time. Prediction averages the member trees in tree order (a fixed
//! left-to-right sum, then one divide) over the unprojected input, so
//! inference is deterministic too — and it is the surrogate oracle's
//! per-pair hot path, walked directly on the packed node records, every
//! tree one level per sweep so their node loads overlap.

use crate::arena::lockstep_leaves;
use crate::error::ModelDecodeError;
use crate::forest::{bag, Bagging};
use crate::matrix::FeatureMatrix;
use crate::regression::{RegParams, RegressionTree};
use serde::{Deserialize, Serialize};

/// Hyperparameters for regression-forest induction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Parameters of each member tree.
    pub tree: RegParams,
    /// Fraction of the training set bootstrapped per tree.
    pub sample_fraction: f64,
    /// Features visible to each tree (a random subset per tree; `None`
    /// uses all features).
    pub features_per_tree: Option<usize>,
    /// Seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for RegForestParams {
    fn default() -> Self {
        RegForestParams {
            n_trees: 16,
            tree: RegParams::default(),
            sample_fraction: 0.8,
            features_per_tree: None,
            seed: 0,
        }
    }
}

/// A bagged ensemble of regression trees, averaged in tree order.
/// Every tree's feature map is baked into its splits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionForest {
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl RegressionForest {
    /// Fits a forest to feature rows `x` and real-valued targets `y`,
    /// growing trees in parallel (worker count from `MISAM_THREADS`,
    /// default all cores). The result is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RegressionTree::fit`], or
    /// if `n_trees == 0`, `sample_fraction` is outside `(0, 1]`, or
    /// `features_per_tree` is 0 or exceeds the feature count.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &RegForestParams) -> Self {
        assert!(!x.is_empty(), "cannot fit a forest to an empty dataset");
        Self::fit_matrix(&FeatureMatrix::from_rows(x), y, params)
    }

    /// [`RegressionForest::fit`] with an explicit worker count (1 = serial).
    pub fn fit_with_threads(
        x: &[Vec<f64>],
        y: &[f64],
        params: &RegForestParams,
        threads: usize,
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a forest to an empty dataset");
        Self::fit_inner(&FeatureMatrix::from_rows(x), y, params, threads)
    }

    /// Fits a forest to columnar features.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RegressionForest::fit`].
    pub fn fit_matrix(m: &FeatureMatrix, y: &[f64], params: &RegForestParams) -> Self {
        Self::fit_inner(m, y, params, misam_pool::default_threads())
    }

    fn fit_inner(m: &FeatureMatrix, y: &[f64], params: &RegForestParams, threads: usize) -> Self {
        let n_features = m.n_features();
        let trees = bag(m, &params.bagging(), threads, |sub, plan| {
            let ys: Vec<f64> = plan.boot.iter().map(|&i| y[i]).collect();
            RegressionTree::fit_matrix(sub, &ys, &params.tree)
                .with_feature_map(&plan.map, n_features)
        });
        RegressionForest { trees, n_features }
    }

    /// Predicts by averaging the member trees in tree order. The trees
    /// are walked in lock-step, every tree one level per sweep so their
    /// node loads overlap, and their leaf values summed left to right,
    /// then divided once: the same value, bit for bit, as walking one
    /// tree after another.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training arity.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature vector has wrong arity");
        let mut sum = 0.0;
        lockstep_leaves(&self.trees, RegressionTree::arena, features, |leaf| {
            sum += leaf.threshold;
        });
        sum / self.trees.len() as f64
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|f| self.predict(f)).collect()
    }

    /// The member trees, in the order [`RegressionForest::predict`]
    /// sums them.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total node count across all trees (footprint proxy).
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(RegressionTree::node_count).sum()
    }

    /// Checks that the forest has trees and that every member is safe to
    /// walk and takes the forest's arity (see
    /// [`RegressionTree::validate`]).
    ///
    /// # Errors
    ///
    /// [`ModelDecodeError::Empty`] for a forest without trees, or the
    /// first member failure wrapped in [`ModelDecodeError::Tree`].
    pub fn validate(&self) -> Result<(), ModelDecodeError> {
        if self.trees.is_empty() {
            return Err(ModelDecodeError::Empty);
        }
        for (t, tree) in self.trees.iter().enumerate() {
            let check = if tree.n_features() == self.n_features {
                tree.validate()
            } else {
                Err(ModelDecodeError::Shape {
                    what: "tree feature arity",
                    expected: self.n_features,
                    found: tree.n_features(),
                })
            };
            check.map_err(|e| ModelDecodeError::Tree { tree: t, source: Box::new(e) })?;
        }
        Ok(())
    }
}

impl RegForestParams {
    /// The bagging shape these parameters describe (crate-internal:
    /// fitting and the reference projection oracle). The salt differs
    /// from the classifier forest's so the two ensembles never share
    /// bootstrap streams even at equal seeds.
    pub(crate) fn bagging(&self) -> Bagging {
        Bagging {
            n_trees: self.n_trees,
            sample_fraction: self.sample_fraction,
            features_per_tree: self.features_per_tree,
            seed: self.seed ^ 0x5e_66e57,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::NodeRecord;
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_curve(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let f: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..1.0)).collect();
            let target = 3.0 * f[0] + f[1] * f[1] + 0.05 * rng.gen_range(-1.0..1.0);
            x.push(f);
            y.push(target);
        }
        (x, y)
    }

    #[test]
    fn forest_fits_and_predicts() {
        let (x, y) = noisy_curve(400, 1);
        let forest = RegressionForest::fit(&x, &y, &RegForestParams::default());
        let mae = x.iter().zip(&y).map(|(xi, yi)| (forest.predict(xi) - yi).abs()).sum::<f64>()
            / x.len() as f64;
        assert!(mae < 0.25, "train MAE {mae:.3}");
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (x, y) = noisy_curve(150, 2);
        let a = RegressionForest::fit(&x, &y, &RegForestParams { seed: 9, ..Default::default() });
        let b = RegressionForest::fit(&x, &y, &RegForestParams { seed: 9, ..Default::default() });
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_forest() {
        let (x, y) = noisy_curve(200, 3);
        let params = RegForestParams { n_trees: 10, seed: 3, ..Default::default() };
        let serial = RegressionForest::fit_with_threads(&x, &y, &params, 1);
        let parallel = RegressionForest::fit_with_threads(&x, &y, &params, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn packed_form_is_bit_identical_including_feature_subsets() {
        // Baked feature maps must average exactly like the projection
        // walk over the same members.
        let (x, y) = noisy_curve(250, 7);
        for features_per_tree in [None, Some(2), Some(5)] {
            let params =
                RegForestParams { n_trees: 6, features_per_tree, seed: 7, ..Default::default() };
            let forest = RegressionForest::fit(&x, &y, &params);
            let projected = reference::fit_projected_regression_forest(&x, &y, &params);
            assert_eq!(forest.n_trees(), 6);
            for xi in &x {
                assert_eq!(forest.predict(xi).to_bits(), projected.predict(xi).to_bits());
            }
        }
    }

    #[test]
    fn validate_rejects_tampered_members() {
        let (x, y) = noisy_curve(120, 8);
        let mut forest =
            RegressionForest::fit(&x, &y, &RegForestParams { n_trees: 3, ..Default::default() });
        assert_eq!(forest.validate(), Ok(()));
        // A root that links back to itself would never terminate.
        let cycle = vec![NodeRecord::split(0, 0.5, 0, 1), NodeRecord::value_leaf(1.0)];
        forest.trees[1] = RegressionTree::from_parts(cycle, 5);
        match forest.validate() {
            Err(ModelDecodeError::Tree { tree: 1, source }) => assert!(matches!(
                *source,
                ModelDecodeError::LinkOutOfRange { node: 0, link: 0, count: 2 }
            )),
            other => panic!("expected a wrapped link error, got {other:?}"),
        }
        forest.trees[1] = RegressionTree::from_parts(vec![NodeRecord::value_leaf(1.0)], 4);
        assert!(matches!(forest.validate(), Err(ModelDecodeError::Tree { tree: 1, .. })));
        forest.trees.clear();
        assert_eq!(forest.validate(), Err(ModelDecodeError::Empty));
    }

    #[test]
    fn feature_subsampling_restricts_visibility() {
        let (x, y) = noisy_curve(300, 4);
        let forest = RegressionForest::fit(
            &x,
            &y,
            &RegForestParams { n_trees: 8, features_per_tree: Some(2), ..Default::default() },
        );
        let _ = forest.predict(&x[0]);
        assert_eq!(forest.n_trees(), 8);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let (x, y) = noisy_curve(120, 5);
        let forest =
            RegressionForest::fit(&x, &y, &RegForestParams { n_trees: 6, ..Default::default() });
        let json = serde_json::to_string(&forest).unwrap();
        let back: RegressionForest = serde_json::from_str(&json).unwrap();
        assert_eq!(forest, back);
        assert_eq!(forest.predict(&x[0]).to_bits(), back.predict(&x[0]).to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        RegressionForest::fit(
            &[vec![1.0]],
            &[0.5],
            &RegForestParams { n_trees: 0, ..Default::default() },
        );
    }
}
