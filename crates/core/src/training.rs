//! Model training and evaluation: the design selector (§3.1) and the
//! reconfiguration engine's latency predictor (§3.3).

use crate::dataset::{Dataset, Objective};
use misam_features::{PairFeatures, FEATURE_NAMES};
use misam_mlkit::cv;
use misam_mlkit::error::ModelDecodeError;
use misam_mlkit::matrix::FeatureMatrix;
use misam_mlkit::metrics::{self, ConfusionMatrix};
use misam_mlkit::regression::{RegParams, RegressionTree};
use misam_mlkit::tree::{DecisionTree, TreeParams};
use misam_sim::DesignId;
use serde::{Deserialize, Serialize};

/// The fitted design classifier. Optionally restricted to a feature
/// subset (the paper's deployed model "is pruned and uses only the top
/// four features", §5.5).
///
/// The subset map is baked into the tree's split indices at fit time, so
/// the tree always takes full feature vectors and no predict path
/// projects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedSelector {
    tree: DecisionTree,
    /// When present, the tree was trained on `full[feature_map[i]]`
    /// (kept for naming; the splits already index the full vector).
    feature_map: Option<Vec<usize>>,
}

impl TrainedSelector {
    /// Predicts the optimal design for an operand pair's features.
    pub fn select(&self, features: &PairFeatures) -> DesignId {
        self.select_vector(&features.to_vector())
    }

    /// Predicts from an already-flattened **full** feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector arity differs from the training features.
    pub fn select_vector(&self, v: &[f64]) -> DesignId {
        DesignId::from_index(self.tree.predict(v))
    }

    /// Columnar batch form of [`TrainedSelector::select_vector`] over a
    /// matrix of **full** feature vectors (one row per operand pair),
    /// through the frontier walk; per-row results are bit-identical to
    /// the vector entry point.
    ///
    /// # Panics
    ///
    /// Panics if the matrix arity differs from the training features.
    pub fn select_batch_matrix(&self, m: &FeatureMatrix) -> Vec<DesignId> {
        self.tree.predict_batch_matrix(m).into_iter().map(DesignId::from_index).collect()
    }

    /// Indices (into `FEATURE_NAMES`) of the features this selector
    /// consumes, in training order.
    fn feature_indices(&self) -> Vec<usize> {
        self.feature_map.clone().unwrap_or_else(|| (0..FEATURE_NAMES.len()).collect())
    }

    /// Names of the features this selector consumes, in training order.
    pub fn feature_names(&self) -> Vec<&'static str> {
        self.feature_indices().into_iter().map(|i| FEATURE_NAMES[i]).collect()
    }

    /// The underlying decision tree (importances, size, serialization).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Checks that a decoded selector is safe to serve: a valid tree
    /// over the full feature vector with one class per design, and a
    /// subset map naming real features.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(&self) -> Result<(), ModelDecodeError> {
        let shape = |what, expected, found| {
            if expected == found {
                Ok(())
            } else {
                Err(ModelDecodeError::Shape { what, expected, found })
            }
        };
        shape("selector feature arity", FEATURE_NAMES.len(), self.tree.n_features())?;
        shape("selector class count", DesignId::ALL.len(), self.tree.n_classes())?;
        if let Some(&f) = self.feature_indices().iter().find(|&&f| f >= FEATURE_NAMES.len()) {
            return Err(ModelDecodeError::Shape {
                what: "selector feature-map entry",
                expected: FEATURE_NAMES.len(),
                found: f,
            });
        }
        self.tree.validate()
    }

    /// Incremental refresh for online learning: reduced-error-prunes a
    /// *copy* of the selector against a freshly labeled validation
    /// window (full feature vectors) and returns it with the number of
    /// splits removed. The serving selector is never mutated; when
    /// nothing prunes (`removed == 0`) the copy equals the original and
    /// callers can skip publishing.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or features/labels are mismatched.
    pub fn refreshed_with_validation(
        &self,
        x_val: &[Vec<f64>],
        y_val: &[usize],
    ) -> (TrainedSelector, usize) {
        assert!(!x_val.is_empty(), "refresh needs a non-empty validation window");
        let m = FeatureMatrix::from_rows(x_val);
        let (tree, removed) = self.tree.refreshed_with_validation_matrix(&m, y_val);
        (TrainedSelector { tree, feature_map: self.feature_map.clone() }, removed)
    }

    /// Feature importances paired with their names, sorted descending —
    /// the content of the paper's Figure 4.
    pub fn ranked_importances(&self) -> Vec<(&'static str, f64)> {
        let importances = self.tree.feature_importances();
        let mut pairs: Vec<(&'static str, f64)> = self
            .feature_indices()
            .into_iter()
            .map(|i| (FEATURE_NAMES[i], importances[i]))
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
        pairs
    }
}

/// Outcome of selector training: the model plus held-out evaluation.
#[derive(Debug, Clone)]
pub struct SelectorTraining {
    /// The fitted selector.
    pub selector: TrainedSelector,
    /// Validation accuracy on the held-out 30%.
    pub accuracy: f64,
    /// Validation confusion matrix (predicted × actual).
    pub confusion: ConfusionMatrix,
    /// Model footprint in bytes (compact serialization).
    pub model_bytes: usize,
}

/// Default tree hyperparameters for the design selector: deep enough to
/// carve the four regimes, pruned to stay in the paper's ~6 KB budget.
pub fn selector_params(labels: &[usize]) -> TreeParams {
    TreeParams {
        max_depth: 10,
        min_samples_leaf: 3,
        min_samples_split: 6,
        min_gain: 1e-6,
        class_weights: Some(metrics::inverse_frequency_weights(labels, 4)),
    }
}

/// Trains the design selector on 70% of `dataset` and evaluates on the
/// remaining 30% (the paper's split).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_selector(dataset: &Dataset, objective: Objective, seed: u64) -> SelectorTraining {
    train_selector_impl(dataset, objective, seed, None)
}

/// Trains the selector on a feature *subset* — the paper's deployed
/// configuration prunes to the top four features of Figure 4 with "no
/// measurable impact on accuracy" (§3.1, §5.5). `features` holds indices
/// into `misam_features::FEATURE_NAMES`.
///
/// # Panics
///
/// Panics if the dataset is empty, `features` is empty, or any index is
/// out of range.
pub fn train_selector_on_features(
    dataset: &Dataset,
    objective: Objective,
    seed: u64,
    features: &[usize],
) -> SelectorTraining {
    assert!(!features.is_empty(), "feature subset must be non-empty");
    assert!(features.iter().all(|&i| i < FEATURE_NAMES.len()), "feature index out of range");
    train_selector_impl(dataset, objective, seed, Some(features.to_vec()))
}

fn train_selector_impl(
    dataset: &Dataset,
    objective: Objective,
    seed: u64,
    feature_map: Option<Vec<usize>>,
) -> SelectorTraining {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    // One columnar matrix over the full corpus; splits and the feature
    // subset are gathered column-at-a-time from it.
    let m = FeatureMatrix::from_rows(&dataset.features());
    let y = dataset.labels(objective);
    let split = cv::train_test_split(m.n_rows(), 0.7, seed);

    // The paper's deployed tree is post-pruned (§3.1); hold back a
    // fifth of the training split as the pruning set so the 30%
    // validation accuracy stays honest. Tiny corpora skip pruning — the
    // holdback would cost more fit data than pruning saves.
    let cut = if split.train.len() >= 400 { split.train.len() * 4 / 5 } else { split.train.len() };
    let (fit_idx, prune_idx) = split.train.split_at(cut);
    let xt = m.gather_project(fit_idx, feature_map.as_deref());
    let yt = cv::gather(&y, fit_idx);
    let params = selector_params(&yt);
    let mut tree = DecisionTree::fit_matrix(&xt, &yt, 4, &params);
    // Bake the subset into the splits: from here on the tree reads full
    // feature vectors.
    if let Some(map) = &feature_map {
        tree = tree.with_feature_map(map, m.n_features());
    }
    if !prune_idx.is_empty() {
        let xp = m.gather(prune_idx);
        let yp = cv::gather(&y, prune_idx);
        tree.prune_with_validation_matrix(&xp, &yp);
    }

    let xv = m.gather(&split.validation);
    let yv = cv::gather(&y, &split.validation);
    let pred = tree.predict_batch_matrix(&xv);
    let accuracy = metrics::accuracy(&pred, &yv);
    let confusion = ConfusionMatrix::new(&pred, &yv, 4);
    let model_bytes = tree.serialized_size();

    SelectorTraining {
        selector: TrainedSelector { tree, feature_map },
        accuracy,
        confusion,
        model_bytes,
    }
}

/// K-fold cross-validated selector accuracy (the paper's 10-fold
/// protocol). Rounds run in parallel on `misam_oracle::pool` workers;
/// scores are identical to the serial protocol.
pub fn kfold_selector_accuracy(
    dataset: &Dataset,
    objective: Objective,
    k: usize,
    seed: u64,
) -> Vec<f64> {
    let m = FeatureMatrix::from_rows(&dataset.features());
    let y = dataset.labels(objective);
    cv::cross_validate_par(m.n_rows(), k, seed, |train, val| {
        let xt = m.gather(train);
        let yt = cv::gather(&y, train);
        let tree = DecisionTree::fit_matrix(&xt, &yt, 4, &selector_params(&yt));
        let xv = m.gather(val);
        let yv = cv::gather(&y, val);
        metrics::accuracy(&tree.predict_batch_matrix(&xv), &yv)
    })
}

/// The reconfiguration engine's latency model: one regression tree per
/// design, fitted on log10(latency) so residuals are relative errors —
/// the scale on which the paper reports MAE 0.344 and R² 0.978.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyPredictor {
    trees: Vec<RegressionTree>,
}

impl LatencyPredictor {
    /// Predicted log10(seconds) for a feature vector on one design.
    pub fn predict_log10(&self, v: &[f64], design: DesignId) -> f64 {
        self.trees[design.index()].predict(v)
    }

    /// Predicted seconds on every design for a full feature vector,
    /// indexed by `DesignId::index` — the latency table the
    /// reconfiguration rule weighs.
    pub fn latencies_s(&self, v: &[f64]) -> [f64; 4] {
        DesignId::ALL.map(|d| 10f64.powf(self.predict_log10(v, d)))
    }

    /// Columnar batch form of [`LatencyPredictor::predict_log10`] for
    /// one design across every row of `m`, through the frontier walk;
    /// per-row results are bit-identical to the vector entry point.
    pub fn predict_log10_batch(&self, m: &FeatureMatrix, design: DesignId) -> Vec<f64> {
        self.trees[design.index()].predict_batch_matrix(m)
    }

    /// Checks that a decoded predictor is safe to serve: one valid tree
    /// per design, each over the full feature vector.
    ///
    /// # Errors
    ///
    /// The first violation found (member failures wrapped with the
    /// design index as the tree index).
    pub fn validate(&self) -> Result<(), ModelDecodeError> {
        if self.trees.len() != DesignId::ALL.len() {
            return Err(ModelDecodeError::Shape {
                what: "latency tree count",
                expected: DesignId::ALL.len(),
                found: self.trees.len(),
            });
        }
        for (d, tree) in self.trees.iter().enumerate() {
            let check = if tree.n_features() == FEATURE_NAMES.len() {
                tree.validate()
            } else {
                Err(ModelDecodeError::Shape {
                    what: "latency feature arity",
                    expected: FEATURE_NAMES.len(),
                    found: tree.n_features(),
                })
            };
            check.map_err(|e| ModelDecodeError::Tree { tree: d, source: Box::new(e) })?;
        }
        Ok(())
    }
}

/// Outcome of latency-predictor training: the model plus held-out
/// residual statistics (Figure 9's metrics).
#[derive(Debug, Clone)]
pub struct LatencyTraining {
    /// The fitted predictor.
    pub predictor: LatencyPredictor,
    /// Mean absolute error of log10(latency) on the held-out set.
    pub mae: f64,
    /// R² of log10(latency) on the held-out set.
    pub r2: f64,
    /// Held-out residuals `(predicted - actual)` in log10 space.
    pub residuals: Vec<f64>,
}

/// Trains the latency predictor on 70% of `dataset` and reports residual
/// statistics on the remaining 30%.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_latency_predictor(dataset: &Dataset, seed: u64) -> LatencyTraining {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    let m = FeatureMatrix::from_rows(&dataset.features());
    let split = cv::train_test_split(m.n_rows(), 0.7, seed);
    let params = RegParams { max_depth: 16, min_samples_leaf: 2, ..RegParams::default() };

    // The four per-design targets share the same rows; gather the
    // feature split once instead of once per design.
    let xt = m.gather(&split.train);
    let xv = m.gather(&split.validation);

    let mut trees = Vec::with_capacity(4);
    let mut all_pred = Vec::new();
    let mut all_actual = Vec::new();

    for d in DesignId::ALL {
        let y: Vec<f64> = dataset.samples.iter().map(|s| s.times_s[d.index()].log10()).collect();
        let yt = cv::gather(&y, &split.train);
        let tree = RegressionTree::fit_matrix(&xt, &yt, &params);

        all_pred.extend(tree.predict_batch_matrix(&xv));
        all_actual.extend(split.validation.iter().map(|&i| y[i]));
        trees.push(tree);
    }

    let mae = metrics::mae(&all_pred, &all_actual);
    let r2 = metrics::r2(&all_pred, &all_actual);
    let residuals = all_pred.iter().zip(&all_actual).map(|(p, a)| p - a).collect();
    LatencyTraining { predictor: LatencyPredictor { trees }, mae, r2, residuals }
}

/// Trains the learned cycle-level surrogate (per-design regression
/// forests + calibrated confidence band) on a sim-labeled corpus. Thin
/// adapter over [`misam_oracle::SurrogateBundle::fit`]: the oracle
/// crate sits below this one, so it takes raw feature/latency arrays
/// and this function builds them from a [`Dataset`].
///
/// # Panics
///
/// Panics if the dataset is empty (see
/// [`misam_oracle::SurrogateBundle::fit`]).
pub fn train_surrogate(
    dataset: &Dataset,
    params: &misam_oracle::SurrogateTrainParams,
) -> misam_oracle::SurrogateBundle {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    let features = dataset.features();
    let times: Vec<[f64; 4]> = dataset.samples.iter().map(|s| s.times_s).collect();
    misam_oracle::SurrogateBundle::fit(&features, &times, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_features::TileConfig;
    use misam_sparse::gen;

    fn small_dataset() -> Dataset {
        Dataset::generate(250, 42)
    }

    #[test]
    fn selector_beats_majority_baseline() {
        let ds = small_dataset();
        let hist = ds.label_histogram(Objective::Latency);
        let majority = *hist.iter().max().unwrap() as f64 / ds.len() as f64;
        let t = train_selector(&ds, Objective::Latency, 1);
        assert!(
            t.accuracy > majority.max(0.5),
            "accuracy {:.2} should beat majority {:.2}",
            t.accuracy,
            majority
        );
    }

    #[test]
    fn selector_msdt_bytes_are_pinned() {
        // FNV-1a over the compact encoding of a fixed-seed selector: the
        // digest was recorded before trees moved to packed node records,
        // so any change to fitting, pruning or the wire format shows
        // here.
        let t = train_selector(&Dataset::generate(120, 55), Objective::Latency, 1);
        let bytes = t.selector.tree().to_bytes();
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(bytes.len(), 256);
        assert_eq!(digest, 0xe054_4f54_7765_b382, "selector bytes moved: {digest:#018x}");
    }

    #[test]
    fn feature_subset_is_baked_into_the_splits() {
        // A subset-trained selector reads full vectors directly, keeps
        // its importances on the subset, and its batch and per-row
        // walks agree.
        let ds = small_dataset();
        let subset = [0, 3, 5, 7];
        let t = train_selector_on_features(&ds, Objective::Latency, 9, &subset);
        assert_eq!(t.selector.tree().n_features(), FEATURE_NAMES.len());
        assert_eq!(t.selector.feature_names(), subset.map(|i| FEATURE_NAMES[i]).to_vec());
        let imp = t.selector.tree().feature_importances();
        assert!((0..FEATURE_NAMES.len()).all(|i| subset.contains(&i) || imp[i] == 0.0));
        let features = ds.features();
        let m = FeatureMatrix::from_rows(&features);
        let batch = t.selector.select_batch_matrix(&m);
        for (v, d) in features.iter().zip(batch) {
            assert_eq!(t.selector.select_vector(v), d);
        }
        assert_eq!(t.selector.validate(), Ok(()));
    }

    #[test]
    fn selector_model_is_compact() {
        let t = train_selector(&small_dataset(), Objective::Latency, 2);
        assert!(t.model_bytes < 64 * 1024, "model is {} bytes", t.model_bytes);
    }

    #[test]
    fn selector_accepts_real_features() {
        let t = train_selector(&small_dataset(), Objective::Latency, 3);
        let a = gen::power_law(512, 512, 6.0, 1.5, 9);
        let b = gen::uniform_random(512, 256, 0.1, 10);
        let f = PairFeatures::extract(&a, &b, &TileConfig::default());
        let _design = t.selector.select(&f); // any valid design is fine
        assert!(DesignId::ALL.contains(&t.selector.select(&f)));
    }

    #[test]
    fn ranked_importances_are_sorted_and_named() {
        let t = train_selector(&small_dataset(), Objective::Latency, 4);
        let ranked = t.selector.ranked_importances();
        assert_eq!(ranked.len(), misam_features::FEATURE_NAMES.len());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(ranked[0].1 > 0.0, "top feature must carry importance");
    }

    #[test]
    fn latency_predictor_tracks_simulator() {
        let ds = small_dataset();
        let t = train_latency_predictor(&ds, 5);
        // 250 samples is far below the paper's 19,000; the quality
        // claims are asserted at larger scale in the integration tests
        // and measured in the fig09 binary (R2 ~0.96).
        assert!(t.r2 > 0.6, "R2 {:.3} too low", t.r2);
        assert!(t.mae < 0.7, "log10 MAE {:.3} too high", t.mae);
        assert_eq!(t.residuals.len(), (ds.len() - ds.len() * 7 / 10) * 4);
    }

    #[test]
    fn latency_predictor_returns_positive_seconds() {
        let ds = small_dataset();
        let t = train_latency_predictor(&ds, 6);
        let a = gen::uniform_random_lazy(256, 256, 0.05, 11);
        let f = PairFeatures::extract_dense_b(&a, 256, 128, &TileConfig::default());
        for s in t.predictor.latencies_s(&f.to_vector()) {
            assert!(s > 0.0 && s.is_finite());
        }
    }

    #[test]
    fn kfold_scores_are_plausible() {
        let ds = Dataset::generate(150, 43);
        let scores = kfold_selector_accuracy(&ds, Objective::Latency, 5, 7);
        assert_eq!(scores.len(), 5);
        let mean = scores.iter().sum::<f64>() / 5.0;
        assert!(mean > 0.5, "5-fold mean accuracy {mean:.2} too low");
    }

    #[test]
    fn energy_objective_trains_too() {
        let ds = small_dataset();
        let t = train_selector(&ds, Objective::Energy, 8);
        assert!(t.accuracy > 0.4);
    }
}
