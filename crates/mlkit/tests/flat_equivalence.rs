//! Equivalence proofs for the rebuilt training and inference kernels.
//!
//! The production paths (sort-once columnar induction into the packed
//! node arena, the per-row and frontier walks over it) must be
//! indistinguishable from the seed algorithms kept in `reference`:
//!
//! - `reference::fit_tree` (the seed per-node-sorting algorithm) and
//!   `DecisionTree::fit` grow **equal** trees — same nodes, thresholds,
//!   purities, importances — on unweighted data, ties included.
//! - Both arena walks return bit-identical predictions and purities to
//!   the seed boxed walk, NaN probes and serialization round-trips
//!   included.
//! - Forests with baked feature maps vote exactly like the projection
//!   walk, and `RandomForest::fit` produces byte-identical models at any
//!   thread count.

use misam_mlkit::forest::{ForestParams, RandomForest};
use misam_mlkit::matrix::FeatureMatrix;
use misam_mlkit::reference;
use misam_mlkit::regression::{RegParams, RegressionTree};
use misam_mlkit::tree::{DecisionTree, TreeParams};
use proptest::prelude::*;

/// Random integer-grid dataset: small value alphabet forces tied
/// feature values, the hard case for sort-once induction (tie blocks
/// must not shift split choices).
fn grid_dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>, usize)> {
    (2usize..=4, 1usize..=5, 5usize..=60).prop_flat_map(|(nc, nf, n)| {
        (
            proptest::collection::vec(proptest::collection::vec(0i32..8, nf), n),
            proptest::collection::vec(0usize..nc, n),
            proptest::Just(nc),
        )
            .prop_map(|(xi, y, nc)| {
                let x: Vec<Vec<f64>> =
                    xi.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect()).collect();
                (x, y, nc)
            })
    })
}

/// Probe points on and off the training grid (half-integer coordinates
/// land exactly on thresholds' midpoints; `-2` becomes NaN, which must
/// descend right in every walk).
fn probes(nf: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (-2i32..20).prop_map(|v| if v == -2 { f64::NAN } else { v as f64 / 2.0 }),
            nf,
        ),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sort_once_induction_reproduces_the_reference_tree(
        (x, y, nc) in grid_dataset(),
        depth in 1usize..8,
        min_leaf in 1usize..4,
    ) {
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: min_leaf,
            ..TreeParams::default()
        };
        let reference = reference::fit_tree(&x, &y, nc, &params);
        let production = DecisionTree::fit(&x, &y, nc, &params);
        // Full structural equality: nodes, thresholds, purities,
        // importances — not merely matching predictions.
        prop_assert_eq!(&reference.to_tree(), &production);
        prop_assert_eq!(reference.to_tree().to_bytes(), production.to_bytes());
    }

    #[test]
    fn flat_tree_walk_is_bit_identical_to_boxed(
        (x, y, nc) in grid_dataset(),
        seed_probes in probes(5),
    ) {
        let boxed = reference::fit_tree(&x, &y, nc, &TreeParams::default());
        let tree = DecisionTree::fit(&x, &y, nc, &TreeParams::default());
        let nf = x[0].len();
        // Probe on training rows and on off-grid and NaN points
        // (truncated to the dataset's arity).
        let trimmed: Vec<Vec<f64>> = seed_probes.iter().map(|p| p[..nf].to_vec()).collect();
        let all: Vec<Vec<f64>> = x.iter().chain(trimmed.iter()).cloned().collect();
        for p in &all {
            let (bc, bp) = boxed.predict_with_purity(p);
            let (fc, fp) = tree.predict_with_purity(p);
            prop_assert_eq!(bc, fc);
            prop_assert!(bp.to_bits() == fp.to_bits(), "purity must be bit-identical");
        }
        // The frontier walk (and its scalar twin) agrees with the seed
        // row walk, NaN rows included.
        let m = FeatureMatrix::from_rows(&all);
        prop_assert_eq!(tree.predict_batch_matrix(&m), boxed.predict_batch(&all));
        prop_assert_eq!(tree.predict_batch_matrix_scalar(&m), boxed.predict_batch(&all));
    }

    #[test]
    fn serialization_roundtrips_preserve_predictions(
        (x, y, nc) in grid_dataset(),
    ) {
        let tree = DecisionTree::fit(&x, &y, nc, &TreeParams::default());
        let bytes = tree.to_bytes();
        // Decoding is lossless on the wire form: re-encoding reproduces
        // the bytes, and the decoded tree walks like the original on
        // every row (thresholds are stored as f32, so compare on the
        // training grid, where every midpoint is exact).
        let back = DecisionTree::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
        prop_assert_eq!(back.validate(), Ok(()));
        for p in &x {
            prop_assert_eq!(tree.predict(p), back.predict(p));
            let (_, bp) = tree.predict_with_purity(p);
            let (_, fp) = back.predict_with_purity(p);
            prop_assert!(bp.to_bits() == fp.to_bits());
        }
        let m = FeatureMatrix::from_rows(&x);
        prop_assert_eq!(back.predict_batch_matrix(&m), tree.predict_batch(&x));
    }

    #[test]
    fn regression_kernels_agree_on_continuous_features(
        raw in proptest::collection::vec((0i32..1000, 0i32..1000, -50i32..50), 5..60),
    ) {
        // Perturb coordinates per row so feature values are distinct —
        // with no ties, reference and production orderings are forced
        // identical and the trees must be equal.
        let x: Vec<Vec<f64>> = raw
            .iter()
            .enumerate()
            .map(|(i, (a, b, _))| {
                vec![*a as f64 + i as f64 * 1e-7, *b as f64 + i as f64 * 1e-7]
            })
            .collect();
        let y: Vec<f64> = raw.iter().map(|(a, b, c)| (*a - *b + *c) as f64 * 0.25).collect();
        let params = RegParams::default();
        let reference = reference::fit_regression(&x, &y, &params);
        let production = RegressionTree::fit(&x, &y, &params);
        prop_assert_eq!(&reference.to_tree(), &production);

        // Probe the training rows plus NaN in each feature.
        let mut rows = x.clone();
        rows.push(vec![f64::NAN, x[0][1]]);
        rows.push(vec![x[0][0], f64::NAN]);
        for p in &rows {
            let a = reference.predict(p);
            let b = production.predict(p);
            prop_assert!(a.to_bits() == b.to_bits(), "latency output must be bit-identical");
        }
        let m = FeatureMatrix::from_rows(&rows);
        let batch = production.predict_batch_matrix(&m);
        for (rb, p) in batch.iter().zip(&rows) {
            prop_assert!(rb.to_bits() == reference.predict(p).to_bits());
        }
    }
}

#[test]
fn forest_fit_is_byte_identical_across_thread_counts() {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..240 {
        x.push(vec![(i % 13) as f64, ((i * 7) % 29) as f64, ((i * 3) % 5) as f64, (i % 2) as f64]);
        y.push((i % 13 > 6) as usize + ((i * 7) % 29 > 14) as usize);
    }
    let params = ForestParams {
        n_trees: 12,
        features_per_tree: Some(3),
        seed: 42,
        ..ForestParams::default()
    };
    let one = RandomForest::fit_with_threads(&x, &y, 3, &params, 1);
    for threads in [2, 4, 8] {
        let many = RandomForest::fit_with_threads(&x, &y, 3, &params, threads);
        assert_eq!(one, many, "forest must be identical at {threads} threads");
        // Byte-identical through serialization too.
        assert_eq!(serde_json::to_string(&one).unwrap(), serde_json::to_string(&many).unwrap());
    }
}

#[test]
fn flat_forest_votes_like_the_boxed_forest() {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..150 {
        x.push(vec![(i % 11) as f64, ((i * 5) % 17) as f64, (i % 3) as f64]);
        y.push(usize::from(i % 11 > 5));
    }
    // Off-grid and NaN probes alongside the training rows.
    x.push(vec![f64::NAN, 3.5, 1.0]);
    x.push(vec![4.5, f64::NAN, f64::NAN]);
    let (fit_x, fit_y) = (&x[..150], &y[..]);
    for features_per_tree in [None, Some(1), Some(2)] {
        let params = ForestParams { n_trees: 9, features_per_tree, ..ForestParams::default() };
        let forest = RandomForest::fit(fit_x, fit_y, 2, &params);
        // The projection walk over the same members is the oracle for
        // the baked-in feature maps.
        let projected = reference::fit_projected_forest(fit_x, fit_y, 2, &params);
        let expected: Vec<usize> = x.iter().map(|p| projected.predict(p)).collect();
        let m = FeatureMatrix::from_rows(&x);
        assert_eq!(forest.predict_batch(&x), expected);
        assert_eq!(forest.predict_batch_matrix(&m), expected);
        assert_eq!(forest.predict_batch_matrix_scalar(&m), expected);
        let back: RandomForest =
            serde_json::from_str(&serde_json::to_string(&forest).unwrap()).unwrap();
        assert_eq!(back.predict_batch(&x), expected);
    }
}
