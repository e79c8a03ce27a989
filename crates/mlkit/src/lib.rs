//! Machine-learning toolkit for Misam: decision trees and evaluation
//! utilities, implemented from scratch.
//!
//! The paper deliberately avoids heavyweight inference stacks ("instead of
//! using a Python inference library … we implemented a custom inference
//! function", §5.5); this crate is that custom implementation. It
//! provides:
//!
//! - [`tree::DecisionTree`] — a CART classifier with gini impurity,
//!   inverse-frequency class weighting (§3.1's imbalance mitigation),
//!   depth/leaf-size/gain pruning, gini feature importance, and a compact
//!   16-byte-per-node serialization that realises the paper's 6 KB model
//!   footprint.
//! - [`regression::RegressionTree`] — a variance-reduction regression
//!   tree, the latency predictor inside the reconfiguration engine
//!   (§3.3, Figure 9).
//! - [`forest::RandomForest`] — the bagged-ensemble counterfactual, used
//!   by the model-ablation experiment to measure what the single-tree
//!   choice trades away.
//! - [`regforest::RegressionForest`] — the bagged regression ensemble
//!   behind the learned cycle-level surrogate oracle (per-design
//!   log-latency prediction, deterministic at any thread count).
//! - [`metrics`] — accuracy, confusion matrices, MAE, R², geometric
//!   means and class weights.
//! - [`cv`] — seeded train/validation splits and k-fold cross-validation
//!   (the paper's 70/30 split and 10-fold protocol), serial or parallel.
//! - [`matrix::FeatureMatrix`] — columnar (structure-of-arrays) feature
//!   storage shared by every training path; induction is sort-once over
//!   pre-argsorted per-feature index rows instead of re-sorting at every
//!   node.
//! - [`error::ModelDecodeError`] — typed decode and validation failures
//!   (byte offsets for the compact wire format, node indices for
//!   structural faults).
//! - [`simd`] — the frontier walk's segment partition: an AVX2 body and
//!   its always-compiled scalar twin.
//! - [`reference`](mod@reference) — the original per-node-sorting induction algorithms
//!   and the seed boxed-node walk, kept verbatim for equivalence tests
//!   and benchmarks.
//!
//! # One tree layout
//!
//! Every model above fits into the same packed node arena: one record
//! per node holding the threshold, both children and the split feature,
//! with a leaf sentinel (classifier leaves keep class and purity,
//! regression leaves the value). The sort-once builders emit records
//! directly; forests and feature-subset selectors bake their feature
//! maps into the split indices at fit time, so no predict path projects
//! features. Two walks serve everything: a per-row descent and a
//! frontier walk that partitions a whole [`matrix::FeatureMatrix`] node
//! by node. Decoders validate every untrusted tree (forward in-range
//! links, in-range features and classes) before either walk can touch
//! it.
//!
//! # Example
//!
//! ```
//! use misam_mlkit::tree::{DecisionTree, TreeParams};
//!
//! // XOR-ish toy problem.
//! let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
//! let y = vec![0, 1, 1, 0];
//! let tree = DecisionTree::fit(&x, &y, 2, &TreeParams::default());
//! assert_eq!(tree.predict(&[1.0, 0.0]), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod arena;
pub mod cv;
pub mod error;
pub mod forest;
pub mod matrix;
pub mod metrics;
pub mod reference;
pub mod regforest;
pub mod regression;
pub mod simd;
pub mod tree;

/// Fixed-dataset checks that the flat node arena behind every model
/// walks, encodes and votes exactly like the seed's boxed layout kept in
/// [`reference`]. The randomized counterparts live in
/// `tests/flat_equivalence.rs`.
#[cfg(test)]
mod flat {
    mod tests {
        use crate::forest::{ForestParams, RandomForest};
        use crate::matrix::FeatureMatrix;
        use crate::reference;
        use crate::regression::RegParams;
        use crate::tree::{DecisionTree, TreeParams};

        fn demo_data() -> (Vec<Vec<f64>>, Vec<usize>) {
            let mut x = Vec::new();
            let mut y = Vec::new();
            for i in 0..200 {
                let a = (i % 17) as f64;
                let b = ((i * 7) % 23) as f64;
                let c = ((i * 3) % 5) as f64;
                x.push(vec![a, b, c]);
                y.push(usize::from(a > 8.0) + usize::from(b > 11.0));
            }
            (x, y)
        }

        #[test]
        fn flat_tree_matches_boxed_tree() {
            let (x, y) = demo_data();
            let boxed = reference::fit_tree(&x, &y, 3, &TreeParams::default());
            let flat = DecisionTree::fit(&x, &y, 3, &TreeParams::default());
            assert_eq!(flat, boxed.to_tree(), "arena tree must equal the boxed tree node for node");
            for xi in &x {
                assert_eq!(boxed.predict(xi), flat.predict(xi));
                let (bc, bp) = boxed.predict_with_purity(xi);
                let (fc, fp) = flat.predict_with_purity(xi);
                assert_eq!(bc, fc);
                assert_eq!(bp.to_bits(), fp.to_bits(), "purity must be bit-identical");
            }
            let m = FeatureMatrix::from_rows(&x);
            assert_eq!(flat.predict_batch(&x), boxed.predict_batch(&x));
            assert_eq!(flat.predict_batch_matrix(&m), boxed.predict_batch(&x));
            assert_eq!(flat.predict_batch_matrix_scalar(&m), boxed.predict_batch(&x));
        }

        #[test]
        fn flat_tree_bytes_are_msdt_compatible() {
            let (x, y) = demo_data();
            let boxed = reference::fit_tree(&x, &y, 3, &TreeParams::default());
            let flat = DecisionTree::fit(&x, &y, 3, &TreeParams::default());
            let bytes = flat.to_bytes();
            assert_eq!(&bytes[..4], b"MSDT");
            assert_eq!(bytes, boxed.to_tree().to_bytes(), "wire formats must be byte-identical");
            assert_eq!(bytes.len(), flat.serialized_size());
            let back = DecisionTree::from_bytes(&bytes).unwrap();
            assert_eq!(back.validate(), Ok(()));
            assert_eq!(back.to_bytes(), bytes, "re-encoding must reproduce the bytes");
            // Thresholds travel as f32; on this integer grid every
            // midpoint is exact, so the decoded tree walks like the seed.
            for xi in &x {
                assert_eq!(back.predict(xi), boxed.predict(xi));
            }
        }

        #[test]
        fn flat_regression_matches_boxed() {
            let x: Vec<Vec<f64>> =
                (0..300).map(|i| vec![(i % 31) as f64, (i % 7) as f64]).collect();
            let y: Vec<f64> = x.iter().map(|r| r[0].mul_add(2.0, r[1])).collect();
            let boxed = reference::fit_regression(&x, &y, &RegParams::default());
            let flat = boxed.to_tree();
            for xi in &x {
                let a = boxed.predict(xi);
                let b = flat.predict(xi);
                assert!(a.to_bits() == b.to_bits(), "regression output must be bit-identical");
            }
            let m = FeatureMatrix::from_rows(&x);
            let want: Vec<f64> = x.iter().map(|r| boxed.predict(r)).collect();
            let rows: Vec<u64> = flat.predict_batch(&x).iter().map(|v| v.to_bits()).collect();
            let cols: Vec<u64> =
                flat.predict_batch_matrix(&m).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rows, want);
            assert_eq!(cols, want);
        }

        #[test]
        fn flat_forest_matches_boxed_and_roundtrips() {
            let (x, y) = demo_data();
            let params =
                ForestParams { n_trees: 8, features_per_tree: Some(2), ..ForestParams::default() };
            let forest = RandomForest::fit(&x, &y, 3, &params);
            let projected = reference::fit_projected_forest(&x, &y, 3, &params);
            assert_eq!(forest.n_trees(), 8);
            let expected: Vec<usize> = x.iter().map(|p| projected.predict(p)).collect();
            let m = FeatureMatrix::from_rows(&x);
            assert_eq!(forest.predict_batch(&x), expected);
            assert_eq!(forest.predict_batch_matrix(&m), expected);

            let json = serde_json::to_string(&forest).unwrap();
            let back: RandomForest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, forest);
            assert_eq!(back.predict_batch(&x), expected);
        }
    }
}
