//! Bit-identity between the mlkit lane kernels and their scalar
//! references: the frontier-walk partition (branchless/AVX2 vs the
//! original branchy loop) and the full `predict_batch_matrix` path
//! against its scalar-pinned twin — over segment lengths 0, 1, lane−1,
//! lane, lane+1 and NaN-bearing columns.

use misam_mlkit::forest::{ForestParams, RandomForest};
use misam_mlkit::matrix::FeatureMatrix;
use misam_mlkit::simd;
use misam_mlkit::tree::{DecisionTree, TreeParams};
use proptest::prelude::*;

fn run_partition(
    vals: &[f64],
    t: f64,
    f: impl Fn(&[f64], f64, &mut [u32], &mut [u32], usize, usize) -> usize,
) -> (Vec<u32>, usize) {
    let mut idx: Vec<u32> = (0..vals.len() as u32).collect();
    let mut scratch = vec![0u32; vals.len()];
    let nl = f(vals, t, &mut idx, &mut scratch, 0, vals.len());
    idx[nl..].copy_from_slice(&scratch[..vals.len() - nl]);
    (idx, nl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partition: lanes (AVX2 where detected, branchless otherwise) vs
    /// the branchy scalar loop, with NaN injection — both the split
    /// point and the full permutation must match.
    #[test]
    fn partition_forms_agree(
        mut vals in proptest::collection::vec(-100.0f64..100.0, 0..80),
        t in -50.0f64..50.0,
        nan_at in proptest::collection::vec(0usize..80, 0..6),
    ) {
        for &p in &nan_at {
            if p < vals.len() {
                vals[p] = f64::NAN;
            }
        }
        let (s, nls) = run_partition(&vals, t, simd::partition_segment_scalar);
        let (l, nll) = run_partition(&vals, t, simd::partition_segment_lanes);
        prop_assert_eq!(nls, nll);
        prop_assert_eq!(s, l);
    }

    /// End-to-end frontier walk: the dispatched batch predictor vs the
    /// scalar-pinned twin on a fitted tree and forest.
    #[test]
    fn batch_predictors_match_scalar_twin(
        n_rows in 1usize..200,
        seed in 0u64..10_000,
    ) {
        let (train_x, train_y): (Vec<Vec<f64>>, Vec<usize>) = (0..150)
            .map(|i| {
                let a = ((i * 7 + seed as usize) % 17) as f64;
                let b = ((i * 13) % 23) as f64;
                (vec![a, b, (i % 5) as f64], usize::from(a > 8.0) + usize::from(b > 11.0))
            })
            .unzip();
        let tree = DecisionTree::fit(&train_x, &train_y, 3, &TreeParams::default());
        let params = ForestParams { n_trees: 5, features_per_tree: Some(2), ..Default::default() };
        let forest = RandomForest::fit(&train_x, &train_y, 3, &params);

        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| vec![((i * 3 + 1) % 17) as f64, ((i * 11) % 23) as f64, (i % 5) as f64])
            .collect();
        let m = FeatureMatrix::from_rows(&rows);
        prop_assert_eq!(tree.predict_batch_matrix(&m), tree.predict_batch_matrix_scalar(&m));
        prop_assert_eq!(forest.predict_batch_matrix(&m), forest.predict_batch_matrix_scalar(&m));
    }
}

/// Exact lane-boundary segment lengths (0, 1, 3, 4, 5, 7, 8, 9) plus
/// the all-left / all-right extremes the shuffle LUT's 0x0 and 0xF
/// entries cover.
#[test]
fn partition_boundary_lengths_and_extremes() {
    for n in [0usize, 1, 3, 4, 5, 7, 8, 9] {
        for t in [-1e9f64, 0.0, 1e9] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
            let (s, nls) = run_partition(&vals, t, simd::partition_segment_scalar);
            let (l, nll) = run_partition(&vals, t, simd::partition_segment_lanes);
            assert_eq!(nls, nll, "n={n} t={t}");
            assert_eq!(s, l, "n={n} t={t}");
        }
    }
}
