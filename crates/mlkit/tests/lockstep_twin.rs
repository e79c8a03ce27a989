//! The lock-step forest walk against the per-tree loop it replaced.
//!
//! [`RegressionForest::predict`] advances every member tree one level
//! per sweep, so the node loads of different trees overlap. Its answer
//! must stay the per-tree loop's bit for bit: each tree's leaf value
//! summed left to right in tree order, then one divide by the tree
//! count. Covered here: fitted forests of 1, 15, 16, 17 and 64 trees
//! (either side of the walk's 16-tree block), forests of single-leaf
//! trees, hand-built depth-14 trees (a complete tree and chains that
//! end at every depth), probes with NaN and infinite features (NaN
//! goes right), and a forest at the surrogate's shape decoded from its
//! JSON the way a surrogate bundle's forests are.

use misam_mlkit::regforest::{RegForestParams, RegressionForest};
use misam_mlkit::regression::RegParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed walk: one tree at a time, summed in tree order.
fn per_tree(forest: &RegressionForest, x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for tree in forest.trees() {
        sum += tree.predict(x);
    }
    sum / forest.n_trees() as f64
}

fn assert_twin(forest: &RegressionForest, probes: &[Vec<f64>], what: &str) {
    assert_eq!(forest.validate(), Ok(()), "{what}");
    for x in probes {
        assert_eq!(
            forest.predict(x).to_bits(),
            per_tree(forest, x).to_bits(),
            "{what}: probe {x:?}"
        );
    }
    let batch = forest.predict_batch(probes);
    for (x, y) in probes.iter().zip(batch) {
        assert_eq!(y.to_bits(), per_tree(forest, x).to_bits(), "{what}: batch");
    }
}

fn noisy(n: usize, nf: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> =
        (0..n).map(|_| (0..nf).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    let y = x
        .iter()
        .map(|f| (7.0 * f[0]).sin() + f[1 % nf] * f[2 % nf] + 0.1 * rng.gen_range(-1.0..1.0))
        .collect();
    (x, y)
}

/// Random probes plus the training rows, with every fourth probe
/// carrying a NaN and some carrying infinities, so paths reach both
/// sides of every threshold and NaN's right turn is exercised.
fn probes(train: &[Vec<f64>], nf: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<f64>> = train.iter().take(64).cloned().collect();
    for i in 0..200 {
        let mut x: Vec<f64> = (0..nf).map(|_| rng.gen_range(-0.2..1.2)).collect();
        match i % 4 {
            0 => x[rng.gen_range(0..nf)] = f64::NAN,
            1 if i % 8 == 1 => x[rng.gen_range(0..nf)] = f64::INFINITY,
            1 => x[rng.gen_range(0..nf)] = f64::NEG_INFINITY,
            _ => {}
        }
        out.push(x);
    }
    out.push(vec![f64::NAN; nf]);
    out
}

#[test]
fn fitted_forests_either_side_of_the_block_width() {
    let nf = 6;
    let (x, y) = noisy(300, nf, 11);
    let probes = probes(&x, nf, 12);
    for n_trees in [1, 15, 16, 17, 64] {
        for features_per_tree in [None, Some(3)] {
            let params = RegForestParams {
                n_trees,
                tree: RegParams { min_samples_leaf: 1, ..RegParams::default() },
                features_per_tree,
                seed: n_trees as u64,
                ..Default::default()
            };
            let forest = RegressionForest::fit(&x, &y, &params);
            assert_eq!(forest.n_trees(), n_trees);
            assert_twin(&forest, &probes, &format!("{n_trees} trees, {features_per_tree:?}"));
        }
    }
}

#[test]
fn single_leaf_trees() {
    // A constant target grows no split: every member is one leaf.
    let nf = 3;
    let (x, _) = noisy(40, nf, 21);
    let y = vec![0.3; x.len()];
    let probes = probes(&x, nf, 22);
    for n_trees in [1, 16, 17] {
        let params = RegForestParams { n_trees, ..Default::default() };
        let forest = RegressionForest::fit(&x, &y, &params);
        assert_eq!(forest.node_count(), n_trees, "one node per tree");
        assert_twin(&forest, &probes, &format!("{n_trees} single leaves"));
    }
}

/// Pre-order records of a complete tree of `depth` levels of splits:
/// `[threshold, left, right, feature]`, leaves marked by feature 65535.
fn complete(depth: u32, nf: usize, rng: &mut StdRng, out: &mut Vec<String>) {
    let me = out.len();
    out.push(String::new());
    if depth == 0 {
        out[me] = format!("[{:?},0,0,65535]", rng.gen_range(-2.0..2.0));
        return;
    }
    let feature = rng.gen_range(0..nf);
    let threshold: f64 = rng.gen_range(0.0..1.0);
    complete(depth - 1, nf, rng, out);
    let right = out.len();
    complete(depth - 1, nf, rng, out);
    out[me] = format!("[{threshold:?},{},{right},{feature}]", me + 1);
}

/// Pre-order records of a chain of `depth` splits, each with one leaf
/// child; bit `level` of `lean` picks whether the chain goes on to the
/// left (0) or the right (1) at that level.
fn chain(depth: u32, level: u32, lean: u64, nf: usize, rng: &mut StdRng, out: &mut Vec<String>) {
    let me = out.len();
    out.push(String::new());
    if level == depth {
        out[me] = format!("[{:?},0,0,65535]", rng.gen_range(-2.0..2.0));
        return;
    }
    let feature = rng.gen_range(0..nf);
    let threshold: f64 = rng.gen_range(0.0..1.0);
    let leaf = format!("[{:?},0,0,65535]", rng.gen_range(-2.0..2.0));
    if lean >> level & 1 == 0 {
        chain(depth, level + 1, lean, nf, rng, out);
        out.push(leaf);
    } else {
        out.push(leaf);
        chain(depth, level + 1, lean, nf, rng, out);
    }
    let right = if lean >> level & 1 == 0 { out.len() - 1 } else { me + 2 };
    out[me] = format!("[{threshold:?},{},{right},{feature}]", me + 1);
}

fn forest_json(trees: &[Vec<String>], nf: usize) -> String {
    let trees: Vec<String> = trees
        .iter()
        .map(|nodes| format!(r#"{{"arena":{{"nodes":[{}],"n_features":{nf}}}}}"#, nodes.join(",")))
        .collect();
    format!(r#"{{"trees":[{}],"n_features":{nf}}}"#, trees.join(","))
}

#[test]
fn depth_14_trees_mixed_with_shallow_ones() {
    let nf = 4;
    let mut rng = StdRng::seed_from_u64(31);
    let mut trees = Vec::new();
    let mut full = Vec::new();
    complete(14, nf, &mut rng, &mut full);
    assert_eq!(full.len(), (1 << 15) - 1);
    trees.push(full);
    // Chains of every depth 0..=14, each leaning a different way, so
    // the trees of one block reach their leaves at different sweeps.
    for depth in 0..=14u32 {
        let mut nodes = Vec::new();
        chain(depth, 0, rng.gen(), nf, &mut rng, &mut nodes);
        assert_eq!(nodes.len(), 2 * depth as usize + 1);
        trees.push(nodes);
    }
    let mut more = trees.clone();
    more.extend(trees.iter().take(9).cloned());
    let x: Vec<Vec<f64>> =
        (0..50).map(|_| (0..nf).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    let probes = probes(&x, nf, 32);
    for (what, set) in [("16 trees", &trees), ("25 trees", &more)] {
        let forest: RegressionForest = serde_json::from_str(&forest_json(set, nf)).unwrap();
        assert_eq!(forest.n_trees(), set.len());
        assert_twin(&forest, &probes, what);
    }
}

#[test]
fn surrogate_shaped_forest_decoded_from_json() {
    // The surrogate fits 16 trees of depth up to 14 per design and
    // ships them as JSON; decode one and walk the decoded copy.
    let nf = 12;
    let (x, y) = noisy(600, nf, 41);
    let params = RegForestParams { n_trees: 16, seed: 41, ..Default::default() };
    let fitted = RegressionForest::fit(&x, &y, &params);
    let decoded: RegressionForest =
        serde_json::from_str(&serde_json::to_string(&fitted).unwrap()).unwrap();
    assert_eq!(decoded, fitted);
    assert_twin(&decoded, &probes(&x, nf, 42), "decoded surrogate-shaped forest");
}
