//! Measures the rebuilt mlkit training and inference kernels against
//! the seed algorithms and writes `BENCH_train.json`.
//!
//! Three views, all on a selector-shaped workload (full `PairFeatures`
//! width, four classes):
//!
//! * **tree / regression fit** — the seed per-node-sorting induction
//!   (kept verbatim in `misam_mlkit::reference`) vs the sort-once
//!   columnar builder behind today's `fit`.
//! * **batched prediction** — the seed boxed-node walk (also in
//!   `reference`) vs the packed node arena: the frontier walk over a
//!   prebuilt columnar matrix (the serving steady state: one transpose
//!   shared by the selector and all four latency trees), and the
//!   per-row arena walk over the row-major vectors as given.
//! * **forest fit** — one thread vs the worker pool, which must return
//!   a byte-identical model.
//!
//! Every timed pair is checked equal (trees structurally, predictions
//! bit-for-bit) before any number is written.

use misam_mlkit::forest::{ForestParams, RandomForest};
use misam_mlkit::matrix::FeatureMatrix;
use misam_mlkit::reference;
use misam_mlkit::regression::{RegParams, RegressionTree};
use misam_mlkit::tree::{DecisionTree, TreeParams};
use misam_oracle::pool;
use serde::Serialize;
use std::time::Instant;

const ROWS: usize = 8192;
const FEATURES: usize = 24; // full PairFeatures width
const CLASSES: usize = 4;
const REPS: usize = 5;

#[derive(Serialize)]
struct Kernel {
    seed_ns: f64,
    new_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ForestBench {
    n_trees: usize,
    threads: usize,
    serial_ns: f64,
    parallel_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Doc {
    bench: String,
    rows: usize,
    features: usize,
    classes: usize,
    reps: usize,
    /// CPUs visible to the process — bounds what the parallel-forest
    /// view can show (1 means serial and parallel are the same work).
    host_cpus: usize,
    models_identical: bool,
    /// Seed per-node-sort induction vs sort-once columnar induction.
    tree_fit: Kernel,
    /// Same comparison for the latency model's regression trees.
    regression_fit: Kernel,
    /// Seed boxed row walk vs the arena frontier walk, columnar matrix
    /// prebuilt (the serving steady state: one transpose shared by five
    /// trees).
    predict_batch: Kernel,
    /// Seed boxed row walk vs the arena per-row walk, both over the
    /// row-major vectors as given (a call site that holds no matrix).
    predict_rows: Kernel,
    forest_fit: ForestBench,
}

/// Selector-shaped synthetic workload: 24 features over a modest value
/// alphabet (ties included, like binned structural features). Labels
/// are a hash of the row index — no feature explains them, so the tree
/// grows to its depth/leaf bounds chasing noise, the worst case for
/// induction and the deepest realistic walk for inference.
fn training_data(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let f: Vec<f64> = (0..FEATURES).map(|j| ((i * 37 + j * 13) % 101) as f64).collect();
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        y.push(((h >> 29) % CLASSES as u64) as usize);
        x.push(f);
    }
    (x, y)
}

/// Minimum over `reps` timed runs (after one warmup) — the estimator
/// least sensitive to scheduler noise on a shared host.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let (x, y) = training_data(ROWS);
    let params = TreeParams::default();

    // Equality gates first: the kernels being compared must produce
    // the same model / the same bits before their times mean anything.
    let seed_tree = reference::fit_tree(&x, &y, CLASSES, &params);
    let new_tree = DecisionTree::fit(&x, &y, CLASSES, &params);
    assert_eq!(seed_tree.to_tree(), new_tree, "sort-once induction must reproduce the seed tree");

    // Tie-free targets for the regression gate (the seed builder's
    // per-node accumulation order differs inside tie blocks).
    let xr: Vec<Vec<f64>> = x
        .iter()
        .enumerate()
        .map(|(i, r)| r.iter().map(|v| v + i as f64 * 1e-7).collect())
        .collect();
    let yr: Vec<f64> = y.iter().zip(&x).map(|(&c, r)| c as f64 + r[1] * 0.01).collect();
    let reg_params = RegParams::default();
    let seed_reg = reference::fit_regression(&xr, &yr, &reg_params);
    let new_reg = RegressionTree::fit(&xr, &yr, &reg_params);
    assert_eq!(seed_reg.to_tree(), new_reg, "sort-once regression must reproduce the seed tree");

    let m = FeatureMatrix::from_rows(&x);
    assert_eq!(new_tree.predict_batch_matrix(&m), seed_tree.predict_batch(&x));
    assert_eq!(new_tree.predict_batch(&x), seed_tree.predict_batch(&x));

    // --- training ---------------------------------------------------
    let seed_fit_ns = time_ns(REPS, || {
        std::hint::black_box(reference::fit_tree(&x, &y, CLASSES, &params));
    });
    let new_fit_ns = time_ns(REPS, || {
        std::hint::black_box(DecisionTree::fit(&x, &y, CLASSES, &params));
    });
    let fit_speedup = seed_fit_ns / new_fit_ns;
    println!(
        "tree fit     {ROWS}x{FEATURES}: seed {:>10.0} us   new {:>8.0} us   {:>5.1}x",
        seed_fit_ns / 1e3,
        new_fit_ns / 1e3,
        fit_speedup
    );

    let seed_reg_ns = time_ns(REPS, || {
        std::hint::black_box(reference::fit_regression(&xr, &yr, &reg_params));
    });
    let new_reg_ns = time_ns(REPS, || {
        std::hint::black_box(RegressionTree::fit(&xr, &yr, &reg_params));
    });
    println!(
        "reg fit      {ROWS}x{FEATURES}: seed {:>10.0} us   new {:>8.0} us   {:>5.1}x",
        seed_reg_ns / 1e3,
        new_reg_ns / 1e3,
        seed_reg_ns / new_reg_ns
    );

    // --- batched prediction -----------------------------------------
    let pred_reps = REPS * 20;
    let boxed_ns = time_ns(pred_reps, || {
        std::hint::black_box(seed_tree.predict_batch(&x));
    });
    let frontier_ns = time_ns(pred_reps, || {
        std::hint::black_box(new_tree.predict_batch_matrix(&m));
    });
    let rows_ns = time_ns(pred_reps, || {
        std::hint::black_box(new_tree.predict_batch(&x));
    });
    let predict_speedup = boxed_ns / frontier_ns;
    let rows_speedup = boxed_ns / rows_ns;
    println!(
        "predict      {ROWS}x{FEATURES}: boxed {:>8.0} us   frontier {:>7.0} us   {:>5.1}x   (per-row {:>5.1}x)",
        boxed_ns / 1e3,
        frontier_ns / 1e3,
        predict_speedup,
        rows_speedup
    );

    // --- forest -----------------------------------------------------
    let forest_params = ForestParams { n_trees: 16, ..ForestParams::default() };
    let threads = pool::default_threads().max(2);
    let serial = RandomForest::fit_with_threads(&x, &y, CLASSES, &forest_params, 1);
    let parallel = RandomForest::fit_with_threads(&x, &y, CLASSES, &forest_params, threads);
    assert_eq!(serial, parallel, "parallel forest must be identical to serial");
    let serial_ns = time_ns(2, || {
        std::hint::black_box(RandomForest::fit_with_threads(&x, &y, CLASSES, &forest_params, 1));
    });
    let parallel_ns = time_ns(2, || {
        std::hint::black_box(RandomForest::fit_with_threads(
            &x,
            &y,
            CLASSES,
            &forest_params,
            threads,
        ));
    });
    println!(
        "forest fit   {} trees: 1 thread {:>8.0} us   {} threads {:>8.0} us   {:>5.1}x",
        forest_params.n_trees,
        serial_ns / 1e3,
        threads,
        parallel_ns / 1e3,
        serial_ns / parallel_ns
    );

    assert!(
        fit_speedup >= 5.0,
        "sort-once fit must be >= 5x the seed induction (got {fit_speedup:.2}x)"
    );
    assert!(
        predict_speedup >= 2.0,
        "frontier batched prediction must be >= 2x the boxed walk (got {predict_speedup:.2}x)"
    );
    // Same per-row descent, one record per node instead of a boxed enum:
    // "never loses" means equal up to timer noise or better.
    assert!(
        rows_speedup >= 0.95,
        "the per-row arena walk must never lose to the boxed walk (got {rows_speedup:.2}x)"
    );

    let doc = Doc {
        bench: "bench_train".into(),
        rows: ROWS,
        features: FEATURES,
        classes: CLASSES,
        reps: REPS,
        host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
        models_identical: true,
        tree_fit: Kernel { seed_ns: seed_fit_ns, new_ns: new_fit_ns, speedup: fit_speedup },
        regression_fit: Kernel {
            seed_ns: seed_reg_ns,
            new_ns: new_reg_ns,
            speedup: seed_reg_ns / new_reg_ns,
        },
        predict_batch: Kernel { seed_ns: boxed_ns, new_ns: frontier_ns, speedup: predict_speedup },
        predict_rows: Kernel { seed_ns: boxed_ns, new_ns: rows_ns, speedup: rows_speedup },
        forest_fit: ForestBench {
            n_trees: forest_params.n_trees,
            threads,
            serial_ns,
            parallel_ns,
            speedup: serial_ns / parallel_ns,
        },
    };
    let out = serde_json::to_string_pretty(&doc).unwrap();
    std::fs::write("BENCH_train.json", &out).expect("write BENCH_train.json");
    println!("wrote BENCH_train.json");
}
