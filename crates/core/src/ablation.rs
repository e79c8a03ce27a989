//! Ablations of the design choices the paper (and DESIGN.md) call out:
//! feature pruning (§5.5's four-feature deployed model), the
//! single-tree-vs-ensemble choice (§3.1), the reconfiguration threshold
//! (§3.3), reconfiguration-cost regimes (§6.1's partial-reconfig and
//! CGRA directions), and the simulator mechanisms that create each
//! design's niche.

use crate::dataset::{self, Dataset, Objective};
use crate::training::{self};
use misam_features::{feature_index, TileConfig, FEATURE_NAMES};
use misam_mlkit::cv;
use misam_mlkit::forest::{ForestParams, RandomForest};
use misam_mlkit::metrics;
use misam_oracle::{pool, CustomFpga, Executor};
use misam_recon::cost::ReconfigCost;
use misam_recon::engine::ReconfigEngine;
use misam_recon::stream::{self, StreamConfig};
use misam_sim::analytic::estimate_time_s;
use misam_sim::{DesignConfig, DesignId, Operand};
use misam_sparse::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

// ------------------------------------------------------------------
// Feature pruning (§5.5).
// ------------------------------------------------------------------

/// Accuracy/footprint of a selector trained on the top-`k` features.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePruningRow {
    /// Number of features kept.
    pub k: usize,
    /// The kept feature names, importance-ranked.
    pub names: Vec<&'static str>,
    /// Held-out accuracy.
    pub accuracy: f64,
    /// Compact model bytes.
    pub model_bytes: usize,
}

/// Trains selectors on progressively pruned feature sets (ranked by a
/// full-model importance pass), reproducing the paper's claim that the
/// top four features carry the accuracy.
pub fn feature_pruning(dataset: &Dataset, seed: u64) -> Vec<FeaturePruningRow> {
    let full = training::train_selector(dataset, Objective::Latency, seed);
    let ranked: Vec<usize> =
        full.selector.ranked_importances().iter().map(|(n, _)| feature_index(n)).collect();

    [1usize, 2, 4, 8, FEATURE_NAMES.len()]
        .iter()
        .map(|&k| {
            let subset: Vec<usize> = ranked.iter().take(k).copied().collect();
            let t = if k == FEATURE_NAMES.len() {
                training::train_selector(dataset, Objective::Latency, seed)
            } else {
                training::train_selector_on_features(dataset, Objective::Latency, seed, &subset)
            };
            FeaturePruningRow {
                k,
                names: t.selector.feature_names(),
                accuracy: t.accuracy,
                model_bytes: t.model_bytes,
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Tree vs forest (§3.1's footprint argument).
// ------------------------------------------------------------------

/// Measured comparison of the deployed single tree against a bagged
/// forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    /// Held-out accuracy of the single tree.
    pub tree_accuracy: f64,
    /// Compact bytes of the single tree.
    pub tree_bytes: usize,
    /// Mean wall nanoseconds per single-tree prediction.
    pub tree_ns_per_inference: f64,
    /// Held-out accuracy of the forest.
    pub forest_accuracy: f64,
    /// Compact bytes of the forest.
    pub forest_bytes: usize,
    /// Mean wall nanoseconds per forest prediction.
    pub forest_ns_per_inference: f64,
}

/// Trains both models on the same split and measures accuracy, footprint
/// and inference latency — the §3.1 trade the paper asserts.
pub fn model_choice(dataset: &Dataset, seed: u64) -> ModelComparison {
    let m = misam_mlkit::matrix::FeatureMatrix::from_rows(&dataset.features());
    let y = dataset.labels(Objective::Latency);
    let split = cv::train_test_split(m.n_rows(), 0.7, seed);
    let xt = m.gather(&split.train);
    let yt = cv::gather(&y, &split.train);
    let xv = m.gather(&split.validation);
    let yv = cv::gather(&y, &split.validation);

    let tree_params = training::selector_params(&yt);
    let tree = misam_mlkit::tree::DecisionTree::fit_matrix(&xt, &yt, 4, &tree_params);
    let forest = RandomForest::fit_matrix(
        &xt,
        &yt,
        4,
        &ForestParams { n_trees: 25, tree: tree_params, seed, ..Default::default() },
    );

    let tree_accuracy = metrics::accuracy(&tree.predict_batch_matrix(&xv), &yv);
    let forest_accuracy = metrics::accuracy(&forest.predict_batch_matrix(&xv), &yv);

    // Per-inference timing exercises the row-vector entry points the
    // serving layer uses.
    let probe: Vec<Vec<f64>> = (0..xv.n_rows()).map(|r| xv.row(r)).collect();
    let time_per = |f: &dyn Fn(&[f64]) -> usize| {
        let reps = 2000usize;
        let t0 = Instant::now();
        let mut acc = 0usize;
        for i in 0..reps {
            acc += f(&probe[i % probe.len()]);
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64 / reps as f64
    };
    let tree_ns = time_per(&|v| tree.predict(v));
    let forest_ns = time_per(&|v| forest.predict(v));

    ModelComparison {
        tree_accuracy,
        tree_bytes: tree.serialized_size(),
        tree_ns_per_inference: tree_ns,
        forest_accuracy,
        forest_bytes: forest.serialized_size(),
        forest_ns_per_inference: forest_ns,
    }
}

// ------------------------------------------------------------------
// Reconfiguration threshold and cost regimes (§3.3, §6.1).
// ------------------------------------------------------------------

/// Outcome of one engine policy on the reference workload stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy label (threshold value or cost-regime name).
    pub label: String,
    /// Reconfigurations performed across the stream.
    pub reconfig_count: usize,
    /// End-to-end seconds (execution + switching).
    pub total_time_s: f64,
    /// Ratio to the free-switching oracle's execution time.
    pub vs_oracle: f64,
}

/// A compact stream of alternating workload characters used by the
/// policy sweeps: dense-B phases (SpMM designs) interleaved with
/// sparse-B phases (Design 4), so a well-tuned engine must switch a few
/// times and a trigger-happy one thrashes.
struct PolicyStream {
    a: Vec<misam_sparse::CsrMatrix>,
    b_sparse: Vec<Option<misam_sparse::CsrMatrix>>,
}

fn policy_stream(rows: usize, seed: u64) -> PolicyStream {
    let mut a = Vec::new();
    let mut b_sparse = Vec::new();
    for i in 0..6u64 {
        let m = gen::regular_degree(rows, rows, 8, seed ^ (i * 7 + 1));
        if i % 2 == 0 {
            b_sparse.push(None);
        } else {
            b_sparse.push(Some(gen::regular_degree(rows, rows, 8, seed ^ (i * 7 + 2))));
        }
        a.push(m);
    }
    PolicyStream { a, b_sparse }
}

fn run_policy(
    stream_data: &PolicyStream,
    engine: &mut ReconfigEngine,
    tile_rows: (usize, usize),
    seed: u64,
) -> (usize, f64) {
    let cfg = StreamConfig {
        tile_min_rows: tile_rows.0,
        tile_max_rows: tile_rows.1,
        seed,
        features: TileConfig::default(),
    };
    let mut total = 0.0;
    let mut count = 0usize;
    for (a, b) in stream_data.a.iter().zip(&stream_data.b_sparse) {
        let op = match b {
            Some(bm) => Operand::Sparse(bm),
            None => Operand::Dense { rows: a.cols(), cols: 512 },
        };
        let before = engine.reconfig_count();
        let out = stream::run(a, op, &cfg, misam_oracle::global(), engine, |f| {
            // Selector assumed ideal here; the sweep isolates the engine.
            let predicted = if f.b.sparsity > 0.5 { DesignId::D4 } else { DesignId::D2 };
            (predicted, DesignId::ALL.map(|d| estimate_time_s(f, d)))
        });
        total += out.total_time_s();
        count += (engine.reconfig_count() - before) as usize;
    }
    (count, total)
}

/// Sweeps the switch threshold (paper default 0.2) over the reference
/// stream with the real U55C cost model. The engine uses the analytic
/// latency model so the sweep isolates the *policy*, not predictor
/// coverage.
pub fn threshold_sweep(rows: usize, seed: u64, thresholds: &[f64]) -> Vec<PolicyOutcome> {
    let stream_data = policy_stream(rows, seed);
    let tiles = ((rows / 8).max(500), (rows / 3).max(1000));

    // Free-switching oracle reference.
    let mut oracle = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
    oracle.force_load(DesignId::D2);
    let (_, oracle_time) = run_policy(&stream_data, &mut oracle, tiles, seed);

    thresholds
        .iter()
        .map(|&th| {
            let mut engine = ReconfigEngine::new(ReconfigCost::default(), th);
            engine.force_load(DesignId::D2);
            let (count, total) = run_policy(&stream_data, &mut engine, tiles, seed);
            PolicyOutcome {
                label: format!("threshold {th}"),
                reconfig_count: count,
                total_time_s: total,
                vs_oracle: total / oracle_time,
            }
        })
        .collect()
}

/// Compares reconfiguration-cost regimes at the paper's default
/// threshold: the measured U55C full cost, a small partial-reconfig
/// region, a CGRA-class microsecond switch, and free switching (§6.1).
pub fn cost_regimes(rows: usize, seed: u64) -> Vec<PolicyOutcome> {
    let stream_data = policy_stream(rows, seed);
    let tiles = ((rows / 8).max(500), (rows / 3).max(1000));

    let mut oracle = ReconfigEngine::new(ReconfigCost::zero(), 0.2);
    oracle.force_load(DesignId::D2);
    let (_, oracle_time) = run_policy(&stream_data, &mut oracle, tiles, seed);

    let regimes: Vec<(String, ReconfigCost)> = vec![
        ("u55c full (3-4 s)".into(), ReconfigCost::default()),
        (
            "partial region (~0.2 s)".into(),
            ReconfigCost {
                program_base_s: 0.05,
                program_per_mib_s: 0.002,
                ..ReconfigCost::default()
            },
        ),
        (
            "cgra-class (~1 ms)".into(),
            ReconfigCost {
                program_base_s: 1e-3,
                program_per_mib_s: 0.0,
                ..ReconfigCost::default()
            },
        ),
        ("free".into(), ReconfigCost::zero()),
    ];

    regimes
        .into_iter()
        .map(|(label, cost)| {
            let mut engine = ReconfigEngine::new(cost, 0.2);
            engine.force_load(DesignId::D2);
            let (count, total) = run_policy(&stream_data, &mut engine, tiles, seed);
            PolicyOutcome {
                label,
                reconfig_count: count,
                total_time_s: total,
                vs_oracle: total / oracle_time,
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Objective sweep (§3.1's tunable decision-making).
// ------------------------------------------------------------------

/// One point of the latency/energy objective sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveRow {
    /// Latency weight `w` of `Objective::Weighted(w)`.
    pub latency_weight: f64,
    /// Label histogram under this objective.
    pub histogram: [usize; 4],
    /// Selector accuracy trained and validated under this objective.
    pub accuracy: f64,
    /// Geomean time cost vs the pure-latency oracle (>= 1).
    pub time_cost: f64,
    /// Geomean energy saving vs the pure-latency oracle (>= 1).
    pub energy_saving: f64,
}

/// Sweeps the latency/energy blend of §3.1: "a user may choose to
/// optimize exclusively for performance, prioritize energy efficiency,
/// or apply a weighted combination". Reports how labels, selector
/// accuracy and the latency-vs-energy trade move with the weight.
pub fn objective_sweep(dataset: &Dataset, seed: u64, weights: &[f64]) -> Vec<ObjectiveRow> {
    weights
        .iter()
        .map(|&w| {
            let objective = Objective::Weighted(w);
            let histogram = dataset.label_histogram(objective);
            let t = training::train_selector(dataset, objective, seed);
            let mut time_ratio = Vec::new();
            let mut energy_ratio = Vec::new();
            for s in &dataset.samples {
                let lat = s.label(Objective::Latency);
                let lab = s.label(objective);
                time_ratio.push(s.times_s[lab] / s.times_s[lat]);
                energy_ratio.push(s.energies_j[lat] / s.energies_j[lab]);
            }
            ObjectiveRow {
                latency_weight: w,
                histogram,
                accuracy: t.accuracy,
                time_cost: metrics::geomean(&time_ratio),
                energy_saving: metrics::geomean(&energy_ratio),
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Simulator-mechanism sensitivity.
// ------------------------------------------------------------------

/// Label histogram of a corpus under a modified simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismRow {
    /// Variant label.
    pub label: String,
    /// Optimal-design histogram (D1..D4).
    pub histogram: [usize; 4],
}

/// Re-labels a corpus of random pairs under modified design configs to
/// show which microarchitectural mechanism creates each design's niche:
/// removing the load/store dependency, neutralizing Design 4's gather
/// penalty, and removing the PEG-scaled launch overhead.
pub fn simulator_mechanisms(n: usize, seed: u64) -> Vec<MechanismRow> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00ab_1a7e);
    let pairs: Vec<(misam_sparse::CsrMatrix, dataset::OperandSpec)> = (0..n)
        .map(|_| {
            let (a, spec, _) = dataset::random_pair(&mut rng);
            (a, spec)
        })
        .collect();

    type Variant = (String, Box<dyn Fn(DesignId) -> DesignConfig>);
    let variants: Vec<Variant> = vec![
        ("baseline".into(), Box::new(DesignConfig::of)),
        (
            "no load/store dependency".into(),
            Box::new(|d| DesignConfig { dep_distance: 0, ..DesignConfig::of(d) }),
        ),
        (
            "no gather penalty (D4)".into(),
            Box::new(|d| DesignConfig {
                gather_factor: 1.0,
                meta_lookup: 0,
                ..DesignConfig::of(d)
            }),
        ),
        (
            "uniform tile sizes".into(),
            Box::new(|d| DesignConfig { bram_entries: 4096, ..DesignConfig::of(d) }),
        ),
    ];

    variants
        .into_iter()
        .map(|(label, mk)| {
            // One knocked-out design space per variant, fanned out over
            // the pair corpus through the Executor abstraction.
            let executor = CustomFpga::new(DesignId::ALL.iter().map(|&d| mk(d)).collect());
            let winners = pool::par_map(&pairs, |(a, spec)| {
                executor
                    .execute_all(a, spec.operand())
                    .iter()
                    .enumerate()
                    .min_by(|x, y| x.1.time_s.partial_cmp(&y.1.time_s).expect("finite"))
                    .expect("four designs")
                    .0
            });
            let mut histogram = [0usize; 4];
            for w in winners {
                histogram[w] += 1;
            }
            MechanismRow { label, histogram }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> &'static Dataset {
        static C: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
        C.get_or_init(|| Dataset::generate(300, 808))
    }

    #[test]
    fn four_features_carry_most_of_the_accuracy() {
        let rows = feature_pruning(corpus(), 1);
        let full = rows.last().unwrap();
        let four = rows.iter().find(|r| r.k == 4).unwrap();
        assert!(
            four.accuracy > full.accuracy - 0.08,
            "top-4 accuracy {:.2} vs full {:.2}",
            four.accuracy,
            full.accuracy
        );
        let one = rows.iter().find(|r| r.k == 1).unwrap();
        assert!(one.accuracy <= four.accuracy + 0.05, "one feature should not beat four");
    }

    #[test]
    fn forest_costs_far_more_footprint_for_marginal_accuracy() {
        let m = model_choice(corpus(), 2);
        assert!(m.forest_bytes > 5 * m.tree_bytes);
        assert!(m.tree_accuracy > 0.6);
        // The paper's claim: a single tree is the right trade.
        assert!(
            m.forest_accuracy - m.tree_accuracy < 0.15,
            "tree {:.2} vs forest {:.2}",
            m.tree_accuracy,
            m.forest_accuracy
        );
    }

    #[test]
    fn stricter_thresholds_switch_less() {
        // Small matrices: only very permissive thresholds can justify a
        // multi-second switch, so the sweep must be monotone and end
        // with at least one switch.
        let rows = 20_000;
        let out = threshold_sweep(rows, 3, &[0.2, 50.0, 2000.0]);
        assert_eq!(out.len(), 3);
        for w in out.windows(2) {
            assert!(
                w[0].reconfig_count <= w[1].reconfig_count,
                "looser thresholds must switch at least as often: {w:?}"
            );
        }
        assert!(
            out.last().unwrap().reconfig_count > 0,
            "an effectively unconstrained threshold must switch: {out:?}"
        );
    }

    #[test]
    fn cheaper_reconfiguration_enables_more_switching() {
        let out = cost_regimes(20_000, 4);
        assert_eq!(out.len(), 4);
        let full = &out[0];
        let free = &out[3];
        assert!(free.reconfig_count >= full.reconfig_count);
        // Free switching is the oracle by construction.
        assert!((free.vs_oracle - 1.0).abs() < 1e-9);
        for o in &out {
            assert!(o.vs_oracle >= 1.0 - 1e-9, "{}: {:.3}", o.label, o.vs_oracle);
        }
    }

    #[test]
    fn objective_sweep_trades_time_for_energy_monotonically() {
        let rows = objective_sweep(corpus(), 6, &[0.0, 0.5, 1.0]);
        assert_eq!(rows.len(), 3);
        // Pure latency: no time cost, no energy saving by construction.
        let pure = rows.last().unwrap();
        assert!((pure.time_cost - 1.0).abs() < 1e-9);
        assert!((pure.energy_saving - 1.0).abs() < 1e-9);
        // Moving weight toward energy can only increase both the time
        // cost and the energy saving.
        for w in rows.windows(2) {
            assert!(w[0].time_cost >= w[1].time_cost - 1e-9);
            assert!(w[0].energy_saving >= w[1].energy_saving - 1e-9);
        }
        for r in &rows {
            assert_eq!(r.histogram.iter().sum::<usize>(), corpus().len());
            assert!(r.accuracy > 0.5);
        }
    }

    #[test]
    fn gather_penalty_creates_design4_boundary() {
        let rows = simulator_mechanisms(120, 5);
        let base = &rows[0];
        let no_gather = rows.iter().find(|r| r.label.contains("gather")).unwrap();
        // Without the compressed-format gather penalty, Design 4 absorbs
        // strictly more of the label space.
        assert!(
            no_gather.histogram[3] > base.histogram[3],
            "baseline {:?} vs no-gather {:?}",
            base.histogram,
            no_gather.histogram
        );
        // Each variant labels every pair.
        for r in &rows {
            assert_eq!(r.histogram.iter().sum::<usize>(), 120);
        }
    }
}
