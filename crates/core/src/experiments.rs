//! One entry point per table/figure of the paper's evaluation.
//!
//! Every function takes an [`ExperimentScale`] so the same code path runs
//! at paper scale from the `misam-bench` binaries and at a reduced scale
//! from the test suite; the ones that train on the labeled corpora take
//! a [`Corpora`] (a scale plus its corpora, generated once and shared).
//! Results are plain data structs; rendering lives in the binaries.
//! `EXPERIMENTS.md` records paper-vs-measured for each.

use crate::dataset::{self, Dataset, Objective};
use crate::pipeline::{Misam, LATENCY_CORPUS_SALT};
use crate::training::{self, LatencyTraining, SelectorTraining};
use crate::workloads::{self, Category, Workload};
use misam_baselines::cpu::CpuModel;
use misam_baselines::gpu::GpuModel;
use misam_baselines::trapezoid::{Dataflow, TrapezoidSim};
use misam_features::TileConfig;
use misam_mlkit::cv;
use misam_mlkit::metrics::{self, ConfusionMatrix};
use misam_mlkit::tree::{DecisionTree, TreeParams};
use misam_oracle::{pool, Executor, SimOracle, TrapezoidExecutor};
use misam_recon::cost::ReconfigCost;
use misam_recon::engine::ReconfigEngine;
use misam_recon::stream::{self, StreamConfig};
use misam_sim::{DesignId, Operand};
use misam_sparse::{gen, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Knobs scaling every experiment between test speed and paper fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Classifier corpus size (paper: 6,219).
    pub classifier_samples: usize,
    /// Latency-predictor corpus size (paper: 19,000).
    pub latency_samples: usize,
    /// Trapezoid-dataflow corpus size for Figure 13.
    pub trapezoid_samples: usize,
    /// Row-count scale of the SuiteSparse-class matrices (1.0 = published
    /// size).
    pub hs_scale: f64,
    /// Cross-validation folds (paper: 10).
    pub kfold: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Paper-fidelity scale, used by the `misam-bench` binaries.
    pub fn paper() -> Self {
        ExperimentScale {
            classifier_samples: 6219,
            latency_samples: 19_000,
            trapezoid_samples: 4000,
            hs_scale: 0.25,
            kfold: 10,
            seed: 2025,
        }
    }

    /// Reduced scale for the test suite.
    pub fn quick() -> Self {
        ExperimentScale {
            classifier_samples: 250,
            latency_samples: 300,
            trapezoid_samples: 250,
            hs_scale: 0.015,
            kfold: 5,
            seed: 2025,
        }
    }
}

/// The two labeled corpora of an [`ExperimentScale`], each generated on
/// first use and then shared by every experiment that trains on it.
///
/// The selector experiment, Table 4, Figures 10 and 12 and the ablations
/// train on the classifier corpus (`classifier_samples` at `seed`) or a
/// prefix of it; Figures 9, 10 and 12 on the latency corpus
/// (`latency_samples` at a salted seed) or a prefix. Labeling is the
/// costly step (four simulations per sample), and the process-global
/// oracle cache is bounded, so a run that regenerates every artifact
/// builds one `Corpora` and hands it to each experiment instead of
/// relabeling the same corpus per experiment.
#[derive(Debug)]
pub struct Corpora {
    /// The scale the corpora are drawn at.
    pub scale: ExperimentScale,
    classifier: OnceLock<Dataset>,
    latency: OnceLock<Dataset>,
}

impl Corpora {
    /// Corpora of `scale`, not generated yet.
    pub fn new(scale: ExperimentScale) -> Self {
        Corpora { scale, classifier: OnceLock::new(), latency: OnceLock::new() }
    }

    /// The design-classifier corpus: `Dataset::generate(classifier_samples, seed)`.
    pub fn classifier(&self) -> &Dataset {
        self.classifier
            .get_or_init(|| Dataset::generate(self.scale.classifier_samples, self.scale.seed))
    }

    /// The latency-predictor corpus: `latency_samples` samples at the
    /// seed [`crate::pipeline::MisamBuilder`] salts for it.
    pub fn latency(&self) -> &Dataset {
        self.latency.get_or_init(|| {
            Dataset::generate(self.scale.latency_samples, self.scale.seed ^ LATENCY_CORPUS_SALT)
        })
    }
}

// ------------------------------------------------------------------
// Figure 1: applications across the sparsity space.
// ------------------------------------------------------------------

/// One point of the Figure 1 sparsity map.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityPoint {
    /// Workload name.
    pub name: String,
    /// Category label.
    pub category: Category,
    /// Density of A.
    pub a_density: f64,
    /// Density of B.
    pub b_density: f64,
}

/// Figure 1: where the evaluation workloads sit in (sparsity A,
/// sparsity B) space.
pub fn fig01_sparsity_space(scale: &ExperimentScale) -> Vec<SparsityPoint> {
    workloads::suite(scale.hs_scale, scale.seed)
        .into_iter()
        .map(|w| {
            let b_density = match &w.b {
                workloads::WorkloadB::Dense { .. } => 1.0,
                workloads::WorkloadB::Sparse(b) => b.density(),
            };
            SparsityPoint {
                name: w.name,
                category: w.category,
                a_density: w.a.density(),
                b_density,
            }
        })
        .collect()
}

// ------------------------------------------------------------------
// Figure 3: no single design wins across application workloads.
// ------------------------------------------------------------------

/// One workload's normalized latencies on Designs 1–3 (1.0 = best).
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedRow {
    /// Workload name.
    pub name: String,
    /// Category label.
    pub category: Category,
    /// Normalized latency per design (D1, D2, D3).
    pub normalized: [f64; 3],
}

/// Figure 3: D1/D2/D3 performance normalized to the best design per
/// workload, across a diverse application slice of the suite.
pub fn fig03_design_suite(scale: &ExperimentScale) -> Vec<NormalizedRow> {
    let suite = workloads::suite(scale.hs_scale, scale.seed);
    // A diverse slice: every 7th workload plus all HSxD (the figure's
    // CFD/graph emphasis).
    let selected: Vec<&Workload> = suite
        .iter()
        .enumerate()
        .filter(|(i, w)| i % 7 == 0 || w.category == Category::HsD)
        .map(|(_, w)| w)
        .collect();
    pool::par_map(&selected, |w| {
        let times: Vec<f64> = [DesignId::D1, DesignId::D2, DesignId::D3]
            .iter()
            .map(|&d| misam_oracle::global().execute(&w.a, w.b_operand(), d.index()).time_s)
            .collect();
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        NormalizedRow {
            name: w.name.clone(),
            category: w.category,
            normalized: [times[0] / best, times[1] / best, times[2] / best],
        }
    })
}

// ------------------------------------------------------------------
// Figure 4 / Table 5: selector training.
// ------------------------------------------------------------------

/// Figure 4 and Table 5 artifacts: the trained selector with its ranked
/// feature importances, held-out confusion matrix, accuracy, model size,
/// and k-fold scores.
#[derive(Debug, Clone)]
pub struct SelectorExperiment {
    /// The 70/30 training outcome.
    pub training: SelectorTraining,
    /// K-fold cross-validated accuracies.
    pub kfold_accuracies: Vec<f64>,
    /// Label histogram of the corpus.
    pub label_histogram: [usize; 4],
}

/// Trains and evaluates the design selector (Figure 4 importances,
/// Table 5 confusion, §3.1's 90% accuracy and 6 KB footprint).
pub fn selector_experiment(corpora: &Corpora) -> SelectorExperiment {
    let (ds, scale) = (corpora.classifier(), &corpora.scale);
    let training = training::train_selector(ds, Objective::Latency, scale.seed);
    let kfold_accuracies =
        training::kfold_selector_accuracy(ds, Objective::Latency, scale.kfold, scale.seed);
    SelectorExperiment {
        training,
        kfold_accuracies,
        label_histogram: ds.label_histogram(Objective::Latency),
    }
}

// ------------------------------------------------------------------
// Table 4: geomean speedup of the optimal design over the others.
// ------------------------------------------------------------------

/// Table 4: `cell[i][j]` = geometric-mean speedup of design `i+1` over
/// design `j+1`, over the workloads where design `i+1` is optimal
/// (among Designs 1–3; Design 4 is excluded as in the paper).
pub fn tab04_design_speedups(corpora: &Corpora) -> [[f64; 3]; 3] {
    let mut ratios: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; 3];
    for s in &corpora.classifier().samples {
        let spmm_times = [s.times_s[0], s.times_s[1], s.times_s[2]];
        let label = s.label(Objective::Latency);
        if label == DesignId::D4.index() {
            continue; // Design 4's niche is disjoint (paper §5.1).
        }
        for j in 0..3 {
            ratios[label][j].push(spmm_times[j] / spmm_times[label]);
        }
    }
    let mut out = [[1.0; 3]; 3];
    for (i, row) in ratios.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            out[i][j] = if cell.is_empty() { f64::NAN } else { metrics::geomean(cell) };
        }
    }
    out
}

// ------------------------------------------------------------------
// Figure 8: the reconfiguration-overhead analysis.
// ------------------------------------------------------------------

/// One Figure 8 workload outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Row {
    /// Workload name (paper uses SuiteSparse-style IDs).
    pub name: String,
    /// Design loaded when the workload arrived.
    pub current: DesignId,
    /// Oracle-best design for the workload.
    pub best: DesignId,
    /// Streamed time staying on `current`, seconds.
    pub t_current_s: f64,
    /// Streamed time on the oracle design (no switch charged), seconds.
    pub t_best_s: f64,
    /// Streamed time of the engine's actual run (switch included).
    pub t_engine_s: f64,
    /// Whether the engine reconfigured.
    pub reconfigured: bool,
    /// Speedup of the engine's run over staying put.
    pub speedup_vs_current: f64,
    /// Slowdown of the engine's run versus the oracle.
    pub slowdown_vs_best: f64,
}

/// Figure 8 output: per-workload rows plus the two headline geomeans
/// (paper: 2.74x where reconfiguration occurs, 1.02x slowdown where the
/// engine stays put; cg15 reaches 10.76x).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Result {
    /// Per-workload outcomes, in stream order.
    pub rows: Vec<Fig08Row>,
    /// Geomean speedup over rows where the engine reconfigured.
    pub geomean_speedup_reconfigured: f64,
    /// Geomean slowdown (vs oracle) over rows where it stayed put.
    pub geomean_slowdown_stayed: f64,
}

/// Figure 8: streams a sequence of large workloads through the engine,
/// comparing staying on the incumbent design, the oracle design, and the
/// engine's cost-aware choice.
pub fn fig08_reconfig(scale: &ExperimentScale) -> Fig08Result {
    // The engine's latency model here is the analytic (closed-form)
    // estimator: Figure 8's streamed matrices are orders of magnitude
    // larger than any training corpus, where a leaf-value regression
    // tree cannot extrapolate. Figure 9 separately validates the trained
    // tree inside its distribution.
    let mut engine = ReconfigEngine::new(
        misam_recon::engine::AnalyticLatencyModel,
        ReconfigCost::default(),
        0.2,
    );
    engine.force_load(DesignId::D1);

    // Figure 8's workloads are the largest in the paper (cg15 is 1.5M
    // rows) — reconfiguration only amortizes at size, so this experiment
    // runs at a larger matrix scale than the corpus-driven ones.
    let s = (scale.hs_scale * 10.0).min(1.0);
    let seed = scale.seed;
    let rows_of = |base: usize| ((base as f64 * s) as usize).max(1500);

    // Large streamed workloads in the spirit of the figure: cg15-like
    // (1.5M rows) plus graph/FEM/circuit matrices. The stream opens with
    // dense-B (SpMM) workloads whose best designs share the loaded
    // bitstream family, then turns sparse-sparse — the character change
    // the engine must judge.
    let mk: Vec<(String, CsrMatrix, Option<CsrMatrix>)> = vec![
        (
            "del19".into(),
            gen::regular_degree(rows_of(524_288), rows_of(524_288), 6, seed ^ 1),
            None,
        ),
        ("sme".into(), gen::banded(rows_of(300_000), rows_of(300_000), 36, 0.7, seed ^ 8), None),
        (
            "gup".into(),
            gen::imbalanced_rows(rows_of(420_000), rows_of(420_000), 0.02, 900, 4, seed ^ 9),
            None,
        ),
        ("poi".into(), gen::banded(rows_of(135_000), rows_of(135_000), 18, 0.7, seed ^ 12), None),
        (
            "cg15".into(),
            gen::regular_degree(rows_of(1_500_000), rows_of(1_500_000), 8, seed ^ 6),
            Some(gen::regular_degree(rows_of(1_500_000), rows_of(1_500_000), 8, seed ^ 7)),
        ),
        (
            "wiki".into(),
            gen::power_law(rows_of(220_000), rows_of(220_000), 12.0, 1.5, seed ^ 2),
            Some(gen::power_law(rows_of(220_000), rows_of(220_000), 12.0, 1.5, seed ^ 3)),
        ),
        (
            "apa2".into(),
            gen::banded(rows_of(715_176), rows_of(715_176), 2, 0.8, seed ^ 4),
            Some(gen::banded(rows_of(715_176), rows_of(715_176), 2, 0.8, seed ^ 5)),
        ),
        (
            "cond".into(),
            gen::power_law(rows_of(230_000), rows_of(230_000), 8.0, 1.45, seed ^ 10),
            Some(gen::power_law(rows_of(230_000), rows_of(230_000), 8.0, 1.45, seed ^ 11)),
        ),
    ];

    let mut rows = Vec::new();
    for (name, a, b_sparse) in &mk {
        let b = match b_sparse {
            Some(bm) => Operand::Sparse(bm),
            None => Operand::Dense { rows: a.cols(), cols: 512 },
        };
        let tile_cfg = StreamConfig {
            tile_min_rows: (a.rows() / 8).max(500),
            tile_max_rows: (a.rows() / 3).max(1000),
            seed,
            features: TileConfig::default(),
        };

        let current = engine.current().expect("engine preloaded");
        // The four fixed-design probes stream identical tiles (same
        // seed), so they fan out across cores and share the memoized
        // oracle's per-tile simulations with each other, the
        // `t_current_s` probe, and the engine's real run below.
        let probes = pool::par_map(&DesignId::ALL, |&d| stream_fixed(a, b, d, &tile_cfg));
        let t_current_s = probes[current.index()];
        let (best, t_best_s) = DesignId::ALL
            .iter()
            .zip(&probes)
            .map(|(&d, &t)| (d, t))
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .expect("four designs");

        // The engine's actual run mutates its state for the next
        // workload, exactly like the figure's left-to-right sequence.
        let before = engine.reconfig_count();
        let selector_best = best; // classifier assumed right; §5.1 covers its errors
        let out =
            stream::run(a, b, &tile_cfg, misam_oracle::global(), &mut engine, |_| selector_best);
        let reconfigured = engine.reconfig_count() > before;
        let t_engine_s = out.total_time_s();

        rows.push(Fig08Row {
            name: name.clone(),
            current,
            best,
            t_current_s,
            t_best_s,
            t_engine_s,
            reconfigured,
            speedup_vs_current: t_current_s / t_engine_s,
            slowdown_vs_best: t_engine_s / t_best_s,
        });
    }

    let sp: Vec<f64> =
        rows.iter().filter(|r| r.reconfigured).map(|r| r.speedup_vs_current).collect();
    let sl: Vec<f64> =
        rows.iter().filter(|r| !r.reconfigured).map(|r| r.slowdown_vs_best).collect();
    Fig08Result {
        rows,
        geomean_speedup_reconfigured: if sp.is_empty() { f64::NAN } else { metrics::geomean(&sp) },
        geomean_slowdown_stayed: if sl.is_empty() { f64::NAN } else { metrics::geomean(&sl) },
    }
}

/// Streams a workload on one fixed design with free switching (oracle
/// probe used by the Figure 8 comparison).
fn stream_fixed(a: &CsrMatrix, b: Operand<'_>, design: DesignId, cfg: &StreamConfig) -> f64 {
    stream_probe(a, b, design, cfg, misam_oracle::global())
}

/// `stream_fixed` through an explicit oracle tier: the memoized cycle
/// sim for the figure probes, or [`misam_oracle::TieredOracle`] when a
/// sweep wants gated-surrogate answers with sim fallback.
pub fn stream_probe<E>(
    a: &CsrMatrix,
    b: Operand<'_>,
    design: DesignId,
    cfg: &StreamConfig,
    executor: &E,
) -> f64
where
    E: misam_oracle::Executor<Report = misam_sim::SimReport>,
{
    let flat = |_: &misam_features::PairFeatures, _: DesignId| 1.0;
    let mut e = ReconfigEngine::new(flat, ReconfigCost::zero(), 0.2);
    e.force_load(design);
    stream::run(a, b, cfg, executor, &mut e, |_| design).execute_time_s
}

// ------------------------------------------------------------------
// Figure 9: latency-predictor residuals.
// ------------------------------------------------------------------

/// Figure 9: trains the latency predictor and reports its held-out
/// residual statistics (paper: MAE 0.344, R² 0.978 on log-latency).
pub fn fig09_latency_predictor(corpora: &Corpora) -> LatencyTraining {
    training::train_latency_predictor(corpora.latency(), corpora.scale.seed)
}

// ------------------------------------------------------------------
// Figures 10 & 11: performance and energy versus CPU / GPU / Trapezoid.
// ------------------------------------------------------------------

/// Per-category geometric-mean gains of Misam over the baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryGains {
    /// Workload category.
    pub category: Category,
    /// Geomean speedup over the MKL-class CPU.
    pub speedup_vs_cpu: f64,
    /// Geomean speedup over the cuSPARSE-class GPU.
    pub speedup_vs_gpu: f64,
    /// Geomean speedup over Trapezoid's fixed dataflows (geomean across
    /// the three fixed choices).
    pub speedup_vs_trapezoid: f64,
    /// Geomean energy-efficiency gain over the CPU.
    pub energy_vs_cpu: f64,
    /// Geomean energy-efficiency gain over the GPU.
    pub energy_vs_gpu: f64,
}

/// Figures 10 and 11: runs the 113-workload suite through Misam (free
/// switching, as each workload is standalone) and the three baselines.
pub fn fig10_fig11_gains(corpora: &Corpora) -> Vec<CategoryGains> {
    let scale = &corpora.scale;
    let suite = workloads::suite(scale.hs_scale, scale.seed);
    let (mut misam, _, _) = Misam::builder()
        .seed(scale.seed)
        .reconfig_cost(ReconfigCost::zero())
        .train_on(corpora.classifier(), &corpora.latency().head(scale.classifier_samples * 2));

    let cpu = CpuModel::default();
    let gpu = GpuModel::default();
    let trap = TrapezoidSim::default();

    let mut per_cat: std::collections::BTreeMap<Category, Vec<[f64; 5]>> =
        std::collections::BTreeMap::new();

    // Parallel pass: prewarm the process-wide oracle (all four designs
    // per workload) and price the baselines. The stateful Misam pass
    // below then answers every simulation from the cache.
    let baselines = pool::par_map(&suite, |w| {
        misam_oracle::global().execute_all(&w.a, w.b_operand());
        baseline_times(w, &cpu, &gpu, &trap)
    });

    for (w, (c, g, t)) in suite.iter().zip(baselines) {
        let r = misam.execute(&w.a, w.b_operand());
        let (t_m, e_m) = (r.sim.time_s, r.sim.energy_j);

        per_cat.entry(w.category).or_default().push([
            c.0 / t_m,
            g.0 / t_m,
            t / t_m,
            c.1 / e_m,
            g.1 / e_m,
        ]);
    }

    Category::ALL
        .iter()
        .filter_map(|&cat| {
            let rows = per_cat.get(&cat)?;
            let col = |i: usize| {
                let v: Vec<f64> = rows.iter().map(|r| r[i]).collect();
                metrics::geomean(&v)
            };
            Some(CategoryGains {
                category: cat,
                speedup_vs_cpu: col(0),
                speedup_vs_gpu: col(1),
                speedup_vs_trapezoid: col(2),
                energy_vs_cpu: col(3),
                energy_vs_gpu: col(4),
            })
        })
        .collect()
}

/// Baseline `(cpu (time, energy), gpu (time, energy), trapezoid-fixed
/// time)` for one workload.
fn baseline_times(
    w: &Workload,
    cpu: &CpuModel,
    gpu: &GpuModel,
    trap: &TrapezoidSim,
) -> ((f64, f64), (f64, f64), f64) {
    match &w.b {
        workloads::WorkloadB::Dense { rows, cols } => {
            let c = cpu.spmm(&w.a, *rows, *cols);
            let g = gpu.spmm(&w.a, *rows, *cols);
            let t_times: Vec<f64> = trap
                .run_all_dense_b(&w.a, *rows, *cols)
                .into_iter()
                .map(|(_, r)| r.time_s)
                .collect();
            ((c.time_s, c.energy_j), (g.time_s, g.energy_j), metrics::geomean(&t_times))
        }
        workloads::WorkloadB::Sparse(b) => {
            let c = cpu.spgemm(&w.a, b);
            let g = gpu.spgemm(&w.a, b);
            let t_times: Vec<f64> =
                trap.run_all(&w.a, b).into_iter().map(|(_, r)| r.time_s).collect();
            ((c.time_s, c.energy_j), (g.time_s, g.energy_j), metrics::geomean(&t_times))
        }
    }
}

// ------------------------------------------------------------------
// Figure 12: end-to-end breakdown.
// ------------------------------------------------------------------

/// One Figure 12 breakdown row.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Workload name.
    pub name: String,
    /// Category label.
    pub category: Category,
    /// Feature-extraction wall time, seconds.
    pub preprocess_s: f64,
    /// Classifier + engine wall time, seconds.
    pub inference_s: f64,
    /// Simulated hardware execution, seconds.
    pub execute_s: f64,
}

impl BreakdownRow {
    /// Host-stage fraction of end-to-end time.
    pub fn host_fraction(&self) -> f64 {
        let total = self.preprocess_s + self.inference_s + self.execute_s;
        if total > 0.0 {
            (self.preprocess_s + self.inference_s) / total
        } else {
            0.0
        }
    }
}

/// Figure 12: measured preprocessing/inference/execution breakdown on
/// one representative workload per category (paper: inference ≈ 0.1%,
/// preprocessing ≈ 2%).
pub fn fig12_breakdown(corpora: &Corpora) -> Vec<BreakdownRow> {
    let scale = &corpora.scale;
    let suite = workloads::suite(scale.hs_scale, scale.seed);
    let (mut misam, _, _) = Misam::builder()
        .seed(scale.seed)
        .reconfig_cost(ReconfigCost::zero())
        .train_on(&corpora.classifier().head(1200), &corpora.latency().head(1500));

    Category::ALL
        .iter()
        .filter_map(|&cat| {
            // Largest workload of the category = most representative of
            // the amortization the paper reports.
            let w = suite.iter().filter(|w| w.category == cat).max_by_key(|w| w.a.nnz())?;
            let r = misam.execute(&w.a, w.b_operand());
            Some(BreakdownRow {
                name: w.name.clone(),
                category: cat,
                preprocess_s: r.timings.preprocess_s,
                inference_s: r.timings.inference_s,
                execute_s: r.sim.time_s,
            })
        })
        .collect()
}

// ------------------------------------------------------------------
// Figure 13: Misam on Trapezoid's dataflows.
// ------------------------------------------------------------------

/// Figure 13 artifacts: the dataflow selector trained on Trapezoid's
/// three dataflows.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Validation accuracy of the 3-class dataflow selector (paper: 92%).
    pub accuracy: f64,
    /// Validation confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Maximum speedup of the optimal dataflow over the worst on a
    /// validation workload (paper reports up to 15.8x).
    pub max_speedup: f64,
    /// Normalized per-dataflow latencies for a slice of workloads
    /// (1.0 = best), the figure's bars.
    pub rows: Vec<NormalizedRow>,
}

/// Figure 13: trains Misam's selector against the Trapezoid simulator's
/// three dataflows, demonstrating the framework's portability (§6.3).
pub fn fig13_trapezoid(scale: &ExperimentScale) -> Fig13Result {
    let trap = TrapezoidSim::default();
    let tile_cfg = TileConfig::default();
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x7a0e);

    // Serial draws, parallel labeling: the Trapezoid oracle answers each
    // (pair, dataflow) once even if the corpus repeats a pair.
    let pairs: Vec<(CsrMatrix, dataset::OperandSpec)> = (0..scale.trapezoid_samples)
        .map(|_| {
            let (a, spec, _) = dataset::random_pair(&mut rng);
            (a, spec)
        })
        .collect();
    let trap_oracle = SimOracle::new(TrapezoidExecutor { sim: trap.clone() });
    let labeled = pool::par_map(&pairs, |(a, spec)| {
        let t: Vec<f64> =
            trap_oracle.execute_all(a, spec.operand()).iter().map(|r| r.time_s).collect();
        let label = (0..3)
            .min_by(|&i, &j| t[i].partial_cmp(&t[j]).expect("finite"))
            .expect("three dataflows");
        (spec.features(a, &tile_cfg).to_vector(), label, [t[0], t[1], t[2]])
    });
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(labeled.len());
    let mut y: Vec<usize> = Vec::with_capacity(labeled.len());
    let mut times: Vec<[f64; 3]> = Vec::with_capacity(labeled.len());
    for (f, label, t) in labeled {
        x.push(f);
        y.push(label);
        times.push(t);
    }

    let m = misam_mlkit::matrix::FeatureMatrix::from_rows(&x);
    let split = cv::train_test_split(x.len(), 0.7, scale.seed);
    let xt = m.gather(&split.train);
    let yt = cv::gather(&y, &split.train);
    let params = TreeParams {
        max_depth: 10,
        min_samples_leaf: 3,
        min_samples_split: 6,
        min_gain: 1e-6,
        class_weights: Some(metrics::inverse_frequency_weights(&yt, 3)),
    };
    let tree = DecisionTree::fit_matrix(&xt, &yt, 3, &params);

    let xv = m.gather(&split.validation);
    let yv = cv::gather(&y, &split.validation);
    let pred = tree.predict_batch_matrix(&xv);
    let accuracy = metrics::accuracy(&pred, &yv);
    let confusion = ConfusionMatrix::new(&pred, &yv, 3);

    let max_speedup = split
        .validation
        .iter()
        .map(|&i| {
            let t = times[i];
            let best = t.iter().cloned().fold(f64::INFINITY, f64::min);
            let worst = t.iter().cloned().fold(0.0, f64::max);
            worst / best
        })
        .fold(0.0, f64::max);

    // Normalized bars on pruned ConvNeXt-style layers — the paper's
    // observation that "different layers of ConvNeXt benefit from
    // different dataflows". 1x1-conv GEMM shapes of ConvNeXt-T blocks.
    const CONVNEXT_LAYERS: &[(usize, usize)] =
        &[(96, 384), (384, 96), (192, 768), (768, 192), (384, 1536), (1536, 384), (768, 3072)];
    let rows = CONVNEXT_LAYERS
        .iter()
        .enumerate()
        .map(|(i, &(m, k))| {
            let a = gen::pruned_dnn(m, k, 0.2, scale.seed ^ (0xc0_0e + i as u64));
            let b = gen::pruned_dnn(k, 512, 0.2, scale.seed ^ (0xc1_0e + i as u64));
            let t: Vec<f64> = trap.run_all(&a, &b).into_iter().map(|(_, r)| r.time_s).collect();
            let best = t.iter().cloned().fold(f64::INFINITY, f64::min);
            NormalizedRow {
                name: format!("convnext-{m}x{k}-d0.2"),
                category: Category::MsMs,
                normalized: [t[0] / best, t[1] / best, t[2] / best],
            }
        })
        .collect();

    Fig13Result { accuracy, confusion, max_speedup, rows }
}

/// The Figure 13 dataflow names in index order (for rendering).
pub fn dataflow_names() -> [&'static str; 3] {
    ["row-wise", "inner-product", "outer-product"]
}

/// Sanity accessor: Dataflow order matches `dataflow_names`.
pub fn dataflow_order() -> [Dataflow; 3] {
    Dataflow::ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn corpora_are_the_generated_corpora() {
        let c = Corpora::new(quick());
        assert_eq!(*c.classifier(), Dataset::generate(250, 2025));
        assert_eq!(*c.latency(), Dataset::generate(300, 2025 ^ LATENCY_CORPUS_SALT));
        assert!(std::ptr::eq(c.classifier(), c.classifier()), "generated once");
    }

    #[test]
    fn fig01_covers_all_categories_and_regimes() {
        let pts = fig01_sparsity_space(&quick());
        assert_eq!(pts.len(), 113);
        let dense_b = pts.iter().filter(|p| p.b_density == 1.0).count();
        assert_eq!(dense_b, 15 + 12); // MSxD + HSxD
        assert!(pts.iter().any(|p| p.a_density < 0.02));
    }

    #[test]
    fn fig03_shows_no_universal_winner() {
        let rows = fig03_design_suite(&quick());
        assert!(!rows.is_empty());
        for r in &rows {
            let best = r.normalized.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!((best - 1.0).abs() < 1e-9, "{}: {:?}", r.name, r.normalized);
        }
        // At least two distinct designs win somewhere.
        let winners: std::collections::HashSet<usize> = rows
            .iter()
            .map(|r| {
                r.normalized
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            })
            .collect();
        assert!(winners.len() >= 2, "winners {winners:?}");
    }

    #[test]
    fn tab04_diagonal_is_one_and_offdiag_ge_one() {
        let t = tab04_design_speedups(&Corpora::new(quick()));
        for (i, row) in t.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v.is_nan() {
                    continue; // class absent at this scale
                }
                if i == j {
                    assert!((v - 1.0).abs() < 1e-9);
                } else {
                    assert!(v >= 1.0, "optimal design must not lose: t[{i}][{j}] = {v}");
                }
            }
        }
    }

    #[test]
    fn fig09_predictor_quality_holds_at_small_scale() {
        let t = fig09_latency_predictor(&Corpora::new(quick()));
        assert!(t.r2 > 0.75, "R2 {:.3}", t.r2);
        assert!(t.mae < 0.7, "MAE {:.3}", t.mae);
    }

    #[test]
    fn fig12_host_stages_are_minor() {
        let rows = fig12_breakdown(&Corpora::new(quick()));
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // The robust Figure 12 property at any scale: inference is a
            // sliver of end-to-end time (paper: ~0.1%). Preprocessing is
            // O(nnz) wall time, so its share only drops at the full
            // matrix scale the mid/paper binaries use.
            let total = r.preprocess_s + r.inference_s + r.execute_s;
            assert!(
                r.inference_s < 0.05 * total,
                "{}: inference fraction {:.3}",
                r.name,
                r.inference_s / total
            );
            assert!(r.preprocess_s > 0.0 && r.execute_s > 0.0);
        }
    }

    #[test]
    fn dataflow_rendering_tables_agree() {
        let names = dataflow_names();
        for (i, d) in dataflow_order().iter().enumerate() {
            assert_eq!(names[i], d.to_string());
        }
    }
}
