//! misam-learn: the online learning loop.
//!
//! Closes the serve-side feedback cycle: sampled production traffic
//! (tapped by `misam-serve`'s [`LearnTap`]) is oracle-labeled in the
//! background, accumulated into a rolling window, and periodically
//! retrained into a fresh [`ModelBundle`] that is hot-published back
//! into the serving [`SharedModel`] — all off the request hot path.
//!
//! The loop is deliberately conservative about when it retrains:
//!
//! - **Full refit** only when observed drift (1 − rolling
//!   selector-vs-oracle agreement) exceeds [`LearnConfig::drift_threshold`].
//!   A refit reruns the whole training pipeline ([`train_selector`] +
//!   [`train_latency_predictor`]) on the rolling window, so given the
//!   same window and seed it is byte-identical to an offline refit.
//! - **Touch-up** otherwise: the serving selector is copy-pruned
//!   against the window
//!   ([`misam::training::TrainedSelector::refreshed_with_validation`])
//!   and published only if pruning actually removed subtrees.
//!
//! Every published bundle goes through [`SharedModel::publish`], which
//! stamps a fresh generation number under the model write lock, so
//! in-flight batches (which snapshot once per flush) are never torn
//! across generations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use misam::dataset::{Dataset, Objective, Sample};
use misam::persist::ModelBundle;
use misam::training::{train_latency_predictor, train_selector};
use misam_serve::state::SharedModel;
use misam_serve::{LearnTap, TapSample};
use misam_sim::DesignId;
use misam_sparse::LazyOperand;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which oracle tier labels tapped traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelVia {
    /// The memoized cycle simulator ([`misam_oracle::global`]).
    #[default]
    Sim,
    /// The tiered oracle ([`misam_oracle::tiered_global`]): gated
    /// surrogate answers with cycle-sim fallback. Degrades to sim-only
    /// labeling while no surrogate bundle is installed.
    Tiered,
}

/// Tuning knobs for the background learning loop.
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// Label objective: what "the right design" means for this deployment.
    pub objective: Objective,
    /// Rolling labeled-window capacity (oldest samples age out).
    pub window: usize,
    /// Minimum labeled samples before any retrain is considered.
    pub min_window: usize,
    /// Minimum time between retrain evaluations.
    pub cadence: Duration,
    /// Drift (1 − rolling agreement) above which a full refit runs
    /// instead of a prune touch-up. Negative forces full refits.
    pub drift_threshold: f64,
    /// New labels required since the last evaluation before another runs.
    pub min_new_labels: usize,
    /// Size of the rolling agreement ring (recent predicted-vs-oracle
    /// pairs scored for the drift signal).
    pub agreement_window: usize,
    /// Training seed for refits (determinism: same window + seed →
    /// byte-identical bundle).
    pub seed: u64,
    /// Oracle tier used to label tapped traffic.
    pub label_via: LabelVia,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            objective: Objective::Latency,
            window: 512,
            min_window: 64,
            cadence: Duration::from_millis(500),
            drift_threshold: 0.1,
            min_new_labels: 32,
            agreement_window: 128,
            seed: 7,
            label_via: LabelVia::Sim,
        }
    }
}

/// A tapped request after oracle labeling.
#[derive(Debug, Clone)]
pub struct LabeledSample {
    /// Feature vector exactly as served (same layout the selector saw).
    pub features: Vec<f64>,
    /// What the serving selector answered at tap time.
    pub predicted: DesignId,
    /// What the simulation oracle says was optimal under the objective.
    pub oracle: DesignId,
    /// Oracle latency per design.
    pub times_s: [f64; 4],
    /// Oracle energy per design.
    pub energies_j: [f64; 4],
    /// Generator family of A (provenance for the dataset row).
    pub kind: String,
}

/// Oracle-labels one tapped sample.
///
/// Only samples with generator provenance ([`TapSample::spec`]) can be
/// labeled: the spec rebuilds A's structure deterministically
/// server-side (structure-first: A is never materialized), and the
/// process-global memoizing oracle sweeps all four designs (each
/// (matrix, design) pair is cycle-simulated exactly once while resident,
/// so relabeling identical traffic is cache-hit cheap and, evicted or
/// not, *identical* — the basis of the byte-identity guarantee).
///
/// # Errors
///
/// Returns a message when the sample carries no spec (bare `Predict`
/// vectors have no provenance to simulate) or the spec fails to build.
pub fn label_sample(sample: &TapSample, objective: Objective) -> Result<LabeledSample, String> {
    label_sample_via(sample, objective, LabelVia::Sim)
}

/// [`label_sample`] with an explicit oracle tier. `LabelVia::Tiered`
/// routes through [`misam_oracle::tiered_global`], which answers from
/// the gated surrogate when confident and falls back to the cycle sim
/// otherwise — with no bundle installed it is sim-only, so labels stay
/// byte-identical to the `Sim` path.
///
/// # Errors
///
/// Same contract as [`label_sample`].
pub fn label_sample_via(
    sample: &TapSample,
    objective: Objective,
    via: LabelVia,
) -> Result<LabeledSample, String> {
    let spec = sample.spec.as_ref().ok_or("sample has no generator provenance")?;
    let a = spec.build()?;
    let b = LazyOperand::Dense { rows: a.cols(), cols: spec.dense_cols };
    let reports = match via {
        LabelVia::Sim => misam_oracle::global().execute_all_lazy(&a, b),
        LabelVia::Tiered => misam_oracle::tiered_global().execute_all_lazy(&a, b),
    };
    let mut times_s = [0.0f64; 4];
    let mut energies_j = [0.0f64; 4];
    for r in &reports {
        times_s[r.design.index()] = r.time_s;
        energies_j[r.design.index()] = r.energy_j;
    }
    let oracle = DesignId::from_index(objective.best_design(&times_s, &energies_j));
    Ok(LabeledSample {
        features: sample.features.clone(),
        predicted: sample.predicted,
        oracle,
        times_s,
        energies_j,
        kind: spec.kind.clone(),
    })
}

/// Full retrain on a labeled window: the same pipeline offline training
/// runs, so the result is deterministic given (window, seed) and
/// byte-identical to an offline refit on the same rows.
///
/// Threshold, reconfiguration-cost constants, and tile geometry are
/// carried over from the bundle being replaced (`base`) — the loop
/// relearns the *selector* and *predictor*, not the deployment's
/// policy constants.
///
/// # Panics
///
/// Panics if `window` is empty (callers gate on `min_window`).
pub fn refit_bundle(
    window: &[LabeledSample],
    objective: Objective,
    seed: u64,
    base: &ModelBundle,
) -> ModelBundle {
    assert!(!window.is_empty(), "refit_bundle needs a non-empty window");
    let dataset = Dataset {
        samples: window
            .iter()
            .map(|s| Sample {
                features: s.features.clone(),
                times_s: s.times_s,
                energies_j: s.energies_j,
                a_kind: s.kind.clone(),
                b_dense: true,
            })
            .collect(),
    };
    let selector = train_selector(&dataset, objective, seed);
    let predictor = train_latency_predictor(&dataset, seed);
    ModelBundle::new(
        selector.selector,
        predictor.predictor,
        base.threshold,
        base.cost,
        base.tile_config(),
    )
}

/// Handle to the background trainer thread.
///
/// Dropping the handle without calling [`Learner::stop`] detaches the
/// thread (it keeps running until the process exits); `stop` joins it.
#[derive(Debug)]
pub struct Learner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Learner {
    /// Starts the tap → label → retrain → publish loop on a background
    /// thread. The loop drains the tap in small batches, labels each
    /// sample against the global oracle, and evaluates the retrain
    /// policy at most once per [`LearnConfig::cadence`].
    pub fn spawn(model: Arc<SharedModel>, tap: Arc<LearnTap>, cfg: LearnConfig) -> Learner {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("misam-learn".into())
            .spawn(move || trainer_loop(&model, &tap, &cfg, &flag))
            .expect("spawn learner thread");
        Learner { stop, thread: Some(thread) }
    }

    /// Signals the trainer to exit and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// How many samples one loop iteration labels before re-checking the
/// stop flag and retrain cadence.
const DRAIN_BATCH: usize = 64;

fn trainer_loop(model: &SharedModel, tap: &LearnTap, cfg: &LearnConfig, stop: &AtomicBool) {
    let window_cap = cfg.window.max(1);
    let ring_cap = cfg.agreement_window.max(1);
    let mut window: VecDeque<LabeledSample> = VecDeque::with_capacity(window_cap);
    // Recent (predicted, oracle) pairs: the drift signal. `hits` tracks
    // agreements inside the ring so the rolling rate is O(1) to read.
    let mut ring: VecDeque<bool> = VecDeque::with_capacity(ring_cap);
    let mut hits: usize = 0;
    let mut new_labels: usize = 0;
    let mut last_eval = Instant::now();

    while !stop.load(Ordering::Relaxed) {
        let mut drained = 0usize;
        while drained < DRAIN_BATCH {
            let Some(sample) = tap.try_pop() else { break };
            drained += 1;
            match label_sample_via(&sample, cfg.objective, cfg.label_via) {
                Ok(labeled) => {
                    if ring.len() == ring_cap && ring.pop_front() == Some(true) {
                        hits -= 1;
                    }
                    let agree = labeled.predicted == labeled.oracle;
                    ring.push_back(agree);
                    hits += usize::from(agree);
                    if window.len() == window_cap {
                        if let Some(old) = window.pop_front() {
                            tap.retire_label(old.predicted, old.oracle);
                        }
                    }
                    let agreement = hits as f64 / ring.len() as f64;
                    tap.record_label(
                        labeled.predicted,
                        labeled.oracle,
                        window.len() + 1,
                        agreement,
                    );
                    window.push_back(labeled);
                    new_labels += 1;
                }
                Err(_) => tap.record_skip(),
            }
        }
        if drained > 0 && cfg.label_via == LabelVia::Tiered {
            let ts = misam_oracle::tiered_global().stats();
            tap.record_surrogate(ts.surrogate_pairs, ts.fallback_pairs);
        }

        if last_eval.elapsed() >= cfg.cadence
            && window.len() >= cfg.min_window.max(1)
            && new_labels >= cfg.min_new_labels
        {
            let agreement = if ring.is_empty() { 1.0 } else { hits as f64 / ring.len() as f64 };
            let drift = 1.0 - agreement;
            let base = model.snapshot();
            window.make_contiguous();
            let (samples, _) = window.as_slices();
            if drift > cfg.drift_threshold {
                tap.record_retrain(true);
                let bundle = refit_bundle(samples, cfg.objective, cfg.seed, &base.bundle);
                let generation = model.publish(bundle);
                tap.record_publish(generation);
            } else {
                tap.record_retrain(false);
                let x: Vec<Vec<f64>> = samples.iter().map(|s| s.features.clone()).collect();
                let y: Vec<usize> = samples.iter().map(|s| s.oracle.index()).collect();
                let (selector, removed) = base.bundle.selector.refreshed_with_validation(&x, &y);
                if removed > 0 {
                    let mut bundle = base.bundle.clone();
                    bundle.selector = selector;
                    let generation = model.publish(bundle);
                    tap.record_publish(generation);
                }
            }
            new_labels = 0;
            last_eval = Instant::now();
        }

        if drained == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_features::{PairFeatures, TileConfig};
    use misam_serve::GenSpec;

    fn spec(kind: &str, seed: u64) -> GenSpec {
        GenSpec { kind: kind.into(), rows: 96, cols: 96, density: 0.05, seed, dense_cols: 32 }
    }

    fn seed_bundle() -> ModelBundle {
        let dataset = Dataset::generate(40, 11);
        let sel = train_selector(&dataset, Objective::Latency, 11);
        let lat = train_latency_predictor(&dataset, 11);
        ModelBundle::new(
            sel.selector,
            lat.predictor,
            0.08,
            misam_recon::cost::ReconfigCost::default(),
            TileConfig::default(),
        )
    }

    /// Features exactly as the server computes them for a PredictGen
    /// request: dense-B pair features under the bundle's tile config.
    fn served_features(spec: &GenSpec, tile: &TileConfig) -> Vec<f64> {
        let a = spec.build().expect("spec builds");
        PairFeatures::extract_dense_b(&a, a.cols(), spec.dense_cols, tile).to_vector()
    }

    #[test]
    fn label_sample_requires_provenance() {
        let bare =
            TapSample { features: vec![0.0; 4], predicted: DesignId::from_index(0), spec: None };
        assert!(label_sample(&bare, Objective::Latency).is_err());
    }

    #[test]
    fn labeling_is_deterministic_through_the_memoized_oracle() {
        let s = spec("uniform", 42);
        let tile = TileConfig::default();
        let sample = TapSample {
            features: served_features(&s, &tile),
            predicted: DesignId::from_index(1),
            spec: Some(s),
        };
        let a = label_sample(&sample, Objective::Latency).expect("labels");
        let b = label_sample(&sample, Objective::Latency).expect("labels again");
        assert_eq!(a.oracle, b.oracle);
        assert_eq!(a.times_s, b.times_s);
        assert_eq!(a.energies_j, b.energies_j);
    }

    #[test]
    fn tiered_labeling_without_a_bundle_matches_sim_labeling() {
        let s = spec("power-law", 77);
        let tile = TileConfig::default();
        let sample = TapSample {
            features: served_features(&s, &tile),
            predicted: DesignId::from_index(2),
            spec: Some(s),
        };
        // No surrogate bundle is installed in this process, so the
        // tiered tier must degrade to sim-only and produce identical
        // labels (the issue's "degrades to sim-only" guarantee).
        let sim = label_sample_via(&sample, Objective::Latency, LabelVia::Sim).expect("sim");
        let tiered =
            label_sample_via(&sample, Objective::Latency, LabelVia::Tiered).expect("tiered");
        assert_eq!(sim.oracle, tiered.oracle);
        assert_eq!(sim.times_s, tiered.times_s);
        assert_eq!(sim.energies_j, tiered.energies_j);
    }

    #[test]
    fn refit_is_deterministic_given_window_and_seed() {
        let tile = TileConfig::default();
        let base = seed_bundle();
        let window: Vec<LabeledSample> = (0..24)
            .map(|i| {
                let s = spec(if i % 2 == 0 { "uniform" } else { "banded" }, 100 + i);
                let sample = TapSample {
                    features: served_features(&s, &tile),
                    predicted: DesignId::from_index(0),
                    spec: Some(s),
                };
                label_sample(&sample, Objective::Latency).expect("labels")
            })
            .collect();
        let x = refit_bundle(&window, Objective::Latency, 5, &base);
        let y = refit_bundle(&window, Objective::Latency, 5, &base);
        assert_eq!(x.to_json().expect("json"), y.to_json().expect("json"));
        assert_eq!(x.threshold, base.threshold);
        assert_eq!(x.tile_config(), base.tile_config());
    }

    /// The tentpole byte-identity guarantee: a learner-published bundle
    /// equals an offline refit on the same labeled window, byte for
    /// byte. Drives the loop directly through a SharedModel + LearnTap
    /// (no sockets) with a negative drift threshold so the first
    /// evaluation is a full refit.
    #[test]
    fn learner_publish_matches_offline_refit_byte_for_byte() {
        const N: usize = 12;
        let base = seed_bundle();
        let tile = base.tile_config();
        let model = Arc::new(SharedModel::new(base.clone()));
        let tap = Arc::new(LearnTap::new(1, 4096));

        let mut expected_window = Vec::with_capacity(N);
        for i in 0..N {
            let s = spec(if i % 3 == 0 { "power-law" } else { "uniform" }, 500 + i as u64);
            let features = served_features(&s, &tile);
            let predicted = DesignId::from_index(i % 4);
            expected_window.push(
                label_sample(
                    &TapSample { features: features.clone(), predicted, spec: Some(s.clone()) },
                    Objective::Latency,
                )
                .expect("offline label"),
            );
            tap.offer(&features, predicted, Some(&s));
        }

        let cfg = LearnConfig {
            window: N,
            min_window: N,
            cadence: Duration::from_millis(1),
            drift_threshold: -1.0, // any drift (even 0) forces a full refit
            min_new_labels: 1,
            seed: 21,
            ..LearnConfig::default()
        };
        let learner = Learner::spawn(Arc::clone(&model), Arc::clone(&tap), cfg);
        let deadline = Instant::now() + Duration::from_secs(60);
        while tap.publishes() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        learner.stop();
        assert!(tap.publishes() >= 1, "learner never published");

        let offline = refit_bundle(&expected_window, Objective::Latency, 21, &base);
        let published = model.snapshot();
        assert!(published.generation() > 1, "generation did not advance");
        assert_eq!(
            published.bundle.to_json().expect("published json"),
            offline.to_json().expect("offline json"),
            "published bundle differs from offline refit on the same window"
        );
    }

    #[test]
    fn touchup_path_skips_publish_when_nothing_prunes() {
        let base = seed_bundle();
        let model = Arc::new(SharedModel::new(base.clone()));
        let tap = Arc::new(LearnTap::new(1, 4096));
        let tile = base.tile_config();

        // Label traffic the serving selector already agrees with: zero
        // drift keeps the loop on the touch-up path.
        let prepared = model.snapshot();
        for i in 0..8u64 {
            let s = spec("uniform", 900 + i);
            let features = served_features(&s, &tile);
            let labeled = label_sample(
                &TapSample {
                    features: features.clone(),
                    predicted: DesignId::from_index(0),
                    spec: Some(s.clone()),
                },
                Objective::Latency,
            )
            .expect("label");
            tap.offer(&features, labeled.oracle, Some(&s));
        }
        drop(prepared);

        let cfg = LearnConfig {
            window: 8,
            min_window: 8,
            cadence: Duration::from_millis(1),
            drift_threshold: 0.5,
            min_new_labels: 1,
            ..LearnConfig::default()
        };
        let learner = Learner::spawn(Arc::clone(&model), Arc::clone(&tap), cfg);
        let deadline = Instant::now() + Duration::from_secs(60);
        while tap.labeled() < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Give the cadence one evaluation after labeling completes.
        std::thread::sleep(Duration::from_millis(50));
        learner.stop();

        let stats = tap.stats_reply(model.generation());
        assert_eq!(stats.labeled, 8);
        assert!(stats.retrains_full == 0, "zero drift must not trigger a full refit");
        assert!(stats.retrains_touchup >= 1, "cadence never evaluated");
        // Agreement is perfect, so drift stayed under threshold.
        assert!((stats.agreement - 1.0).abs() < 1e-9);
    }
}
