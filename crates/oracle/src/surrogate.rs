//! Learned cycle-level surrogate tier: regression-forest latency
//! prediction gated on calibrated ranking agreement with the cycle sim.
//!
//! Every labeling path — corpus generation, the learner's background
//! oracle-labeling, the reconfig engine's probes — bottoms out in the
//! cycle simulator. This module adds a *tiered* front: a per-design
//! [`RegressionForest`] trained on (pair features → log₁₀ latency) from
//! memoized [`SimOracle`] labels answers instead of the simulator, but
//! **only when it is confident**. Confidence is a calibrated margin
//! band: a held-out slice of the training grid measures, per candidate
//! band, whether the surrogate's argmin design matches the cycle sim's,
//! and the published band `tau` is the widest one whose gated agreement
//! clears the target (99% by default). Queries whose predicted top-2
//! margin falls inside the band fall back to the cycle sim.
//!
//! Three layers:
//!
//! * [`SurrogateBundle`] — the versioned, serde-serializable artifact
//!   (`misam train-surrogate` writes it): four forests, the calibrated
//!   band, and the calibration report that justified it.
//! * [`SurrogateExecutor`] — the ungated forest as a plain
//!   [`Executor`]: always answers from the model (benchmark /
//!   counterfactual form).
//! * [`TieredOracle`] — the gated production form: surrogate when the
//!   margin clears the band, memoized cycle sim otherwise, and
//!   per-design hit/fallback counters. With no bundle installed it
//!   degrades to exactly the sim-only oracle.
//!
//! Determinism: model fitting pre-draws all randomness serially
//! (bit-identical at any `MISAM_THREADS`), prediction is a fixed
//! tree-order sum, and the gate is a pure function of the (memoized,
//! deterministic) pair features — so tiered labeling is byte-identical
//! at any thread count, with or without fallbacks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use misam_features::TileConfig;
use misam_mlkit::error::ModelDecodeError;
use misam_mlkit::regforest::{RegForestParams, RegressionForest};
use misam_sim::{resources, CycleBreakdown, DesignConfig, DesignId, Operand, SimReport};
use misam_sparse::{CsrMatrix, LazyMatrix, LazyOperand};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::executors::FpgaSim;
use crate::service::SimOracle;
use crate::{profiles, Executor, LazyLabeler};

/// Current surrogate bundle schema version. Bump on breaking changes to
/// the serialized layout; loads of other versions fail fatally (the
/// caller must retrain, not retry). Version 2 stores the forests as
/// packed node records with their feature maps baked in.
pub const SURROGATE_BUNDLE_VERSION: u32 = 2;

/// Number of FPGA designs the surrogate models.
const N_DESIGNS: usize = DesignId::ALL.len();

/// Errors from surrogate bundle persistence and validation.
#[derive(Debug)]
pub enum SurrogateError {
    /// Filesystem error reading or writing the bundle.
    Io(std::io::Error),
    /// The bundle is not valid JSON for the expected schema.
    Json(serde_json::Error),
    /// The bundle's schema version is not the one this build supports.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The bundle parsed but its contents are unusable (wrong forest
    /// count or feature arity, or a tree that fails validation).
    Malformed(ModelDecodeError),
}

impl SurrogateError {
    /// Whether retrying the same operation could succeed. Version and
    /// shape mismatches are permanent for a given file; I/O hiccups and
    /// truncated JSON may heal on a re-read (e.g. mid-publish).
    pub fn is_retryable(&self) -> bool {
        matches!(self, SurrogateError::Io(_) | SurrogateError::Json(_))
    }
}

impl std::fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurrogateError::Io(e) => write!(f, "surrogate bundle i/o error: {e}"),
            SurrogateError::Json(e) => write!(f, "surrogate bundle json error: {e}"),
            SurrogateError::Version { found, expected } => {
                write!(f, "surrogate bundle version {found} unsupported (expected {expected})")
            }
            SurrogateError::Malformed(e) => write!(f, "surrogate bundle malformed: {e}"),
        }
    }
}

impl std::error::Error for SurrogateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SurrogateError::Io(e) => Some(e),
            SurrogateError::Json(e) => Some(e),
            SurrogateError::Malformed(e) => Some(e),
            SurrogateError::Version { .. } => None,
        }
    }
}

impl From<std::io::Error> for SurrogateError {
    fn from(e: std::io::Error) -> Self {
        SurrogateError::Io(e)
    }
}

impl From<serde_json::Error> for SurrogateError {
    fn from(e: serde_json::Error) -> Self {
        SurrogateError::Json(e)
    }
}

impl From<SurrogateError> for String {
    fn from(e: SurrogateError) -> Self {
        e.to_string()
    }
}

/// Training hyperparameters for [`SurrogateBundle::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateTrainParams {
    /// Per-design forest hyperparameters (seed is salted per design).
    pub forest: RegForestParams,
    /// Every `holdout_every`-th sample (by index) is held out of
    /// training and used only to calibrate the confidence band.
    pub holdout_every: usize,
    /// Gated selection agreement the calibrated band must reach on the
    /// holdout grid.
    pub target_agreement: f64,
}

impl Default for SurrogateTrainParams {
    fn default() -> Self {
        SurrogateTrainParams {
            forest: RegForestParams::default(),
            holdout_every: 5,
            target_agreement: 0.995,
        }
    }
}

/// Holdout calibration stats for one design (bucketed by which design
/// the cycle sim ranked best).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignCalibration {
    /// Holdout samples whose sim-best design is this one.
    pub support: usize,
    /// Of those, how many the calibrated gate sends to the cycle sim.
    pub fallbacks: usize,
    /// Selection agreement among the gate-passing remainder (1.0 when
    /// none pass).
    pub gated_agreement: f64,
}

/// What the calibration harness measured on the held-out shape grid,
/// stored inside the bundle so the published band is auditable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Held-out sample count.
    pub holdout: usize,
    /// The calibrated confidence band: predicted top-2 margin (log₁₀)
    /// must be at least this for the surrogate to answer.
    pub tau_log10: f64,
    /// Holdout samples whose margin clears the band.
    pub gated: usize,
    /// Selection agreement among gate-passing samples.
    pub gated_agreement: f64,
    /// End-to-end agreement counting fallbacks as correct (they are
    /// answered by the sim itself).
    pub overall_agreement: f64,
    /// Fraction of holdout samples the gate sends to the cycle sim.
    pub fallback_rate: f64,
    /// Per-design breakdown, indexed by [`DesignId::index`] of the
    /// sim-best design.
    pub per_design: Vec<DesignCalibration>,
}

/// The versioned, publishable surrogate artifact: one regression forest
/// per design over pair features → log₁₀ seconds, plus the calibrated
/// confidence band and the report that justified it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateBundle {
    /// Schema version ([`SURROGATE_BUNDLE_VERSION`]).
    pub version: u32,
    /// Tile rows the training features were extracted under.
    pub tile_rows: usize,
    /// Tile cols the training features were extracted under.
    pub tile_cols: usize,
    /// Feature arity every forest expects.
    pub n_features: usize,
    /// Calibrated margin band (log₁₀): below this, fall back to sim.
    pub tau_log10: f64,
    /// One forest per design, in [`DesignId::ALL`] order, predicting
    /// log₁₀ latency seconds.
    pub forests: Vec<RegressionForest>,
    /// The holdout measurements behind `tau_log10`.
    pub calibration: CalibrationReport,
}

impl SurrogateBundle {
    /// Trains per-design forests on `(features[i], times_s[i])` rows and
    /// calibrates the confidence band on a deterministic holdout slice
    /// (every `holdout_every`-th row).
    ///
    /// Targets are fitted in log₁₀ space, where latency ratios (the
    /// quantity design selection depends on) are additive margins.
    /// Energy never needs its own model: the sim defines
    /// `energy = power_w(design) × time`, with `power_w` a pure function
    /// of the design, so energy ranking derives exactly from the
    /// predicted times. The published band gates on the *smaller* of the
    /// latency and energy top-2 margins so either objective is safe.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or ragged, any time is not strictly
    /// positive, or `holdout_every < 2` (there must be both training and
    /// holdout rows).
    pub fn fit(
        features: &[Vec<f64>],
        times_s: &[[f64; N_DESIGNS]],
        params: &SurrogateTrainParams,
    ) -> Self {
        assert_eq!(features.len(), times_s.len(), "feature and label counts differ");
        assert!(!features.is_empty(), "cannot fit a surrogate to an empty corpus");
        assert!(params.holdout_every >= 2, "holdout_every must be at least 2");
        let n_features = features[0].len();
        assert!(
            times_s.iter().all(|t| t.iter().all(|&v| v > 0.0 && v.is_finite())),
            "latencies must be positive and finite"
        );

        let is_holdout = |i: usize| i.is_multiple_of(params.holdout_every);
        let train_idx: Vec<usize> = (0..features.len()).filter(|&i| !is_holdout(i)).collect();
        let holdout_idx: Vec<usize> = (0..features.len()).filter(|&i| is_holdout(i)).collect();
        assert!(!train_idx.is_empty(), "holdout split left no training rows");

        let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| features[i].clone()).collect();
        let forests: Vec<RegressionForest> = DesignId::ALL
            .iter()
            .map(|d| {
                let ys: Vec<f64> =
                    train_idx.iter().map(|&i| times_s[i][d.index()].log10()).collect();
                let p = RegForestParams {
                    seed: params.forest.seed ^ (0x0d15_ea5e + d.index() as u64),
                    ..params.forest.clone()
                };
                RegressionForest::fit(&train_x, &ys, &p)
            })
            .collect();

        // Calibrate: per holdout sample, the predicted margin and
        // whether the surrogate's selections (latency AND energy argmin)
        // match the cycle sim's ground truth.
        let mut margins: Vec<(f64, bool, usize)> = Vec::with_capacity(holdout_idx.len());
        for &i in &holdout_idx {
            let pred = predict_log_times(&forests, &features[i]);
            let p = prediction_from_log_times(pred);
            let truth = truth_from_times(&times_s[i]);
            let agree = p.best_latency == truth.0 && p.best_energy == truth.1;
            margins.push((p.margin_log10, agree, truth.0));
        }

        // Widest band whose gated agreement clears the target: sort by
        // margin descending and keep the longest prefix that stays at or
        // above `target_agreement`. Ties on margin sort by the stable
        // holdout order, so calibration is deterministic.
        let mut by_margin: Vec<usize> = (0..margins.len()).collect();
        by_margin.sort_by(|&a, &b| {
            margins[b].0.partial_cmp(&margins[a].0).expect("margins are finite").then(a.cmp(&b))
        });
        let mut agree_prefix = 0usize;
        let mut best_len = 0usize;
        for (k, &mi) in by_margin.iter().enumerate() {
            agree_prefix += usize::from(margins[mi].1);
            let len = k + 1;
            // Never split a run of equal margins: the gate is a pure
            // threshold, so the band must land on a margin boundary.
            let boundary = by_margin.get(k + 1).is_none_or(|&n| margins[n].0 < margins[mi].0);
            if boundary && agree_prefix as f64 >= params.target_agreement * len as f64 {
                best_len = len;
            }
        }
        // `f64::MAX` (not infinity, which JSON cannot carry) is the
        // "no margin qualified" band: every query falls back to sim.
        let tau_log10 = if best_len == 0 { f64::MAX } else { margins[by_margin[best_len - 1]].0 };

        let calibration = calibrate_report(&margins, tau_log10);
        let tile = TileConfig::default();
        SurrogateBundle {
            version: SURROGATE_BUNDLE_VERSION,
            tile_rows: tile.tile_rows,
            tile_cols: tile.tile_cols,
            n_features,
            tau_log10,
            forests,
            calibration,
        }
    }

    /// The tile configuration the training features were extracted under.
    pub fn tile_config(&self) -> TileConfig {
        TileConfig { tile_rows: self.tile_rows, tile_cols: self.tile_cols }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Json`] on serialization failure.
    pub fn to_json(&self) -> Result<String, SurrogateError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a bundle, checking the version before the forests (so a
    /// bundle from another schema version reports
    /// [`SurrogateError::Version`], not a shape error), then rejecting
    /// shape mismatches and invalid trees.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::Json`] on parse failure,
    /// [`SurrogateError::Version`] on a schema version mismatch, and
    /// [`SurrogateError::Malformed`] when the forest count or feature
    /// arity is unusable or a tree fails validation (a member failure
    /// is wrapped with the design index as the tree index).
    pub fn from_json(text: &str) -> Result<Self, SurrogateError> {
        #[derive(Deserialize)]
        struct VersionProbe {
            version: u32,
        }
        let probe: VersionProbe = serde_json::from_str(text)?;
        if probe.version != SURROGATE_BUNDLE_VERSION {
            return Err(SurrogateError::Version {
                found: probe.version,
                expected: SURROGATE_BUNDLE_VERSION,
            });
        }
        let bundle: SurrogateBundle = serde_json::from_str(text)?;
        let shape = |what, expected, found| {
            if expected == found {
                Ok(())
            } else {
                Err(SurrogateError::Malformed(ModelDecodeError::Shape { what, expected, found }))
            }
        };
        shape("surrogate forest count", N_DESIGNS, bundle.forests.len())?;
        shape("surrogate feature arity", misam_features::FEATURE_NAMES.len(), bundle.n_features)?;
        for (d, forest) in bundle.forests.iter().enumerate() {
            shape("surrogate forest arity", bundle.n_features, forest.n_features())?;
            forest.validate().map_err(|e| {
                SurrogateError::Malformed(ModelDecodeError::Tree { tree: d, source: Box::new(e) })
            })?;
        }
        Ok(bundle)
    }

    /// Writes the bundle to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), SurrogateError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads and validates a bundle from `path`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SurrogateBundle::from_json`] plus I/O.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SurrogateError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Converts into the runtime form the oracle serves from.
    pub fn into_model(self) -> SurrogateModel {
        SurrogateModel {
            tile: self.tile_config(),
            forests: self.forests,
            tau_log10: self.tau_log10,
            n_features: self.n_features,
        }
    }
}

/// Builds the per-design calibration report for a chosen band.
fn calibrate_report(margins: &[(f64, bool, usize)], tau_log10: f64) -> CalibrationReport {
    let mut per = vec![(0usize, 0usize, 0usize); N_DESIGNS]; // (support, fallbacks, gated_agree)
    let mut gated = 0usize;
    let mut gated_agree = 0usize;
    for &(margin, agree, sim_best) in margins {
        per[sim_best].0 += 1;
        if margin >= tau_log10 {
            gated += 1;
            gated_agree += usize::from(agree);
            per[sim_best].2 += usize::from(agree);
        } else {
            per[sim_best].1 += 1;
        }
    }
    let holdout = margins.len();
    let frac = |num: usize, den: usize| if den == 0 { 1.0 } else { num as f64 / den as f64 };
    CalibrationReport {
        holdout,
        tau_log10,
        gated,
        gated_agreement: frac(gated_agree, gated),
        overall_agreement: frac(gated_agree + (holdout - gated), holdout),
        fallback_rate: if holdout == 0 { 0.0 } else { (holdout - gated) as f64 / holdout as f64 },
        per_design: per
            .into_iter()
            .map(|(support, fallbacks, agree)| DesignCalibration {
                support,
                fallbacks,
                gated_agreement: frac(agree, support - fallbacks),
            })
            .collect(),
    }
}

/// What the surrogate believes about one operand pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogatePrediction {
    /// Predicted log₁₀ latency seconds per design.
    pub log10_times: [f64; N_DESIGNS],
    /// Predicted argmin-latency design index.
    pub best_latency: usize,
    /// Predicted argmin-energy design index (derived via `power_w`).
    pub best_energy: usize,
    /// The smaller of the latency and energy top-2 margins (log₁₀) —
    /// the quantity the confidence band gates on.
    pub margin_log10: f64,
}

fn predict_log_times(forests: &[RegressionForest], features: &[f64]) -> [f64; N_DESIGNS] {
    let mut out = [0.0; N_DESIGNS];
    for (o, f) in out.iter_mut().zip(forests) {
        *o = f.predict(features);
    }
    out
}

/// Argmin index and top-2 margin of a log-space score vector.
fn argmin_margin(scores: &[f64; N_DESIGNS]) -> (usize, f64) {
    let mut best = 0usize;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s < scores[best] {
            best = i;
        }
    }
    let mut runner = f64::INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        if i != best && s < runner {
            runner = s;
        }
    }
    (best, runner - scores[best])
}

fn prediction_from_log_times(log10_times: [f64; N_DESIGNS]) -> SurrogatePrediction {
    let (best_latency, margin_t) = argmin_margin(&log10_times);
    let mut log_energy = [0.0; N_DESIGNS];
    for (i, d) in DesignId::ALL.iter().enumerate() {
        log_energy[i] = log10_times[i] + resources::power_w(*d).log10();
    }
    let (best_energy, margin_e) = argmin_margin(&log_energy);
    SurrogatePrediction {
        log10_times,
        best_latency,
        best_energy,
        margin_log10: margin_t.min(margin_e),
    }
}

/// Ground-truth (latency argmin, energy argmin) from measured times.
fn truth_from_times(times_s: &[f64; N_DESIGNS]) -> (usize, usize) {
    let mut lt = [0.0; N_DESIGNS];
    let mut le = [0.0; N_DESIGNS];
    for (i, d) in DesignId::ALL.iter().enumerate() {
        lt[i] = times_s[i].log10();
        le[i] = lt[i] + resources::power_w(*d).log10();
    }
    (argmin_margin(&lt).0, argmin_margin(&le).0)
}

/// The runtime form of a [`SurrogateBundle`]: the per-design forests
/// (packed node records, feature maps baked in) plus the calibrated
/// band, cheap to share behind an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateModel {
    forests: Vec<RegressionForest>,
    tau_log10: f64,
    tile: TileConfig,
    n_features: usize,
}

impl SurrogateModel {
    /// Predicts log₁₀ latency seconds per design for one feature vector.
    pub fn predict_log_times(&self, features: &[f64]) -> [f64; N_DESIGNS] {
        predict_log_times(&self.forests, features)
    }

    /// Full prediction: per-design log times, argmin designs for both
    /// objectives, and the gating margin.
    pub fn prediction(&self, features: &[f64]) -> SurrogatePrediction {
        prediction_from_log_times(self.predict_log_times(features))
    }

    /// Whether a margin clears the calibrated confidence band.
    pub fn confident(&self, margin_log10: f64) -> bool {
        margin_log10 >= self.tau_log10
    }

    /// The calibrated band (log₁₀ margin).
    pub fn tau_log10(&self) -> f64 {
        self.tau_log10
    }

    /// Returns a copy with a different confidence band — the
    /// calibration-sweep hook (tighter band ⇒ more fallbacks).
    pub fn with_tau(&self, tau_log10: f64) -> Self {
        SurrogateModel { tau_log10, ..self.clone() }
    }

    /// Tile configuration features must be extracted under.
    pub fn tile_config(&self) -> TileConfig {
        self.tile
    }

    /// Feature arity the forests expect.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Synthesizes a [`SimReport`] for `design` from a predicted log₁₀
    /// latency, reproducing the simulator's own derivations: cycles are
    /// rounded at the design's clock, `time_s = cycles / freq`, and
    /// `energy = power_w × time`. Secondary structural fields (tiles,
    /// passes, flops, output nnz, utilization) are zeroed — consumers of
    /// surrogate labels read time/energy/cycles only.
    pub fn synthesize(&self, design: DesignId, log10_time_s: f64) -> SimReport {
        let cfg = DesignConfig::of(design);
        let hz = cfg.freq_mhz * 1e6;
        let cycles = (10f64.powf(log10_time_s) * hz).round().max(1.0) as u64;
        let time_s = cycles as f64 / hz;
        let power_w = resources::power_w(design);
        SimReport {
            design,
            cycles,
            breakdown: CycleBreakdown {
                a_read: 0,
                b_read: 0,
                c_write: 0,
                compute: cycles,
                overhead: 0,
            },
            time_s,
            power_w,
            energy_j: power_w * time_s,
            pe_utilization: 0.0,
            tiles: 0,
            passes: 0,
            flops: 0,
            output_nnz: 0,
        }
    }
}

/// The ungated surrogate as a plain [`Executor`]: every query is
/// answered from the forests, with no sim fallback. This is the
/// benchmark / counterfactual form; production labeling goes through
/// [`TieredOracle`].
#[derive(Debug, Clone)]
pub struct SurrogateExecutor {
    model: Arc<SurrogateModel>,
}

impl SurrogateExecutor {
    /// Wraps a runtime model.
    pub fn new(model: Arc<SurrogateModel>) -> Self {
        SurrogateExecutor { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<SurrogateModel> {
        &self.model
    }
}

impl Executor for SurrogateExecutor {
    type Report = SimReport;

    fn targets(&self) -> usize {
        N_DESIGNS
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> SimReport {
        assert!(target < N_DESIGNS, "target out of range");
        let features =
            profiles::global().pair_features(a, b, &self.model.tile_config()).to_vector();
        let log_times = self.model.predict_log_times(&features);
        self.model.synthesize(DesignId::ALL[target], log_times[target])
    }

    fn execute_all(&self, a: &CsrMatrix, b: Operand<'_>) -> Vec<SimReport> {
        let features =
            profiles::global().pair_features(a, b, &self.model.tile_config()).to_vector();
        let log_times = self.model.predict_log_times(&features);
        DesignId::ALL.iter().map(|d| self.model.synthesize(*d, log_times[d.index()])).collect()
    }
}

/// Snapshot of the tiered oracle's serving counters. Counts are per
/// operand *pair* (one `execute_all` sweep = one event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TieredStats {
    /// Pairs answered by the surrogate.
    pub surrogate_pairs: u64,
    /// Pairs that fell inside the band and went to the cycle sim.
    pub fallback_pairs: u64,
    /// Pairs served while no model was installed (pure sim).
    pub unmodeled_pairs: u64,
    /// Surrogate-served pairs bucketed by the predicted-best design.
    pub per_design_surrogate: [u64; N_DESIGNS],
    /// Fallback pairs bucketed by the predicted-best design.
    pub per_design_fallback: [u64; N_DESIGNS],
}

impl TieredStats {
    /// Fallback fraction among modeled pairs (0 when nothing served).
    pub fn fallback_rate(&self) -> f64 {
        let total = self.surrogate_pairs + self.fallback_pairs;
        if total == 0 {
            0.0
        } else {
            self.fallback_pairs as f64 / total as f64
        }
    }
}

/// The gated two-tier oracle: surrogate when the calibrated margin
/// clears the band, memoized cycle sim otherwise. With no model
/// installed every query goes to the sim, so the tier is always safe to
/// put in front of a labeling path.
pub struct TieredOracle {
    sim: SimOracle<FpgaSim>,
    model: RwLock<Option<Arc<SurrogateModel>>>,
    surrogate_pairs: AtomicU64,
    fallback_pairs: AtomicU64,
    unmodeled_pairs: AtomicU64,
    per_design_surrogate: [AtomicU64; N_DESIGNS],
    per_design_fallback: [AtomicU64; N_DESIGNS],
}

impl std::fmt::Debug for TieredOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredOracle")
            .field("has_model", &self.has_model())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for TieredOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl TieredOracle {
    /// An empty tiered oracle (no model installed: pure sim) with its
    /// own memo cache.
    pub fn new() -> Self {
        TieredOracle {
            sim: SimOracle::new(FpgaSim),
            model: RwLock::new(None),
            surrogate_pairs: AtomicU64::new(0),
            fallback_pairs: AtomicU64::new(0),
            unmodeled_pairs: AtomicU64::new(0),
            per_design_surrogate: Default::default(),
            per_design_fallback: Default::default(),
        }
    }

    /// Installs (hot-swaps) the surrogate model. Subsequent queries gate
    /// through it immediately.
    pub fn install(&self, model: Arc<SurrogateModel>) {
        *self.model.write() = Some(model);
    }

    /// Installs a model converted from a bundle.
    pub fn install_bundle(&self, bundle: SurrogateBundle) {
        self.install(Arc::new(bundle.into_model()));
    }

    /// Loads, validates, and installs a bundle from disk. On any error
    /// — missing file, stale version, malformed forests — the current
    /// model (or sim-only mode) is left untouched.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SurrogateBundle::load`].
    pub fn load_bundle(&self, path: impl AsRef<std::path::Path>) -> Result<(), SurrogateError> {
        let bundle = SurrogateBundle::load(path)?;
        self.install_bundle(bundle);
        Ok(())
    }

    /// Removes the model: every subsequent query is pure sim.
    pub fn uninstall(&self) {
        *self.model.write() = None;
    }

    /// Whether a surrogate model is currently installed.
    pub fn has_model(&self) -> bool {
        self.model.read().is_some()
    }

    /// The currently installed model, if any.
    pub fn model(&self) -> Option<Arc<SurrogateModel>> {
        self.model.read().clone()
    }

    /// The underlying memoizing cycle-sim tier.
    pub fn sim(&self) -> &SimOracle<FpgaSim> {
        &self.sim
    }

    /// Serving counters snapshot.
    pub fn stats(&self) -> TieredStats {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TieredStats {
            surrogate_pairs: load(&self.surrogate_pairs),
            fallback_pairs: load(&self.fallback_pairs),
            unmodeled_pairs: load(&self.unmodeled_pairs),
            per_design_surrogate: std::array::from_fn(|i| load(&self.per_design_surrogate[i])),
            per_design_fallback: std::array::from_fn(|i| load(&self.per_design_fallback[i])),
        }
    }

    /// Labels all designs for an eager operand pair through the tier.
    pub fn execute_all_pair(&self, a: &CsrMatrix, b: Operand<'_>) -> Vec<SimReport> {
        let Some(model) = self.model.read().clone() else {
            self.unmodeled_pairs.fetch_add(1, Ordering::Relaxed);
            return self.sim.execute_all(a, b);
        };
        let features = profiles::global().pair_features(a, b, &model.tile_config()).to_vector();
        self.finish_pair(&model, &features, || self.sim.execute_all(a, b))
    }

    /// Labels all designs for a lazy (structure-only) pair through the
    /// tier — the corpus-generation entry. Gating decisions are
    /// bit-identical to the eager path because lazy pair features are.
    pub fn execute_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        let Some(model) = self.model.read().clone() else {
            self.unmodeled_pairs.fetch_add(1, Ordering::Relaxed);
            return self.sim.execute_all_lazy(a, b);
        };
        let features = profiles::pair_features_lazy(a, b, &model.tile_config()).to_vector();
        self.finish_pair(&model, &features, || self.sim.execute_all_lazy(a, b))
    }

    fn finish_pair(
        &self,
        model: &Arc<SurrogateModel>,
        features: &[f64],
        sim_all: impl FnOnce() -> Vec<SimReport>,
    ) -> Vec<SimReport> {
        let pred = model.prediction(features);
        if model.confident(pred.margin_log10) {
            self.surrogate_pairs.fetch_add(1, Ordering::Relaxed);
            self.per_design_surrogate[pred.best_latency].fetch_add(1, Ordering::Relaxed);
            return DesignId::ALL
                .iter()
                .map(|d| model.synthesize(*d, pred.log10_times[d.index()]))
                .collect();
        }
        self.fallback_pairs.fetch_add(1, Ordering::Relaxed);
        self.per_design_fallback[pred.best_latency].fetch_add(1, Ordering::Relaxed);
        sim_all()
    }
}

impl Executor for TieredOracle {
    type Report = SimReport;

    fn targets(&self) -> usize {
        N_DESIGNS
    }

    /// Single-target queries make the same pair-level gate decision as
    /// [`TieredOracle::execute_all_pair`] (the band is a property of the
    /// pair, not the target), so mixed call patterns stay consistent.
    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> SimReport {
        assert!(target < N_DESIGNS, "target out of range");
        let (model, pred) = match self.model.read().clone() {
            None => (None, None),
            Some(model) => {
                let features =
                    profiles::global().pair_features(a, b, &model.tile_config()).to_vector();
                let pred = model.prediction(&features);
                let ok = model.confident(pred.margin_log10);
                (Some(model), ok.then_some(pred))
            }
        };
        match (model, pred) {
            (Some(model), Some(pred)) => {
                self.surrogate_pairs.fetch_add(1, Ordering::Relaxed);
                self.per_design_surrogate[pred.best_latency].fetch_add(1, Ordering::Relaxed);
                model.synthesize(DesignId::ALL[target], pred.log10_times[target])
            }
            (Some(_), None) => {
                self.fallback_pairs.fetch_add(1, Ordering::Relaxed);
                self.sim.execute(a, b, target)
            }
            (None, _) => {
                self.unmodeled_pairs.fetch_add(1, Ordering::Relaxed);
                self.sim.execute(a, b, target)
            }
        }
    }

    fn execute_all(&self, a: &CsrMatrix, b: Operand<'_>) -> Vec<SimReport> {
        self.execute_all_pair(a, b)
    }
}

impl LazyLabeler for TieredOracle {
    fn label_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        self.execute_all_lazy(a, b)
    }

    /// Gates directly on the caller's feature vector when it was
    /// extracted under the model's tile config (the corpus pipeline
    /// extracts features for every sample anyway, from the same operand
    /// profiles, so the vectors are bit-identical). Any mismatch falls
    /// back to the self-extracting path, never to a wrong gate.
    ///
    /// This is the corpus entry, where every pair is freshly drawn and
    /// never recurs: unmodeled and fallback pairs go to [`FpgaSim`]
    /// directly, not through the tier's report cache.
    fn label_all_lazy_with_features(
        &self,
        a: &LazyMatrix,
        b: LazyOperand<'_>,
        features: &[f64],
        tile: &TileConfig,
    ) -> Vec<SimReport> {
        let Some(model) = self.model.read().clone() else {
            self.unmodeled_pairs.fetch_add(1, Ordering::Relaxed);
            return FpgaSim.execute_all_lazy(a, b);
        };
        if *tile != model.tile_config() || features.len() != model.n_features() {
            return self.execute_all_lazy(a, b);
        }
        self.finish_pair(&model, features, || FpgaSim.execute_all_lazy(a, b))
    }
}

/// The process-wide tiered oracle. Starts with no model installed
/// (pure sim); `misam serve --label-via tiered` and
/// `misam dataset --oracle tiered` install a bundle into it at startup.
pub fn tiered_global() -> &'static TieredOracle {
    static GLOBAL: OnceLock<TieredOracle> = OnceLock::new();
    GLOBAL.get_or_init(TieredOracle::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_sparse::gen;

    /// A tiny synthetic corpus labeled by the real sim, enough for the
    /// fit/calibrate plumbing (accuracy is exercised in integration
    /// tests and the bench).
    fn tiny_corpus(n: usize) -> (Vec<Vec<f64>>, Vec<[f64; N_DESIGNS]>) {
        let tile = TileConfig::default();
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        for i in 0..n {
            let rows = 48 + 16 * (i % 5);
            let a = gen::uniform_random(rows, rows, 0.02 + 0.01 * (i % 3) as f64, i as u64);
            let b = Operand::Dense { rows: a.cols(), cols: 32 + 16 * (i % 4) };
            let features = profiles::global().pair_features(&a, b, &tile).to_vector();
            let reports = crate::global().execute_all(&a, b);
            let mut times = [0.0; N_DESIGNS];
            for (t, r) in times.iter_mut().zip(&reports) {
                *t = r.time_s;
            }
            xs.push(features);
            ts.push(times);
        }
        (xs, ts)
    }

    fn small_params() -> SurrogateTrainParams {
        SurrogateTrainParams {
            forest: RegForestParams { n_trees: 4, ..Default::default() },
            holdout_every: 4,
            target_agreement: 0.9,
        }
    }

    #[test]
    fn fit_roundtrip_and_version_gate() {
        let (xs, ts) = tiny_corpus(24);
        let bundle = SurrogateBundle::fit(&xs, &ts, &small_params());
        assert_eq!(bundle.version, SURROGATE_BUNDLE_VERSION);
        assert_eq!(bundle.forests.len(), N_DESIGNS);
        let json = bundle.to_json().unwrap();
        let back = SurrogateBundle::from_json(&json).unwrap();
        assert_eq!(bundle, back);

        let stale = json.replacen(
            &format!("\"version\": {SURROGATE_BUNDLE_VERSION}"),
            "\"version\": 999",
            1,
        );
        match SurrogateBundle::from_json(&stale) {
            Err(SurrogateError::Version { found: 999, expected }) => {
                assert_eq!(expected, SURROGATE_BUNDLE_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(!SurrogateError::Version { found: 999, expected: 1 }.is_retryable());
    }

    /// A version-1 surrogate bundle (boxed-node trees plus separate
    /// feature maps) as the previous format wrote it, with the
    /// "always fall back" band shortened to `1e308`.
    const V1_BUNDLE: &str = concat!(
        r#"{"version":1,"tile_rows":256,"tile_cols":64,"n_features":2,"tau_log10":1e308,"#,
        r#""forests":[{"trees":[{"nodes":[{"Leaf":{"value":0.8199226308859001}}],"#,
        r#""n_features":2}],"maps":[[0,1]],"n_features":2},"#,
        r#"{"trees":[{"nodes":[{"Leaf":{"value":0.3010299956639812}}],"n_features":2}],"#,
        r#""maps":[[0,1]],"n_features":2},"#,
        r#"{"trees":[{"nodes":[{"Leaf":{"value":0.4771212547196625}}],"n_features":2}],"#,
        r#""maps":[[0,1]],"n_features":2},"#,
        r#"{"trees":[{"nodes":[{"Leaf":{"value":0.6574371416182804}}],"n_features":2}],"#,
        r#""maps":[[0,1]],"n_features":2}],"calibration":{"holdout":3,"tau_log10":1e308,"#,
        r#""gated":0,"gated_agreement":1.0,"overall_agreement":1.0,"fallback_rate":1.0,"#,
        r#""per_design":[{"support":1,"fallbacks":1,"gated_agreement":1.0},"#,
        r#"{"support":2,"fallbacks":2,"gated_agreement":1.0},"#,
        r#"{"support":0,"fallbacks":0,"gated_agreement":1.0},"#,
        r#"{"support":0,"fallbacks":0,"gated_agreement":1.0}]}}"#
    );

    #[test]
    fn previous_format_bundle_is_rejected_by_version() {
        let err = SurrogateBundle::from_json(V1_BUNDLE).unwrap_err();
        assert!(matches!(
            err,
            SurrogateError::Version { found: 1, expected: SURROGATE_BUNDLE_VERSION }
        ));
        assert!(!err.is_retryable());
    }

    #[test]
    fn tampered_forests_are_rejected_not_walked() {
        let (xs, ts) = tiny_corpus(24);
        let json = serde_json::to_string(&SurrogateBundle::fit(&xs, &ts, &small_params())).unwrap();
        // The first node record is design 0, tree 0's root split,
        // serialized as `[threshold, left, right, feature]`.
        let root = json.find(r#""nodes":[["#).unwrap() + r#""nodes":[["#.len();
        let end = root + json[root..].find(']').unwrap();
        let fields: Vec<&str> = json[root..end].split(',').collect();
        assert_eq!(fields[1], "1", "root must split");
        let with = |k: usize, value: &str| {
            let mut f = fields.clone();
            f[k] = value;
            format!("{}{}{}", &json[..root], f.join(","), &json[end..])
        };
        let malformed = |text: String| match SurrogateBundle::from_json(&text) {
            Err(e @ SurrogateError::Malformed(_)) => {
                assert!(!e.is_retryable());
                let SurrogateError::Malformed(inner) = e else { unreachable!() };
                inner
            }
            other => panic!("expected Malformed, got {other:?}"),
        };
        // Unwraps design 0 -> tree 0 -> the node-level fault.
        let root_fault = |e: ModelDecodeError| match e {
            ModelDecodeError::Tree { tree: 0, source } => match *source {
                ModelDecodeError::Tree { tree: 0, source } => *source,
                other => panic!("expected tree 0, got {other:?}"),
            },
            other => panic!("expected design 0, got {other:?}"),
        };
        let far = root_fault(malformed(with(1, "99999")));
        assert!(matches!(far, ModelDecodeError::LinkOutOfRange { node: 0, link: 99999, .. }));
        let cycle = root_fault(malformed(with(1, "0")));
        assert!(matches!(cycle, ModelDecodeError::LinkOutOfRange { node: 0, link: 0, .. }));
        assert!(matches!(
            root_fault(malformed(with(3, "999"))),
            ModelDecodeError::FeatureOutOfRange { node: 0, feature: 999, .. }
        ));
        let arity = json.replacen(r#""n_features":24,"#, r#""n_features":5,"#, 1);
        assert!(matches!(malformed(arity), ModelDecodeError::Shape { found: 5, .. }));
    }

    #[test]
    fn decoded_bundle_forests_walk_like_the_per_tree_loop() {
        // The gate's forests walk their trees in lock-step; on a bundle
        // read back from JSON that must still be the per-tree sum.
        let (xs, ts) = tiny_corpus(24);
        let params = SurrogateTrainParams {
            forest: RegForestParams { n_trees: 17, ..Default::default() },
            ..small_params()
        };
        let json = SurrogateBundle::fit(&xs, &ts, &params).to_json().unwrap();
        let bundle = SurrogateBundle::from_json(&json).unwrap();
        let mut probes = xs.clone();
        for (i, x) in xs.iter().enumerate() {
            let mut nan = x.clone();
            nan[i % x.len()] = f64::NAN;
            probes.push(nan);
        }
        for forest in &bundle.forests {
            for x in &probes {
                let mut sum = 0.0;
                for tree in forest.trees() {
                    sum += tree.predict(x);
                }
                let per_tree = sum / forest.n_trees() as f64;
                assert_eq!(forest.predict(x).to_bits(), per_tree.to_bits());
            }
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let (xs, ts) = tiny_corpus(20);
        let a = SurrogateBundle::fit(&xs, &ts, &small_params());
        let b = SurrogateBundle::fit(&xs, &ts, &small_params());
        assert_eq!(a, b);
    }

    #[test]
    fn no_model_degrades_to_sim_only() {
        let tiered = TieredOracle::new();
        let reference = SimOracle::new(FpgaSim);
        let a = gen::uniform_random(96, 96, 0.03, 7);
        let b = Operand::Dense { rows: 96, cols: 64 };
        assert_eq!(tiered.execute_all_pair(&a, b), reference.execute_all(&a, b));
        let stats = tiered.stats();
        assert_eq!(stats.unmodeled_pairs, 1);
        assert_eq!(stats.surrogate_pairs + stats.fallback_pairs, 0);
    }

    #[test]
    fn infinite_band_always_falls_back() {
        let (xs, ts) = tiny_corpus(16);
        let bundle = SurrogateBundle::fit(&xs, &ts, &small_params());
        let model = Arc::new(bundle.into_model().with_tau(f64::INFINITY));
        let tiered = TieredOracle::new();
        tiered.install(model);
        let a = gen::uniform_random(80, 80, 0.04, 11);
        let b = Operand::Dense { rows: 80, cols: 48 };
        let reports = tiered.execute_all_pair(&a, b);
        assert_eq!(reports, SimOracle::new(FpgaSim).execute_all(&a, b));
        assert_eq!(tiered.stats().fallback_pairs, 1);
    }

    #[test]
    fn negative_band_always_serves_surrogate() {
        let (xs, ts) = tiny_corpus(16);
        let bundle = SurrogateBundle::fit(&xs, &ts, &small_params());
        let model = Arc::new(bundle.into_model().with_tau(f64::NEG_INFINITY));
        let tiered = TieredOracle::new();
        tiered.install(model.clone());
        let a = gen::uniform_random(72, 72, 0.05, 13);
        let b = Operand::Dense { rows: 72, cols: 32 };
        let reports = tiered.execute_all_pair(&a, b);
        assert_eq!(tiered.stats().surrogate_pairs, 1);
        // Reports reproduce the sim's derivation invariants.
        for (r, d) in reports.iter().zip(DesignId::ALL) {
            assert_eq!(r.design, d);
            let hz = DesignConfig::of(d).freq_mhz * 1e6;
            assert!((r.time_s - r.cycles as f64 / hz).abs() < 1e-15);
            assert!((r.energy_j - r.power_w * r.time_s).abs() < 1e-15);
        }
        // And match the ungated executor byte for byte.
        let ungated = SurrogateExecutor::new(model).execute_all(&a, b);
        assert_eq!(reports, ungated);
    }

    #[test]
    fn tighter_band_never_reduces_fallbacks() {
        let (xs, ts) = tiny_corpus(24);
        let bundle = SurrogateBundle::fit(&xs, &ts, &small_params());
        let model = bundle.into_model();
        let margins: Vec<f64> = xs.iter().map(|f| model.prediction(f).margin_log10).collect();
        let fallbacks_at = |tau: f64| margins.iter().filter(|&&m| m < tau).count();
        let mut taus: Vec<f64> = margins.clone();
        taus.extend([0.0, 0.01, 0.1, f64::INFINITY]);
        taus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in taus.windows(2) {
            assert!(
                fallbacks_at(pair[1]) >= fallbacks_at(pair[0]),
                "fallback count must be monotone in the band: tau {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn calibration_band_meets_target_on_holdout() {
        let (xs, ts) = tiny_corpus(32);
        let params = small_params();
        let bundle = SurrogateBundle::fit(&xs, &ts, &params);
        let cal = &bundle.calibration;
        assert_eq!(cal.holdout, 8);
        assert_eq!(cal.per_design.iter().map(|d| d.support).sum::<usize>(), cal.holdout);
        if cal.gated > 0 {
            assert!(cal.gated_agreement >= params.target_agreement);
        }
        assert!(cal.overall_agreement >= cal.gated_agreement || cal.gated == 0);
    }

    #[test]
    fn load_bundle_errors_leave_oracle_untouched() {
        let tiered = TieredOracle::new();
        let missing = std::env::temp_dir().join("misam_no_such_bundle.json");
        let err = tiered.load_bundle(&missing).unwrap_err();
        assert!(matches!(err, SurrogateError::Io(_)));
        assert!(!tiered.has_model());

        let dir = std::env::temp_dir();
        let stale_path = dir.join(format!("misam_stale_bundle_{}.json", std::process::id()));
        let (xs, ts) = tiny_corpus(12);
        let mut bundle = SurrogateBundle::fit(&xs, &ts, &small_params());
        bundle.version = 999;
        std::fs::write(&stale_path, serde_json::to_string(&bundle).unwrap()).unwrap();
        let err = tiered.load_bundle(&stale_path).unwrap_err();
        assert!(matches!(err, SurrogateError::Version { found: 999, .. }));
        assert!(!err.is_retryable());
        assert!(!tiered.has_model());
        std::fs::remove_file(&stale_path).ok();
    }
}
