//! Shared server state: the hot-reloadable model bundle and the
//! per-connection session that carries bitstream state.
//!
//! The bundle lives behind `RwLock<Arc<PreparedBundle>>` — readers
//! clone the `Arc` (a refcount bump under a read lock, effectively an
//! arc-swap), so a reload parses and validates the new bundle entirely
//! off to the side and then swaps the pointer atomically. In-flight
//! requests keep the snapshot they started with; new requests see the
//! new model. A failed reload — unreadable, stale, or holding a tree
//! that fails validation — leaves the previous bundle untouched.
//!
//! The bundle's models are already in their inference layout (packed
//! node records, feature maps baked in), so a [`PreparedBundle`] is the
//! parsed [`ModelBundle`] plus its publish generation: nothing is
//! converted at install time, and the micro-batcher's flush loop walks
//! the bundle's trees directly.

use misam::persist::{ModelBundle, PersistError};
use misam_features::PairFeatures;
use misam_mlkit::matrix::FeatureMatrix;
use misam_recon::engine::ReconfigEngine;
use misam_sim::DesignId;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the batched inference stage computes per feature vector: the
/// nominated design plus the latency model's estimate for every design,
/// so the per-session reconfiguration decision needs no further model
/// access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictOutcome {
    /// Design the classifier nominated.
    pub predicted: DesignId,
    /// Predicted latency per design (seconds), indexed by
    /// `DesignId::index`.
    pub latency_s: [f64; 4],
}

/// A [`ModelBundle`] as installed in the server, stamped with the
/// generation it was published under.
#[derive(Debug)]
pub struct PreparedBundle {
    /// The parsed bundle: models, reconfiguration cost, switch
    /// threshold, tile config.
    pub bundle: ModelBundle,
    /// Publish generation stamped by [`SharedModel`] at swap time (the
    /// initial bundle is generation 1). A batch flush takes exactly one
    /// snapshot, so every outcome in one flush carries one generation.
    generation: u64,
}

impl PreparedBundle {
    /// Wraps `bundle` as generation 1.
    pub fn new(bundle: ModelBundle) -> Self {
        PreparedBundle { bundle, generation: 1 }
    }

    /// The publish generation this bundle was installed under.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Runs the selector and latency predictor on one full feature vector
/// (the per-row walk).
pub fn predict_vector(prepared: &PreparedBundle, v: &[f64]) -> PredictOutcome {
    let b = &prepared.bundle;
    let predicted = b.selector.select_vector(v);
    let mut latency_s = [0.0; 4];
    for d in DesignId::ALL {
        latency_s[d.index()] = 10f64.powf(b.predictor.predict_log10(v, d));
    }
    PredictOutcome { predicted, latency_s }
}

/// Below this many vectors a flush skips the columnar transpose: even
/// amortized across the five models that share the matrix (selector +
/// four latency trees), `FeatureMatrix::from_rows` costs more than the
/// frontier walks save on a handful of rows, so tiny flushes — the
/// common case under light load, where the batcher fires on the first
/// arrival — run the per-vector walk directly.
const MATRIX_MIN_ROWS: usize = 8;

/// Columnar form of [`predict_vector`] over a whole submitted group:
/// the vectors are transposed into a [`FeatureMatrix`] once and each
/// tree runs the frontier walk over every row, so a micro-batch flush
/// touches each model's nodes once per batch instead of once per
/// vector. Outcomes are bit-identical to per-vector prediction.
///
/// Groups smaller than `MATRIX_MIN_ROWS`, and groups with
/// inconsistent arity (possible through the public batcher API, which
/// does not validate — the server does, before admission), take the
/// per-vector path instead.
pub fn predict_batch(prepared: &PreparedBundle, vectors: &[Vec<f64>]) -> Vec<PredictOutcome> {
    let uniform = vectors
        .first()
        .is_some_and(|v0| !v0.is_empty() && vectors.iter().all(|v| v.len() == v0.len()));
    if !uniform || vectors.len() < MATRIX_MIN_ROWS {
        return vectors.iter().map(|v| predict_vector(prepared, v)).collect();
    }
    let m = FeatureMatrix::from_rows(vectors);
    let b = &prepared.bundle;
    let designs = b.selector.select_batch_matrix(&m);
    let mut out: Vec<PredictOutcome> = designs
        .into_iter()
        .map(|predicted| PredictOutcome { predicted, latency_s: [0.0; 4] })
        .collect();
    for d in DesignId::ALL {
        let log10 = b.predictor.predict_log10_batch(&m, d);
        for (o, lg) in out.iter_mut().zip(log10) {
            o.latency_s[d.index()] = 10f64.powf(lg);
        }
    }
    out
}

/// The model bundle behind an atomic hot-reload point.
#[derive(Debug)]
pub struct SharedModel {
    bundle: RwLock<Arc<PreparedBundle>>,
    reloads: AtomicU64,
    /// Monotonic publish counter: 1 for the startup bundle, bumped by
    /// every successful file reload or learner publish. Stamped into
    /// each [`PreparedBundle`] so readers can tell which swap produced
    /// their snapshot.
    generation: AtomicU64,
}

impl SharedModel {
    /// Wraps an initial bundle as generation 1.
    pub fn new(bundle: ModelBundle) -> Self {
        SharedModel {
            bundle: RwLock::new(Arc::new(PreparedBundle::new(bundle))),
            reloads: AtomicU64::new(0),
            generation: AtomicU64::new(1),
        }
    }

    /// The current prepared bundle; the snapshot stays valid (and
    /// immutable) for as long as the caller holds it, even across
    /// reloads.
    pub fn snapshot(&self) -> Arc<PreparedBundle> {
        Arc::clone(&self.bundle.read())
    }

    /// Atomically replaces the bundle with one loaded from `path`.
    ///
    /// The file is read, parsed, version-checked and validated before
    /// the swap, so a bad file can never leave the server without a
    /// working model.
    ///
    /// # Errors
    ///
    /// Returns the typed [`PersistError`]; `is_retryable` distinguishes
    /// transient file problems from an incompatible bundle.
    pub fn reload_from(&self, path: &str) -> Result<u32, PersistError> {
        let fresh = ModelBundle::load(path)?;
        let version = fresh.version;
        self.install(fresh);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Atomically publishes an in-memory bundle (the learner's path —
    /// no file round-trip) and returns the generation it was installed
    /// under.
    pub fn publish(&self, bundle: ModelBundle) -> u64 {
        self.install(bundle)
    }

    /// Prepares off to the side, then swaps under the write lock with a
    /// fresh generation stamp. The generation bump happens inside the
    /// lock so generations observed through snapshots are monotonic.
    fn install(&self, bundle: ModelBundle) -> u64 {
        let mut prepared = PreparedBundle::new(bundle);
        let mut guard = self.bundle.write();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        prepared.generation = generation;
        *guard = Arc::new(prepared);
        generation
    }

    /// Successful reloads performed.
    pub fn reload_count(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Generation of the currently installed bundle (1 = startup).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }
}

/// Latency model that reads a per-session table refreshed before every
/// decision — it adapts the vector-based batched inference results to
/// the [`misam_recon::engine::LatencyModel`] interface, which is keyed
/// by `PairFeatures` the wire protocol never carries.
#[derive(Debug, Clone)]
pub struct TableLatencyModel(Rc<RefCell<[f64; 4]>>);

impl misam_recon::engine::LatencyModel for TableLatencyModel {
    fn predict_seconds(&self, _features: &PairFeatures, design: DesignId) -> f64 {
        self.0.borrow()[design.index()]
    }
}

/// Per-connection session state: its own [`ReconfigEngine`], so each
/// client stream carries its own current-bitstream state exactly like
/// the tile-streaming executor — two clients switching designs never
/// interfere.
#[derive(Debug)]
pub struct Session {
    engine: ReconfigEngine<TableLatencyModel>,
    table: Rc<RefCell<[f64; 4]>>,
}

impl Session {
    /// Creates a cold session (no bitstream loaded) using the bundle's
    /// reconfiguration cost model and switch threshold.
    pub fn new(bundle: &ModelBundle) -> Self {
        let table = Rc::new(RefCell::new([0.0; 4]));
        let engine = ReconfigEngine::new(
            TableLatencyModel(Rc::clone(&table)),
            bundle.cost,
            bundle.threshold,
        );
        Session { engine, table }
    }

    /// Applies the session's reconfiguration policy to one batched
    /// inference outcome, advancing the bitstream state.
    pub fn decide(&mut self, out: &PredictOutcome) -> crate::protocol::PredictReply {
        *self.table.borrow_mut() = out.latency_s;
        let d = self.engine.decide(&PairFeatures::default(), out.predicted);
        crate::protocol::PredictReply {
            predicted: out.predicted,
            execute_on: d.execute_on,
            reconfigured: d.reconfigured,
            reconfig_time_s: d.reconfig_time_s,
            predicted_latency_s: d.predicted_latency_s,
        }
    }

    /// The design this session currently has loaded, if any.
    pub fn current(&self) -> Option<DesignId> {
        self.engine.current()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use misam::dataset::{Dataset, Objective};
    use misam::training;
    use misam_features::TileConfig;
    use misam_recon::cost::ReconfigCost;
    use std::sync::OnceLock;

    pub(crate) fn test_bundle() -> &'static ModelBundle {
        static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
        BUNDLE.get_or_init(|| {
            let ds = Dataset::generate(120, 55);
            let sel = training::train_selector(&ds, Objective::Latency, 1);
            let lat = training::train_latency_predictor(&ds, 1);
            ModelBundle::new(
                sel.selector,
                lat.predictor,
                0.2,
                ReconfigCost::default(),
                TileConfig::default(),
            )
        })
    }

    pub(crate) fn test_prepared() -> &'static PreparedBundle {
        static PREPARED: OnceLock<PreparedBundle> = OnceLock::new();
        PREPARED.get_or_init(|| PreparedBundle::new(test_bundle().clone()))
    }

    #[test]
    fn snapshot_survives_reload() {
        let model = SharedModel::new(test_bundle().clone());
        let before = model.snapshot();

        let dir = std::env::temp_dir().join(format!("misam_serve_state_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        let mut altered = test_bundle().clone();
        altered.threshold = 0.5;
        altered.save(&path).unwrap();

        let v = model.reload_from(path.to_str().unwrap()).unwrap();
        assert_eq!(v, misam::persist::BUNDLE_VERSION);
        assert_eq!(model.reload_count(), 1);
        assert_eq!(model.snapshot().bundle.threshold, 0.5, "new requests see the new model");
        assert_eq!(before.bundle.threshold, 0.2, "held snapshots are immutable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_bumps_generation_without_counting_as_reload() {
        let model = SharedModel::new(test_bundle().clone());
        assert_eq!(model.generation(), 1);
        assert_eq!(model.snapshot().generation(), 1);
        let mut altered = test_bundle().clone();
        altered.threshold = 0.4;
        assert_eq!(model.publish(altered), 2);
        let snap = model.snapshot();
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.bundle.threshold, 0.4);
        assert_eq!(model.reload_count(), 0, "publish is not a file reload");
    }

    #[test]
    fn failed_reload_keeps_the_old_model() {
        let model = SharedModel::new(test_bundle().clone());
        let err = model.reload_from("/nonexistent/bundle.json").unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(model.reload_count(), 0);
        assert_eq!(model.snapshot().bundle.threshold, test_bundle().threshold);
    }

    #[test]
    fn session_carries_bitstream_state() {
        let bundle = test_bundle();
        let mut session = Session::new(bundle);
        assert_eq!(session.current(), None);

        let out = PredictOutcome { predicted: DesignId::D2, latency_s: [1.0, 0.5, 0.6, 2.0] };
        let first = session.decide(&out);
        assert_eq!(first.execute_on, DesignId::D2);
        assert!(first.reconfigured, "cold start loads the predicted design");
        assert_eq!(session.current(), Some(DesignId::D2));

        // Same prediction again: no switch.
        let second = session.decide(&out);
        assert!(!second.reconfigured);
        assert_eq!(second.reconfig_time_s, 0.0);

        // D2 -> D3 shares a bitstream: free switch.
        let out3 = PredictOutcome { predicted: DesignId::D3, latency_s: [1.0, 0.6, 0.5, 2.0] };
        let third = session.decide(&out3);
        assert_eq!(third.execute_on, DesignId::D3);
        assert!(!third.reconfigured);

        // A tiny gain never justifies a full reconfiguration.
        let out4 = PredictOutcome { predicted: DesignId::D4, latency_s: [1.0, 0.6, 0.5001, 0.5] };
        let fourth = session.decide(&out4);
        assert_eq!(fourth.execute_on, DesignId::D3);
        assert!(!fourth.reconfigured);
    }

    #[test]
    fn predict_vector_matches_the_selector() {
        let bundle = test_bundle();
        let v = vec![0.5; misam_features::FEATURE_NAMES.len()];
        let out = predict_vector(test_prepared(), &v);
        // The serving path must agree with the models the bundle was
        // trained with, bit for bit.
        assert_eq!(out.predicted, bundle.selector.select_vector(&v));
        for d in DesignId::ALL {
            let direct = 10f64.powf(bundle.predictor.predict_log10(&v, d));
            assert_eq!(out.latency_s[d.index()].to_bits(), direct.to_bits());
        }
        assert!(out.latency_s.iter().all(|&s| s > 0.0 && s.is_finite()));
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_per_vector() {
        let prepared = test_prepared();
        let arity = misam_features::FEATURE_NAMES.len();
        // One group per side of MATRIX_MIN_ROWS: the small one runs
        // per-vector (no transpose), the large one the columnar walk.
        for n in [MATRIX_MIN_ROWS - 1, MATRIX_MIN_ROWS + 5] {
            let vectors: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..arity).map(|j| ((i * 31 + j * 7) % 13) as f64 * 0.25).collect())
                .collect();
            let batch = predict_batch(prepared, &vectors);
            assert_eq!(batch.len(), vectors.len());
            for (v, out) in vectors.iter().zip(&batch) {
                let single = predict_vector(prepared, v);
                assert_eq!(out.predicted, single.predicted);
                for d in 0..4 {
                    assert_eq!(out.latency_s[d].to_bits(), single.latency_s[d].to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn ragged_groups_panic_like_the_per_vector_walk() {
        // A ragged group (possible via the raw batcher API, which does
        // not validate arity) takes the per-vector fallback and hits
        // the per-row walk's arity assert.
        let arity = misam_features::FEATURE_NAMES.len();
        let vectors = vec![vec![0.5; arity], vec![0.5; arity + 1]];
        predict_batch(test_prepared(), &vectors);
    }
}
