//! Model persistence: save and load a trained Misam system.
//!
//! The deployed artifact the paper describes is tiny — a ~6 KB decision
//! tree plus the reconfiguration engine's latency model — and lives on
//! the host. This module serializes both (plus the configuration needed
//! to reproduce feature extraction) into a single JSON bundle, so a
//! system trained once can be shipped and reloaded without regenerating
//! corpora.

use crate::training::{LatencyPredictor, TrainedSelector};
use misam_features::TileConfig;
use misam_mlkit::error::ModelDecodeError;
use misam_recon::cost::ReconfigCost;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current bundle format version. Version 2 stores every tree as packed
/// node records (version 1 stored boxed `Split`/`Leaf` enums).
pub const BUNDLE_VERSION: u32 = 2;

/// Why a bundle failed to save or load.
///
/// The variants split along the axis a serving `Reload` endpoint cares
/// about: [`PersistError::Io`] and [`PersistError::Json`] are *retryable*
/// (a file mid-write, a transient filesystem error — the previous bundle
/// stays live and the caller may try again), while
/// [`PersistError::Version`] and [`PersistError::Malformed`] are *fatal*
/// for that file (no amount of retrying makes an incompatible format or
/// a corrupt model load).
#[derive(Debug)]
pub enum PersistError {
    /// Reading or writing the bundle file failed.
    Io(std::io::Error),
    /// The bundle text was not valid JSON of the expected shape.
    Json(serde_json::Error),
    /// The bundle's format version is not supported.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The bundle parsed but a model in it is unsafe to run (a tree link
    /// out of range or backwards, a split on a missing feature, a leaf
    /// predicting a missing class, or the wrong model shape).
    Malformed(ModelDecodeError),
}

impl PersistError {
    /// Whether retrying the same operation later could succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, PersistError::Io(_) | PersistError::Json(_))
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "bundle i/o error: {e}"),
            PersistError::Json(e) => write!(f, "bundle json error: {e}"),
            PersistError::Version { found, expected } => {
                write!(f, "bundle version {found} unsupported (expected {expected})")
            }
            PersistError::Malformed(e) => write!(f, "bundle model malformed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Json(e) => Some(e),
            PersistError::Malformed(e) => Some(e),
            PersistError::Version { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

/// Existing call sites accumulate errors as `String`; keep `?` working
/// for them.
impl From<PersistError> for String {
    fn from(e: PersistError) -> Self {
        e.to_string()
    }
}

/// The one field every bundle version shares; read first so a stale
/// bundle is rejected by version, whatever its model layout.
#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

/// A serializable bundle of everything a host runtime needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Format version (checked on load).
    pub version: u32,
    /// The design classifier.
    pub selector: TrainedSelector,
    /// The reconfiguration engine's latency model.
    pub predictor: LatencyPredictor,
    /// Switch threshold the system was configured with.
    pub threshold: f64,
    /// Reconfiguration cost constants.
    pub cost: ReconfigCost,
    /// Tile geometry used for feature extraction (rows, cols).
    pub tile_rows: usize,
    /// Columns of the feature-extraction tile.
    pub tile_cols: usize,
}

impl ModelBundle {
    /// Assembles a bundle from trained parts.
    pub fn new(
        selector: TrainedSelector,
        predictor: LatencyPredictor,
        threshold: f64,
        cost: ReconfigCost,
        tile_cfg: TileConfig,
    ) -> Self {
        ModelBundle {
            version: BUNDLE_VERSION,
            selector,
            predictor,
            threshold,
            cost,
            tile_rows: tile_cfg.tile_rows,
            tile_cols: tile_cfg.tile_cols,
        }
    }

    /// The tile configuration stored in the bundle.
    pub fn tile_config(&self) -> TileConfig {
        TileConfig { tile_rows: self.tile_rows, tile_cols: self.tile_cols }
    }

    /// Reassembles a runnable [`crate::pipeline::Misam`] system.
    pub fn into_system(self) -> crate::pipeline::Misam {
        crate::pipeline::Misam::from_parts(
            self.selector.clone(),
            self.predictor.clone(),
            self.cost,
            self.threshold,
            self.tile_config(),
        )
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Json`] on serializer failure.
    pub fn to_json(&self) -> Result<String, PersistError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a bundle, checking the version before the models (so a
    /// bundle from another format version reports
    /// [`PersistError::Version`], not a shape error) and validating
    /// every tree after.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Json`] for malformed JSON,
    /// [`PersistError::Version`] for a version mismatch and
    /// [`PersistError::Malformed`] for a model that fails validation.
    pub fn from_json(s: &str) -> Result<Self, PersistError> {
        let probe: VersionProbe = serde_json::from_str(s)?;
        if probe.version != BUNDLE_VERSION {
            return Err(PersistError::Version { found: probe.version, expected: BUNDLE_VERSION });
        }
        let bundle: ModelBundle = serde_json::from_str(s)?;
        bundle.selector.validate().map_err(PersistError::Malformed)?;
        bundle.predictor.validate().map_err(PersistError::Malformed)?;
        Ok(bundle)
    }

    /// Writes the bundle to a file.
    ///
    /// # Errors
    ///
    /// Returns serializer or I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        Ok(std::fs::write(path, self.to_json()?)?)
    }

    /// Reads a bundle from a file.
    ///
    /// # Errors
    ///
    /// Returns I/O, parse or version errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Objective};
    use crate::training;
    use misam_sim::Operand;
    use misam_sparse::gen;

    fn bundle() -> ModelBundle {
        let ds = Dataset::generate(150, 55);
        let sel = training::train_selector(&ds, Objective::Latency, 1);
        let lat = training::train_latency_predictor(&ds, 1);
        ModelBundle::new(
            sel.selector,
            lat.predictor,
            0.2,
            ReconfigCost::default(),
            TileConfig::default(),
        )
    }

    #[test]
    fn json_roundtrip_preserves_bundle() {
        let b = bundle();
        let back = ModelBundle::from_json(&b.to_json().unwrap()).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn loaded_system_predicts_like_the_original() {
        let b = bundle();
        let json = b.to_json().unwrap();
        let mut original = b.clone().into_system();
        let mut restored = ModelBundle::from_json(&json).unwrap().into_system();

        let a = gen::power_law(600, 600, 6.0, 1.5, 3);
        let r1 = original.execute(&a, Operand::Dense { rows: 600, cols: 256 });
        let r2 = restored.execute(&a, Operand::Dense { rows: 600, cols: 256 });
        assert_eq!(r1.predicted, r2.predicted);
        assert_eq!(r1.decision.execute_on, r2.decision.execute_on);
        assert_eq!(r1.sim.cycles, r2.sim.cycles);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let b = bundle();
        let json = b.to_json().unwrap().replacen(
            &format!("\"version\": {BUNDLE_VERSION}"),
            "\"version\": 99",
            1,
        );
        let err = ModelBundle::from_json(&json).unwrap_err();
        assert!(matches!(err, PersistError::Version { found: 99, expected: BUNDLE_VERSION }));
        assert!(!err.is_retryable(), "a format mismatch never heals on retry");
        assert!(err.to_string().contains("version"), "{err}");
    }

    /// A real version-1 bundle (boxed `Split`/`Leaf` node enums), as the
    /// previous format wrote it: single-leaf models keep it short.
    const V1_BUNDLE: &str = concat!(
        r#"{"version":1,"selector":{"tree":{"nodes":[{"Leaf":{"class":2,"purity":1.0}}],"#,
        r#""n_features":24,"n_classes":4,"importances":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,"#,
        r#"0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]},"#,
        r#""feature_map":null},"predictor":{"trees":["#,
        r#"{"nodes":[{"Leaf":{"value":-3.0}}],"n_features":24},"#,
        r#"{"nodes":[{"Leaf":{"value":-3.0}}],"n_features":24},"#,
        r#"{"nodes":[{"Leaf":{"value":-3.0}}],"n_features":24},"#,
        r#"{"nodes":[{"Leaf":{"value":-3.0}}],"n_features":24}]},"threshold":0.2,"#,
        r#""cost":{"pcie_gbs":6.4,"program_base_s":1.0,"program_per_mib_s":0.035},"#,
        r#""tile_rows":256,"tile_cols":64}"#
    );

    #[test]
    fn previous_format_bundle_is_rejected_by_version() {
        // The old node layout must not surface as a (retryable) JSON
        // shape error: the version is checked before the models parse.
        let err = ModelBundle::from_json(V1_BUNDLE).unwrap_err();
        assert!(matches!(err, PersistError::Version { found: 1, expected: BUNDLE_VERSION }));
        assert!(!err.is_retryable());
    }

    /// `json` with field `k` of the node record starting at byte
    /// `at` (just past its `[`) replaced by `value`. Records serialize
    /// as `[threshold, left, right, feature]`.
    fn set_field(json: &str, at: usize, k: usize, value: &str) -> String {
        let end = at + json[at..].find(']').unwrap();
        let mut fields: Vec<&str> = json[at..end].split(',').collect();
        fields[k] = value;
        format!("{}{}{}", &json[..at], fields.join(","), &json[end..])
    }

    /// Byte offset just past the `[` of the first node record at or
    /// after `from`.
    fn first_record(json: &str, from: usize) -> usize {
        from + json[from..].find(r#""nodes":[["#).unwrap() + r#""nodes":[["#.len()
    }

    fn malformed(json: &str) -> ModelDecodeError {
        match ModelBundle::from_json(json) {
            Err(e @ PersistError::Malformed(_)) => {
                assert!(!e.is_retryable(), "a corrupt model never heals on retry");
                let PersistError::Malformed(inner) = e else { unreachable!() };
                inner
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn tampered_trees_are_rejected_not_walked() {
        // The selector is serialized first, so the first node record is
        // its root split: `[threshold, 1, right, feature]`.
        let json = serde_json::to_string(&bundle()).unwrap();
        let root = first_record(&json, 0);
        assert_eq!(json[root..].split(',').nth(1), Some("1"), "selector root must split");

        let far = malformed(&set_field(&json, root, 1, "99999"));
        assert!(matches!(far, ModelDecodeError::LinkOutOfRange { node: 0, link: 99999, .. }));
        let cycle = malformed(&set_field(&json, root, 1, "0"));
        assert!(matches!(cycle, ModelDecodeError::LinkOutOfRange { node: 0, link: 0, .. }));
        let feature = malformed(&set_field(&json, root, 3, "60"));
        assert!(matches!(
            feature,
            ModelDecodeError::FeatureOutOfRange { node: 0, feature: 60, .. }
        ));

        // A leaf (feature sentinel 65535) keeps its class in the left
        // child slot.
        let leaf = json[..json.find(",65535]").unwrap()].rfind('[').unwrap() + 1;
        assert!(matches!(
            malformed(&set_field(&json, leaf, 1, "9")),
            ModelDecodeError::ClassOutOfRange { class: 9, n_classes: 4, .. }
        ));

        // A predictor tree tampered the same way is caught too, wrapped
        // with its design index.
        let design0 = first_record(&json, json.find(r#""predictor":"#).unwrap());
        match malformed(&set_field(&json, design0, 1, "1000")) {
            ModelDecodeError::Tree { tree: 0, source } => {
                assert!(matches!(*source, ModelDecodeError::LinkOutOfRange { link: 1000, .. }))
            }
            other => panic!("expected a design-0 tree error, got {other:?}"),
        }
    }

    #[test]
    fn io_and_json_failures_are_retryable() {
        let io = ModelBundle::load("/nonexistent/misam.json").unwrap_err();
        assert!(matches!(io, PersistError::Io(_)));
        assert!(io.is_retryable());

        let json = ModelBundle::from_json("{ truncated").unwrap_err();
        assert!(matches!(json, PersistError::Json(_)));
        assert!(json.is_retryable());

        // String conversion keeps legacy `Result<_, String>` callers alive.
        let msg: String = json.into();
        assert!(msg.contains("json"), "{msg}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("misam_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        let b = bundle();
        b.save(&path).unwrap();
        let back = ModelBundle::load(&path).unwrap();
        assert_eq!(b, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_deeply_nested_bundle_file_is_a_json_error() {
        // One `[` per level would once recurse the parser off the stack;
        // the nesting cap turns it into a typed error on the version
        // probe's skip path and on the full decode alike.
        let dir = std::env::temp_dir().join(format!("misam_nested_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nested.json");
        let deep = "[".repeat(100_000);
        std::fs::write(&path, format!("{{\"version\":{BUNDLE_VERSION},\"selector\":{deep}"))
            .unwrap();
        assert!(matches!(ModelBundle::load(&path), Err(PersistError::Json(_))));
        let probe_first = format!("{{\"selector\":{deep}");
        assert!(matches!(ModelBundle::from_json(&probe_first), Err(PersistError::Json(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_missing_file() {
        assert!(ModelBundle::load("/nonexistent/misam.json").is_err());
    }
}
