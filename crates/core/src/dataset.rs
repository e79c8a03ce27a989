//! Training-corpus generation.
//!
//! The paper curates 6,219 matrices (classifier) and 19,000 matrices
//! (latency predictor) spanning sparsity from 1% to 99%, mixing
//! SuiteSparse-style scientific/graph structure with pruned-DNN layers
//! (§4, *Datasets*). This module regenerates that corpus synthetically:
//! every sample is an `(A, B)` operand pair drawn from the structural
//! families of `misam_sparse::gen`, simulated on all four designs, and
//! recorded with its per-design latency and energy so any [`Objective`]
//! can label it.
//!
//! Generation is **structure-first and streaming**: each sample index
//! derives its own RNG seed (splitmix64 of the corpus seed and the
//! index), so workers claim indices from a shared counter and run the
//! whole pipeline — structure generation, O(rows + cols) profile
//! synthesis, feature extraction, four-design labeling — per sample
//! with no materialized CSR and no serial generation phase. The corpus
//! is byte-identical at any thread count because every sample is a pure
//! function of `(seed, index)`.

use misam_features::{PairFeatures, TileConfig};
use misam_oracle::{pool, LazyLabeler};
use misam_sim::DesignId;
use misam_sparse::{gen, LazyMatrix, LazyOperand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the selector optimizes for — the paper's tunable objective knob
/// (§3.1: "users can prioritize performance metrics based on their
/// application requirements").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Minimize execution latency.
    #[default]
    Latency,
    /// Minimize energy.
    Energy,
    /// Minimize `w * norm_latency + (1 - w) * norm_energy`; the field is
    /// the latency weight in `[0, 1]`.
    Weighted(f64),
}

impl Objective {
    /// Index of the optimal design under this objective.
    pub fn best_design(&self, times_s: &[f64; 4], energies_j: &[f64; 4]) -> usize {
        let score = |i: usize| -> f64 {
            match self {
                Objective::Latency => times_s[i],
                Objective::Energy => energies_j[i],
                Objective::Weighted(w) => {
                    let t_min = times_s.iter().cloned().fold(f64::INFINITY, f64::min);
                    let e_min = energies_j.iter().cloned().fold(f64::INFINITY, f64::min);
                    w * times_s[i] / t_min + (1.0 - w) * energies_j[i] / e_min
                }
            }
        };
        (0..4)
            .min_by(|&a, &b| score(a).partial_cmp(&score(b)).expect("finite scores"))
            .expect("four designs")
    }
}

/// One labeled operand pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Flattened feature vector (`misam_features::FEATURE_NAMES` layout).
    pub features: Vec<f64>,
    /// Simulated latency per design (indexed by `DesignId::index`).
    pub times_s: [f64; 4],
    /// Simulated energy per design.
    pub energies_j: [f64; 4],
    /// Generator family of A (provenance, not a model input).
    pub a_kind: String,
    /// Whether B was dense.
    pub b_dense: bool,
}

impl Sample {
    /// The optimal design label under `objective`.
    pub fn label(&self, objective: Objective) -> usize {
        objective.best_design(&self.times_s, &self.energies_j)
    }
}

/// A labeled corpus.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

/// A corpus serialization or parse failure.
#[derive(Debug)]
pub enum DatasetError {
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// A CSV line did not parse; `line` is 1-based.
    Csv {
        /// 1-based line number of the offending row.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Json(e) => write!(f, "dataset JSON error: {e}"),
            DatasetError::Csv { line, reason } => {
                write!(f, "dataset CSV error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Json(e) => Some(e),
            DatasetError::Csv { .. } => None,
        }
    }
}

impl From<serde_json::Error> for DatasetError {
    fn from(e: serde_json::Error) -> Self {
        DatasetError::Json(e)
    }
}

/// Upper bound on generated nonzeros per operand, keeping corpus
/// generation O(seconds) while spanning the full density range at
/// smaller dimensions.
const MAX_OPERAND_NNZ: f64 = 200_000.0;

/// Mix constant folded into the corpus seed before per-sample
/// derivation.
const CORPUS_SEED_SALT: u64 = 0x0da7_a5e7;

/// Per-sample seed: a splitmix64 finalizer over the corpus seed and the
/// sample index, so sample `i` is a pure function of `(seed, i)` and
/// workers need no shared RNG stream.
fn sample_seed(base: u64, index: usize) -> u64 {
    let mut z =
        base.wrapping_add((index as u64).wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Dataset {
    /// Generates `n` samples with the paper's regime mix, deterministic
    /// in `seed`. The whole pipeline fans out across
    /// [`pool::default_threads`] workers (`MISAM_THREADS` overrides).
    pub fn generate(n: usize, seed: u64) -> Dataset {
        Self::generate_with_threads(n, seed, pool::default_threads())
    }

    /// [`Dataset::generate`] with an explicit worker count.
    ///
    /// Each worker claims a sample index from a shared counter, derives
    /// that index's seed, and runs generation, profile synthesis,
    /// feature extraction and four-design labeling for the sample
    /// before claiming the next — the stages overlap across samples
    /// instead of running as serial phases. No CSR is materialized on
    /// this path (`misam_sparse::lazy::materialization_stats` counts
    /// any fallback), and the corpus is byte-identical for any
    /// `threads` value (1 = the plain serial loop).
    /// Labels come from [`misam_oracle::FpgaSim`] directly: a drawn
    /// pair never recurs, so no report or profile cache is consulted.
    pub fn generate_with_threads(n: usize, seed: u64, threads: usize) -> Dataset {
        Self::generate_with_threads_via(n, seed, threads, misam_oracle::FpgaSim)
    }

    /// [`Dataset::generate_with_threads`] labeling through an explicit
    /// oracle tier instead of the bare cycle sim — the seam that lets
    /// corpus generation label via
    /// [`misam_oracle::TieredOracle`] (gated surrogate with cycle-sim
    /// fallback) or a fresh [`misam_oracle::SimOracle`] with its own
    /// cache. A labeler that is a pure function of the operands (every
    /// [`LazyLabeler`] must be) keeps the corpus byte-identical at any
    /// thread count.
    pub fn generate_with_threads_via<L: LazyLabeler>(
        n: usize,
        seed: u64,
        threads: usize,
        labeler: L,
    ) -> Dataset {
        let tile_cfg = TileConfig::default();
        let base = seed ^ CORPUS_SEED_SALT;
        let samples = pool::par_map_indices(n, threads, |i| {
            let mut rng = StdRng::seed_from_u64(sample_seed(base, i));
            let (a, spec, a_kind) = random_pair_lazy(&mut rng);
            let features = spec.features(&a, &tile_cfg).to_vector();
            // Hand the labeler the features just extracted: a tiered
            // labeler gates on them without extracting them again.
            let (times_s, energies_j) =
                label_all_lazy(&labeler, &a, spec.lazy_operand(), &features, &tile_cfg);
            Sample { features, times_s, energies_j, a_kind, b_dense: spec.is_dense() }
        });
        Dataset { samples }
    }

    /// [`Dataset::generate`] labeling through the process-global tiered
    /// oracle ([`misam_oracle::tiered_global`]): gated surrogate
    /// predictions with cycle-sim fallback when a bundle is installed,
    /// byte-identical to plain [`Dataset::generate`] when none is.
    pub fn generate_tiered(n: usize, seed: u64) -> Dataset {
        Self::generate_with_threads_via(
            n,
            seed,
            pool::default_threads(),
            misam_oracle::tiered_global(),
        )
    }

    /// Feature rows of every sample.
    pub fn features(&self) -> Vec<Vec<f64>> {
        self.samples.iter().map(|s| s.features.clone()).collect()
    }

    /// Labels of every sample under `objective`.
    pub fn labels(&self, objective: Objective) -> Vec<usize> {
        self.samples.iter().map(|s| s.label(objective)).collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The first `n` samples (all of them when `n` exceeds the length).
    /// Sample `i` of a generated corpus depends only on `(seed, i)`, so
    /// the first `n` samples of `Dataset::generate(m, seed)` are
    /// `Dataset::generate(n, seed)` for any `m >= n`.
    pub fn head(&self, n: usize) -> Dataset {
        Dataset { samples: self.samples[..n.min(self.samples.len())].to_vec() }
    }

    /// Distribution of labels under `objective` (index = design).
    pub fn label_histogram(&self, objective: Objective) -> [usize; 4] {
        let mut h = [0usize; 4];
        for s in &self.samples {
            h[s.label(objective)] += 1;
        }
        h
    }

    /// Renders the corpus as CSV (header + one row per sample): the
    /// feature columns in [`misam_features::FEATURE_NAMES`] order, the
    /// four per-design times and energies, the latency-optimal label,
    /// and the generator provenance. The export format for training
    /// models outside this crate; [`Dataset::from_csv`] parses it back.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for name in misam_features::FEATURE_NAMES {
            out.push_str(name);
            out.push(',');
        }
        out.push_str(
            "time_d1_s,time_d2_s,time_d3_s,time_d4_s,\
             energy_d1_j,energy_d2_j,energy_d3_j,energy_d4_j,\
             best_design,a_kind,b_dense\n",
        );
        for s in &self.samples {
            for v in &s.features {
                out.push_str(&format!("{v},"));
            }
            for v in &s.times_s {
                out.push_str(&format!("{v},"));
            }
            for v in &s.energies_j {
                out.push_str(&format!("{v},"));
            }
            out.push_str(&format!(
                "{},{},{}\n",
                s.label(Objective::Latency) + 1,
                s.a_kind,
                s.b_dense
            ));
        }
        out
    }

    /// Parses a corpus rendered by [`Dataset::to_csv`]. Floats are
    /// printed shortest-roundtrip, so the parse is bit-exact: the
    /// round-trip reconstructs the original dataset (the `best_design`
    /// column is derived, and is validated rather than stored).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Csv`] with the offending 1-based line
    /// for a missing/ragged header or row, or an unparsable field.
    pub fn from_csv(s: &str) -> Result<Self, DatasetError> {
        let nf = misam_features::FEATURE_NAMES.len();
        let expected = nf + 8 + 3;
        let mut lines = s.lines().enumerate();
        let (_, header) =
            lines.next().ok_or(DatasetError::Csv { line: 1, reason: "empty input".into() })?;
        let header_cols = header.split(',').count();
        if header_cols != expected {
            return Err(DatasetError::Csv {
                line: 1,
                reason: format!("header has {header_cols} columns, expected {expected}"),
            });
        }

        let mut samples = Vec::new();
        for (idx, row) in lines {
            let line = idx + 1;
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() != expected {
                return Err(DatasetError::Csv {
                    line,
                    reason: format!("row has {} fields, expected {expected}", fields.len()),
                });
            }
            let float = |j: usize| -> Result<f64, DatasetError> {
                fields[j].parse::<f64>().map_err(|e| DatasetError::Csv {
                    line,
                    reason: format!("column {} ({:?}): {e}", j + 1, fields[j]),
                })
            };
            let features = (0..nf).map(float).collect::<Result<Vec<f64>, _>>()?;
            let mut times_s = [0.0; 4];
            let mut energies_j = [0.0; 4];
            for d in 0..4 {
                times_s[d] = float(nf + d)?;
                energies_j[d] = float(nf + 4 + d)?;
            }
            let label: usize = fields[nf + 8].parse().map_err(|e| DatasetError::Csv {
                line,
                reason: format!("best_design ({:?}): {e}", fields[nf + 8]),
            })?;
            if !(1..=4).contains(&label) {
                return Err(DatasetError::Csv {
                    line,
                    reason: format!("best_design {label} outside 1..=4"),
                });
            }
            let b_dense: bool = fields[expected - 1].parse().map_err(|e| DatasetError::Csv {
                line,
                reason: format!("b_dense ({:?}): {e}", fields[expected - 1]),
            })?;
            samples.push(Sample {
                features,
                times_s,
                energies_j,
                a_kind: fields[nf + 9].to_string(),
                b_dense,
            });
        }
        Ok(Dataset { samples })
    }

    /// Serializes the corpus as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Json`] on serializer failure.
    pub fn to_json(&self) -> Result<String, DatasetError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Parses a corpus serialized by [`Dataset::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Json`] on parse failure.
    pub fn from_json(s: &str) -> Result<Self, DatasetError> {
        Ok(serde_json::from_str(s)?)
    }
}

/// An owned right-hand operand drawn by the corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub enum OperandSpec {
    /// Dense operand described by shape.
    Dense {
        /// Rows (= A columns).
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Sparse operand.
    Sparse(misam_sparse::CsrMatrix),
}

impl OperandSpec {
    /// Borrowed simulator operand.
    pub fn operand(&self) -> misam_sim::Operand<'_> {
        match self {
            OperandSpec::Dense { rows, cols } => {
                misam_sim::Operand::Dense { rows: *rows, cols: *cols }
            }
            OperandSpec::Sparse(m) => misam_sim::Operand::Sparse(m),
        }
    }

    /// True for the dense variant.
    pub fn is_dense(&self) -> bool {
        matches!(self, OperandSpec::Dense { .. })
    }

    /// Extracts pair features for `a x self` via the shared profile
    /// store, so corpus labeling profiles each operand once for both
    /// feature extraction and simulation.
    pub fn features(&self, a: &misam_sparse::CsrMatrix, cfg: &TileConfig) -> PairFeatures {
        misam_oracle::profiles::global().pair_features(a, self.operand(), cfg)
    }
}

/// An owned right-hand operand in structure-stage form — the lazy
/// counterpart of [`OperandSpec`] the streaming pipeline draws, which
/// carries no element arrays until someone materializes it.
#[derive(Debug)]
pub enum LazyOperandSpec {
    /// Dense operand described by shape.
    Dense {
        /// Rows (= A columns).
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Sparse operand in structure-stage form.
    Sparse(LazyMatrix),
}

impl LazyOperandSpec {
    /// Borrowed lazy simulator operand.
    pub fn lazy_operand(&self) -> LazyOperand<'_> {
        match self {
            LazyOperandSpec::Dense { rows, cols } => {
                LazyOperand::Dense { rows: *rows, cols: *cols }
            }
            LazyOperandSpec::Sparse(m) => LazyOperand::Sparse(m),
        }
    }

    /// True for the dense variant.
    pub fn is_dense(&self) -> bool {
        matches!(self, LazyOperandSpec::Dense { .. })
    }

    /// Pair features for `a x self` from the operands' memoized
    /// profiles ([`misam_oracle::profiles::pair_features_lazy`]) — no
    /// CSR is materialized, and labeling the pair reuses the profiles.
    pub fn features(&self, a: &LazyMatrix, cfg: &TileConfig) -> PairFeatures {
        misam_oracle::profiles::pair_features_lazy(a, self.lazy_operand(), cfg)
    }

    /// Runs the fill stage, converting into the eager [`OperandSpec`].
    pub fn materialize(self) -> OperandSpec {
        match self {
            LazyOperandSpec::Dense { rows, cols } => OperandSpec::Dense { rows, cols },
            LazyOperandSpec::Sparse(m) => OperandSpec::Sparse(m.into_csr()),
        }
    }
}

/// Draws one random operand pair with the corpus's regime mix, in
/// structure-stage form: no element arrays are built. Public so other
/// corpora (e.g. the Figure 13 Trapezoid-dataflow dataset) can use the
/// identical distribution.
pub fn random_pair_lazy(rng: &mut StdRng) -> (LazyMatrix, LazyOperandSpec, String) {
    // Log-uniform dimensions; nnz capped for generation speed.
    let a_rows = log_uniform(rng, 64.0, 4096.0);
    let a_cols = if rng.gen_bool(0.5) { a_rows } else { log_uniform(rng, 64.0, 4096.0) };
    let (a, a_kind) = random_matrix_lazy(rng, a_rows, a_cols);

    let b_dense = rng.gen_bool(0.45);
    let b_cols =
        *[64usize, 128, 256, 512, 1024, 2048].get(rng.gen_range(0..6)).expect("index in range");
    let spec = if b_dense {
        LazyOperandSpec::Dense { rows: a_cols, cols: b_cols }
    } else {
        let (b, _) = random_matrix_lazy(rng, a_cols, b_cols);
        LazyOperandSpec::Sparse(b)
    };
    (a, spec, a_kind)
}

/// [`random_pair_lazy`] with both operands materialized — same RNG
/// stream, same matrices. Kept for consumers that walk elements
/// (ablation sweeps, heterogeneity studies).
pub fn random_pair(rng: &mut StdRng) -> (misam_sparse::CsrMatrix, OperandSpec, String) {
    let (a, spec, a_kind) = random_pair_lazy(rng);
    (a.into_csr(), spec.materialize(), a_kind)
}

fn label_all_lazy<L: LazyLabeler>(
    labeler: &L,
    a: &LazyMatrix,
    b: LazyOperand<'_>,
    features: &[f64],
    tile: &TileConfig,
) -> ([f64; 4], [f64; 4]) {
    let reports = labeler.label_all_lazy_with_features(a, b, features, tile);
    let mut times = [0.0; 4];
    let mut energies = [0.0; 4];
    for (d, r) in DesignId::ALL.iter().zip(&reports) {
        times[d.index()] = r.time_s;
        energies[d.index()] = r.energy_j;
    }
    (times, energies)
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> usize {
    let u: f64 = rng.gen_range(lo.ln()..hi.ln());
    u.exp().round() as usize
}

/// Draws a random structure-stage matrix from the structural family
/// mix, with its family name. Density spans the paper's 1%–99%
/// sparsity range, capped so nnz stays tractable.
fn random_matrix_lazy(rng: &mut StdRng, rows: usize, cols: usize) -> (LazyMatrix, String) {
    let cells = (rows * cols) as f64;
    let cap = (MAX_OPERAND_NNZ / cells).min(0.99);
    let seed: u64 = rng.gen();
    let family = rng.gen_range(0..100);
    match family {
        0..=29 => {
            // Uniform across the whole density range (log-uniform).
            let d = log_uniform_f(rng, 1e-4, cap.max(1e-4));
            (gen::uniform_random_lazy(rows, cols, d, seed), "uniform".into())
        }
        30..=41 => {
            let avg = log_uniform_f(rng, 2.0, (cap * cols as f64).max(2.0)).min(cols as f64);
            let alpha = rng.gen_range(1.2..1.8);
            (gen::power_law_lazy(rows, cols, avg, alpha, seed), "power_law".into())
        }
        42..=49 => {
            let target =
                (log_uniform_f(rng, 2.0, (cap * cols as f64).max(2.0)) * rows as f64) as usize;
            (
                gen::rmat_lazy(rows, cols, target.max(1), (0.57, 0.19, 0.19, 0.05), seed),
                "rmat".into(),
            )
        }
        50..=64 => {
            let d = rng.gen_range(0.05f64..0.35).min(cap.max(0.05));
            (gen::pruned_dnn_lazy(rows, cols, d, seed), "pruned_dnn".into())
        }
        65..=76 => {
            let bw = rng.gen_range(1..(cols / 8).max(2));
            let fill = rng.gen_range(0.3..0.9);
            (gen::banded_lazy(rows, cols, bw, fill, seed), "banded".into())
        }
        77..=86 => {
            let heavy = rng.gen_range(0.005f64..0.05);
            let heavy_nnz = ((cap * cols as f64 * 8.0) as usize).clamp(16, cols);
            let light = rng.gen_range(1..8usize);
            (
                gen::imbalanced_rows_lazy(rows, cols, heavy, heavy_nnz, light, seed),
                "imbalanced".into(),
            )
        }
        87..=94 => {
            let deg = rng.gen_range(2..((cap * cols as f64) as usize).clamp(3, 64));
            (gen::regular_degree_lazy(rows, cols, deg, seed), "regular".into())
        }
        _ => {
            let avg = rng.gen_range(1.0..6.0);
            (gen::circuit_lazy(rows, cols, avg, (rows / 256).max(1), seed), "circuit".into())
        }
    }
}

fn log_uniform_f(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return lo;
    }
    rng.gen_range(lo.ln()..hi.ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(20, 3);
        let b = Dataset::generate(20, 3);
        assert_eq!(a, b);
        assert_ne!(a, Dataset::generate(20, 4));
    }

    #[test]
    fn a_smaller_corpus_is_a_prefix_of_a_larger_one() {
        let big = Dataset::generate(30, 19);
        assert_eq!(big.head(12), Dataset::generate(12, 19));
        assert_eq!(big.head(30), big);
        assert_eq!(big.head(99), big);
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_sequential() {
        let serial = Dataset::generate_with_threads(40, 77, 1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, Dataset::generate_with_threads(40, 77, threads));
        }
    }

    #[test]
    fn lazy_and_eager_pair_draws_agree() {
        // Same RNG stream, same matrices: the eager draw is the lazy
        // draw materialized.
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let (a, spec, kind) = random_pair_lazy(&mut r1);
            let (ea, espec, ekind) = random_pair(&mut r2);
            assert_eq!(kind, ekind);
            assert_eq!(&a.into_csr(), &ea);
            match (spec.materialize(), espec) {
                (OperandSpec::Dense { rows, cols }, OperandSpec::Dense { rows: er, cols: ec }) => {
                    assert_eq!((rows, cols), (er, ec));
                }
                (OperandSpec::Sparse(b), OperandSpec::Sparse(eb)) => assert_eq!(b, eb),
                (lhs, rhs) => panic!("operand kinds diverged: {lhs:?} vs {rhs:?}"),
            }
        }
    }

    #[test]
    fn samples_have_consistent_shape() {
        let ds = Dataset::generate(30, 1);
        assert_eq!(ds.len(), 30);
        for s in &ds.samples {
            assert_eq!(s.features.len(), misam_features::FEATURE_NAMES.len());
            assert!(s.times_s.iter().all(|t| *t > 0.0 && t.is_finite()));
            assert!(s.energies_j.iter().all(|e| *e > 0.0 && e.is_finite()));
        }
    }

    #[test]
    fn corpus_contains_multiple_label_classes() {
        let ds = Dataset::generate(150, 2);
        let hist = ds.label_histogram(Objective::Latency);
        let present = hist.iter().filter(|&&c| c > 0).count();
        assert!(present >= 3, "expected >= 3 design classes, histogram {hist:?}");
    }

    #[test]
    fn objectives_can_disagree() {
        let times = [1.0, 2.0, 3.0, 4.0];
        let energies = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(Objective::Latency.best_design(&times, &energies), 0);
        assert_eq!(Objective::Energy.best_design(&times, &energies), 3);
        let w = Objective::Weighted(0.5).best_design(&times, &energies);
        assert!(w == 1 || w == 2 || w == 0 || w == 3);
    }

    #[test]
    fn weighted_objective_extremes_match_pure_objectives() {
        let ds = Dataset::generate(40, 5);
        for s in &ds.samples {
            assert_eq!(s.label(Objective::Weighted(1.0)), s.label(Objective::Latency));
            assert_eq!(s.label(Objective::Weighted(0.0)), s.label(Objective::Energy));
        }
    }

    #[test]
    fn json_roundtrip() {
        let ds = Dataset::generate(5, 6);
        let back = Dataset::from_json(&ds.to_json().unwrap()).unwrap();
        assert_eq!(ds, back);
        assert!(matches!(Dataset::from_json("not json"), Err(DatasetError::Json(_))));
    }

    #[test]
    fn csv_roundtrip_is_bit_exact() {
        let ds = Dataset::generate(12, 21);
        let back = Dataset::from_csv(&ds.to_csv()).unwrap();
        assert_eq!(ds, back, "shortest-roundtrip floats must parse back bit-identical");
    }

    #[test]
    fn csv_parse_reports_typed_errors_with_line_numbers() {
        let ds = Dataset::generate(3, 22);
        let csv = ds.to_csv();

        match Dataset::from_csv("") {
            Err(DatasetError::Csv { line: 1, .. }) => {}
            other => panic!("empty input should fail on line 1, got {other:?}"),
        }
        match Dataset::from_csv("a,b,c\n") {
            Err(DatasetError::Csv { line: 1, reason }) => {
                assert!(reason.contains("header"), "{reason}")
            }
            other => panic!("short header should fail, got {other:?}"),
        }

        // Corrupt one float field of the second data row.
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        let broken = lines[2].replacen(',', ",not-a-number-", 1);
        lines[2] = format!("not-a-float{broken}");
        match Dataset::from_csv(&(lines.join("\n") + "\n")) {
            Err(DatasetError::Csv { line: 3, reason }) => {
                assert!(reason.contains("column 1"), "{reason}")
            }
            other => panic!("corrupt field should fail on line 3, got {other:?}"),
        }

        // A ragged row reports its own line.
        let ragged = format!("{csv}1.0,2.0\n");
        match Dataset::from_csv(&ragged) {
            Err(DatasetError::Csv { line, reason }) => {
                assert_eq!(line, 5);
                assert!(reason.contains("fields"), "{reason}");
            }
            other => panic!("ragged row should fail, got {other:?}"),
        }

        // Errors render through Display and implement Error.
        let err = Dataset::from_csv("").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn csv_export_has_consistent_shape() {
        let ds = Dataset::generate(8, 9);
        let csv = ds.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 9, "header + one row per sample");
        let header_cols = lines[0].split(',').count();
        assert_eq!(header_cols, misam_features::FEATURE_NAMES.len() + 8 + 3);
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), header_cols, "ragged row: {row}");
        }
        // Labels are 1-based design numbers.
        for row in &lines[1..] {
            let label: usize = row.split(',').nth(header_cols - 3).unwrap().parse().unwrap();
            assert!((1..=4).contains(&label));
        }
    }

    #[test]
    fn density_mix_spans_regimes() {
        let ds = Dataset::generate(120, 7);
        // A_sparsity is feature 0.
        let sparse = ds.samples.iter().filter(|s| s.features[0] > 0.98).count();
        let densish = ds.samples.iter().filter(|s| s.features[0] < 0.8).count();
        assert!(sparse > 5, "want hypersparse representation, got {sparse}");
        assert!(densish > 4, "want dense-ish representation, got {densish}");
    }
}
