//! Unified execution-oracle layer (the architectural seam between
//! model-evaluation *call sites* and the cost models that answer them).
//!
//! Every consumer that needs "what would running `A × B` on target `t`
//! cost?" — corpus labeling, the workload suite, device routing,
//! ablation sweeps, the streaming executor — used to call a concrete
//! simulator function directly and serially. This crate factors that
//! question behind three pieces:
//!
//! * [`Executor`]: one trait for every cost model — the FPGA
//!   cycle-level simulator, the analytic estimator, and the CPU / GPU /
//!   Trapezoid baselines ([`executors`]).
//! * [`SimOracle`]: a memoizing front for any executor. Results are
//!   cached under a cheap structural [`Fingerprint`] of the operands ×
//!   the target index, so a (matrix, design) pair is evaluated exactly
//!   once while resident, no matter how many experiment layers revisit
//!   it. The cache is bounded ([`cache::DEFAULT_CAPACITY`] entries,
//!   CLOCK eviction), so a long-running process does not grow with
//!   every matrix it has seen.
//! * [`pool`]: a deterministic, order-preserving scoped-thread parallel
//!   map (honoring the `MISAM_THREADS` env override) that fan-out sites
//!   use to label corpora and sweep workload suites on every core.
//! * [`profiles`]: the process-wide [`misam_sparse::MatrixProfile`]
//!   store. Each distinct matrix is structurally profiled exactly once
//!   while resident; the profile then feeds closed-form scheduling in the simulator and
//!   zero-pass statistics in the feature extractor.
//!
//! Determinism contract: `par_map` returns results in input order and
//! executors are pure functions of their operands, so any
//! `MISAM_THREADS` setting — including 1 — produces byte-identical
//! results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod executors;
pub mod fingerprint;
pub mod profiles;
pub mod surrogate;

/// Deterministic scoped-thread parallel map (re-exported from
/// [`misam_pool`] so historical `misam_oracle::pool::` paths keep
/// working; the pool itself lives in its own crate so lower layers
/// like `misam-mlkit` can share it without depending on the oracle).
pub use misam_pool as pool;

mod service;

pub use cache::CacheStats;
pub use executors::{
    AnalyticFpga, CpuExecutor, CustomFpga, FpgaSim, GpuExecutor, TrapezoidExecutor,
};
pub use fingerprint::Fingerprint;
/// Forest hyperparameters, re-exported so [`SurrogateTrainParams`] is
/// constructible from this crate's API alone.
pub use misam_mlkit::regforest::RegForestParams;
pub use service::{global, SimOracle};
pub use surrogate::{
    tiered_global, SurrogateBundle, SurrogateError, SurrogateExecutor, SurrogateModel,
    SurrogateTrainParams, TieredOracle, TieredStats, SURROGATE_BUNDLE_VERSION,
};

use misam_sim::{Operand, SimReport};
use misam_sparse::{CsrMatrix, LazyMatrix, LazyOperand};

/// A cost model that can evaluate `a × b` on one of its targets.
///
/// `target` indexes the executor's design/device space: the four FPGA
/// dataflow designs for [`FpgaSim`], the three Trapezoid dataflows for
/// [`TrapezoidExecutor`], a single device for the CPU/GPU baselines.
/// Implementations must be pure (same operands + target → identical
/// report) and thread-safe; that is what makes memoization and
/// parallel fan-out sound.
pub trait Executor: Sync {
    /// The cost report this executor produces.
    type Report: Clone + Send + Sync;

    /// Number of valid targets; `execute` accepts `0..targets()`.
    fn targets(&self) -> usize;

    /// Evaluates `a × b` on `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.targets()` or operand shapes disagree.
    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> Self::Report;

    /// Evaluates every target for one operand pair, in target order.
    fn execute_all(&self, a: &CsrMatrix, b: Operand<'_>) -> Vec<Self::Report> {
        (0..self.targets()).map(|t| self.execute(a, b, t)).collect()
    }
}

/// A labeler for lazy (structure-only) operand pairs — the seam corpus
/// generation plugs different oracle tiers into. [`SimOracle`] labels
/// through the memoized cycle sim; [`surrogate::TieredOracle`] answers
/// from the gated surrogate with sim fallback. Implementations must be
/// pure functions of the operands (given fixed installed models), so
/// parallel corpus labeling stays byte-identical at any thread count.
pub trait LazyLabeler: Sync {
    /// Labels every design for one lazy pair, in [`Executor`] target
    /// order.
    fn label_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport>;

    /// [`LazyLabeler::label_all_lazy`] with pair features the caller
    /// already extracted under `tile` (the corpus pipeline computes
    /// them for every sample before labeling). Labelers that gate on
    /// features — the tiered oracle — skip re-extraction when the
    /// config and arity match; everyone else ignores the hint. Results
    /// must be byte-identical to [`LazyLabeler::label_all_lazy`]: the
    /// features are a cache, never an input that changes the answer.
    fn label_all_lazy_with_features(
        &self,
        a: &LazyMatrix,
        b: LazyOperand<'_>,
        features: &[f64],
        tile: &misam_features::TileConfig,
    ) -> Vec<SimReport> {
        let _ = (features, tile);
        self.label_all_lazy(a, b)
    }
}

impl LazyLabeler for SimOracle<FpgaSim> {
    fn label_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        self.execute_all_lazy(a, b)
    }
}

impl<L: LazyLabeler + ?Sized> LazyLabeler for &L {
    fn label_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        (**self).label_all_lazy(a, b)
    }

    fn label_all_lazy_with_features(
        &self,
        a: &LazyMatrix,
        b: LazyOperand<'_>,
        features: &[f64],
        tile: &misam_features::TileConfig,
    ) -> Vec<SimReport> {
        (**self).label_all_lazy_with_features(a, b, features, tile)
    }
}

impl<E: Executor + ?Sized> Executor for &E {
    type Report = E::Report;

    fn targets(&self) -> usize {
        (**self).targets()
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> Self::Report {
        (**self).execute(a, b, target)
    }
}
