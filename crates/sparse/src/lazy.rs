//! Lazy CSR materialization — the *fill stage* of the two-stage
//! generators.
//!
//! A [`LazyMatrix`] pairs a [`Structure`] with the value-stream seed
//! that fully determines its element values. Consumers that only need
//! structure (profiling, scheduling, feature extraction) work straight
//! off [`LazyMatrix::structure`] and never touch element arrays;
//! consumers that genuinely need elements (numeric kernels, the
//! element-walk reference simulator, I/O) call
//! [`LazyMatrix::materialize`], which builds the CSR exactly once and
//! caches it. A `LazyMatrix` also derefs to its [`CsrMatrix`] the way
//! `std::sync::LazyLock` derefs to its value, so any `&CsrMatrix`
//! consumer accepts `&lazy` and materializes on first touch; the
//! structural accessors (`rows`, `cols`, `nnz`, `structure`) are
//! inherent and never do.
//!
//! The matrix's structural profiles are memoized the same way, one per
//! operand role: [`LazyMatrix::lhs_profile`] (with the residue tallies
//! a left-hand schedule folds) and [`LazyMatrix::rhs_profile`] (without
//! them). Each is synthesized on first use, never at construction, and
//! shared by clones, so a labeled sample's features and every design's
//! simulation read one synthesis per operand with no cache lookup.
//!
//! Process-wide counters track how many lazy matrices were created and
//! how many were ever materialized, so benchmarks can report a
//! `csr_materialization_rate` and prove that labeling-only pipelines
//! stay element-free.

use crate::structure::Structure;
use crate::{CsrMatrix, MatrixProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static LAZY_CREATED: AtomicU64 = AtomicU64::new(0);
static MATERIALIZED: AtomicU64 = AtomicU64::new(0);

/// Creation/materialization counters since process start (or the last
/// [`reset_materialization_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaterializationStats {
    /// Lazy matrices constructed.
    pub created: u64,
    /// Lazy matrices whose CSR was actually built.
    pub materialized: u64,
}

impl MaterializationStats {
    /// Fraction of lazy matrices that were materialized (0 when none
    /// were created).
    pub fn rate(&self) -> f64 {
        if self.created == 0 {
            0.0
        } else {
            self.materialized as f64 / self.created as f64
        }
    }
}

/// Current process-wide counters.
pub fn materialization_stats() -> MaterializationStats {
    MaterializationStats {
        created: LAZY_CREATED.load(Ordering::Relaxed),
        materialized: MATERIALIZED.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide counters (benchmark scoping).
pub fn reset_materialization_stats() {
    LAZY_CREATED.store(0, Ordering::Relaxed);
    MATERIALIZED.store(0, Ordering::Relaxed);
}

/// A matrix whose structure is known but whose elements are built on
/// demand.
///
/// The CSR a `LazyMatrix` materializes to is a pure function of
/// `(structure, value_seed)` — see [`Structure::materialize`] — so two
/// lazy matrices with equal structure and seed are interchangeable,
/// which is what lets oracle fingerprints key on the structure alone.
#[derive(Debug)]
pub struct LazyMatrix {
    structure: Structure,
    value_seed: u64,
    cache: OnceLock<Arc<CsrMatrix>>,
    lhs: OnceLock<Arc<MatrixProfile>>,
    rhs: OnceLock<Arc<MatrixProfile>>,
}

impl LazyMatrix {
    /// Wraps a structure and its fill seed; no elements are allocated.
    pub fn new(structure: Structure, value_seed: u64) -> Self {
        LAZY_CREATED.fetch_add(1, Ordering::Relaxed);
        LazyMatrix {
            structure,
            value_seed,
            cache: OnceLock::new(),
            lhs: OnceLock::new(),
            rhs: OnceLock::new(),
        }
    }

    /// The structural description (always available, never allocates).
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Seed of the deterministic value stream used by the fill stage.
    pub fn value_seed(&self) -> u64 {
        self.value_seed
    }

    /// The profile of this matrix as a left-hand operand, with residue
    /// tallies for `col_pes` and `row_pes` ([`MatrixProfile::synthesize`]):
    /// synthesized on first use and memoized. The memo keeps the first
    /// synthesis, so every caller passes the same PE counts (the oracle
    /// passes the standard designs').
    pub fn lhs_profile(&self, col_pes: &[usize], row_pes: &[usize]) -> &MatrixProfile {
        let p = self
            .lhs
            .get_or_init(|| Arc::new(MatrixProfile::synthesize(&self.structure, col_pes, row_pes)));
        debug_assert!(
            col_pes.iter().all(|&pes| p.tally(pes).is_some()),
            "memo built for other PEs"
        );
        p
    }

    /// The profile of this matrix as a right-hand operand: what
    /// [`LazyMatrix::lhs_profile`] holds, less the residue tallies (no
    /// schedule folds B's), synthesized on first use into a memo of its
    /// own.
    pub fn rhs_profile(&self) -> &MatrixProfile {
        self.rhs.get_or_init(|| Arc::new(MatrixProfile::synthesize(&self.structure, &[], &[])))
    }

    /// Number of rows, off the structure.
    pub fn rows(&self) -> usize {
        self.structure.rows()
    }

    /// Number of columns, off the structure.
    pub fn cols(&self) -> usize {
        self.structure.cols()
    }

    /// Number of nonzeros, off the structure.
    pub fn nnz(&self) -> usize {
        self.structure.nnz()
    }

    /// Whether the CSR has already been built.
    pub fn is_materialized(&self) -> bool {
        self.cache.get().is_some()
    }

    /// The materialized CSR, built exactly once and cached.
    pub fn materialize(&self) -> &CsrMatrix {
        self.cache.get_or_init(|| {
            MATERIALIZED.fetch_add(1, Ordering::Relaxed);
            Arc::new(self.structure.materialize(self.value_seed))
        })
    }

    /// The materialized CSR as a shared handle.
    pub fn materialize_arc(&self) -> Arc<CsrMatrix> {
        self.materialize();
        Arc::clone(self.cache.get().expect("just materialized"))
    }

    /// Consumes the lazy wrapper, returning the owned CSR (reusing the
    /// cached build when present).
    pub fn into_csr(self) -> CsrMatrix {
        match self.cache.into_inner() {
            Some(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
            None => {
                MATERIALIZED.fetch_add(1, Ordering::Relaxed);
                self.structure.materialize(self.value_seed)
            }
        }
    }
}

impl std::ops::Deref for LazyMatrix {
    type Target = CsrMatrix;

    /// The materialized CSR ([`LazyMatrix::materialize`]): built and
    /// counted on first use, cached after.
    fn deref(&self) -> &CsrMatrix {
        self.materialize()
    }
}

impl Clone for LazyMatrix {
    /// Clones share the already-materialized CSR and profiles (if any)
    /// but count as a new lazy instance.
    fn clone(&self) -> Self {
        LAZY_CREATED.fetch_add(1, Ordering::Relaxed);
        LazyMatrix {
            structure: self.structure.clone(),
            value_seed: self.value_seed,
            cache: self.cache.clone(),
            lhs: self.lhs.clone(),
            rhs: self.rhs.clone(),
        }
    }
}

/// A lazy multiplication operand: a dense B is fully described by its
/// shape, a sparse B by its lazy matrix.
#[derive(Debug, Clone, Copy)]
pub enum LazyOperand<'a> {
    /// Dense operand of the given shape.
    Dense {
        /// Rows of B.
        rows: usize,
        /// Columns of B.
        cols: usize,
    },
    /// Sparse operand described lazily.
    Sparse(&'a LazyMatrix),
}

impl<'a> LazyOperand<'a> {
    /// Rows of the operand.
    pub fn rows(&self) -> usize {
        match self {
            LazyOperand::Dense { rows, .. } => *rows,
            LazyOperand::Sparse(m) => m.rows(),
        }
    }

    /// Columns of the operand.
    pub fn cols(&self) -> usize {
        match self {
            LazyOperand::Dense { cols, .. } => *cols,
            LazyOperand::Sparse(m) => m.cols(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LazyMatrix {
        LazyMatrix::new(Structure::runs(4, 8, vec![1, 6, 0, 3], vec![3, 4, 0, 8]), 99)
    }

    #[test]
    fn materialize_is_cached_and_counted() {
        reset_materialization_stats();
        let m = sample();
        assert!(!m.is_materialized());
        assert_eq!(materialization_stats().created, 1);
        assert_eq!(materialization_stats().materialized, 0);

        let first = m.materialize() as *const CsrMatrix;
        let second = m.materialize() as *const CsrMatrix;
        assert_eq!(first, second, "single cached build");
        assert_eq!(materialization_stats().materialized, 1);
        assert!((materialization_stats().rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn into_csr_matches_structure() {
        let m = sample();
        let nnz = m.nnz();
        let csr = m.clone().into_csr();
        assert_eq!(csr.nnz(), nnz);
        assert_eq!(csr, *m.materialize());
    }

    #[test]
    fn deref_materializes_once_and_matches_into_csr() {
        let m = sample();
        let eager = m.clone().into_csr();
        assert!(!m.is_materialized());
        let as_csr: &CsrMatrix = &m;
        assert!(m.is_materialized());
        assert_eq!(*as_csr, eager);
        assert!(std::ptr::eq(as_csr, m.materialize()), "deref reuses the cached build");
    }

    #[test]
    fn structure_only_consumers_never_materialize() {
        reset_materialization_stats();
        let m = sample();
        let _ = (m.rows(), m.cols(), m.nnz(), m.structure());
        assert_eq!(materialization_stats().materialized, 0);
    }

    #[test]
    fn structural_reads_leave_the_profile_memos_unset() {
        // Profiles are synthesized on first use, never at construction
        // or by a structural read.
        let m = sample();
        let _ = (m.rows(), m.cols(), m.nnz(), m.structure(), m.value_seed());
        assert!(m.lhs.get().is_none() && m.rhs.get().is_none());
        m.rhs_profile();
        assert!(m.lhs.get().is_none(), "each role fills only its own memo");
        m.lhs_profile(&[2, 8], &[8]);
        assert!(m.lhs.get().is_some() && m.rhs.get().is_some());
    }

    #[test]
    fn memoized_profiles_equal_fresh_syntheses_for_every_family() {
        let mut cases: Vec<LazyMatrix> = Vec::new();
        for (_, build) in crate::gen::FAMILIES {
            for (rows, density, seed) in [(600, 0.01, 0), (1500, 0.002, 7), (90, 0.3, 11)] {
                cases.push(build(rows, rows + 13, density, seed));
            }
        }
        cases.push(crate::gen::mesh2d_lazy(12, 9));
        cases.push(crate::gen::mesh3d_lazy(5, 4, 3));
        cases.push(sample());
        let (col_pes, row_pes) = ([2, 8, 96], [8, 96]);
        for m in &cases {
            let lhs = MatrixProfile::synthesize(m.structure(), &col_pes, &row_pes);
            let rhs = MatrixProfile::synthesize(m.structure(), &[], &[]);
            assert_eq!(*m.lhs_profile(&col_pes, &row_pes), lhs, "first use synthesizes it");
            assert!(std::ptr::eq(
                m.lhs_profile(&col_pes, &row_pes),
                m.lhs_profile(&col_pes, &row_pes)
            ));
            assert_eq!(*m.rhs_profile(), rhs);
            assert!(std::ptr::eq(m.rhs_profile(), m.rhs_profile()), "later uses read the memo");
        }
    }

    #[test]
    fn clones_share_the_profile_memos() {
        let m = sample();
        let cold = m.clone();
        let (lhs, rhs) = (m.lhs_profile(&[2], &[]), m.rhs_profile());
        assert!(cold.lhs.get().is_none(), "a clone taken before first use stays cold");
        let c = m.clone();
        assert!(std::ptr::eq(c.lhs_profile(&[2], &[]), lhs), "the memo travels with the clone");
        assert!(std::ptr::eq(c.rhs_profile(), rhs));
    }
}
