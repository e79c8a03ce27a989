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
//! The structure's digest ([`Structure::digest`], the structural half
//! of every oracle cache key) is memoized the same way: computed on the
//! first [`LazyMatrix::structure_digest`] call, never at construction,
//! and carried by clones, so a lazy matrix is hashed at most once
//! however many cache lookups key on it. The label path fills the memos
//! of an operand pair together ([`LazyMatrix::structure_digest_pair`]),
//! so A's and B's hash chains overlap.
//!
//! Process-wide counters track how many lazy matrices were created and
//! how many were ever materialized, so benchmarks can report a
//! `csr_materialization_rate` and prove that labeling-only pipelines
//! stay element-free.

use crate::structure::Structure;
use crate::CsrMatrix;
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
    digest: OnceLock<u64>,
}

impl LazyMatrix {
    /// Wraps a structure and its fill seed; no elements are allocated.
    pub fn new(structure: Structure, value_seed: u64) -> Self {
        LAZY_CREATED.fetch_add(1, Ordering::Relaxed);
        LazyMatrix { structure, value_seed, cache: OnceLock::new(), digest: OnceLock::new() }
    }

    /// The structural description (always available, never allocates).
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Seed of the deterministic value stream used by the fill stage.
    pub fn value_seed(&self) -> u64 {
        self.value_seed
    }

    /// [`Structure::digest`] of the structure stage, computed on first
    /// use and memoized.
    pub fn structure_digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.structure.digest())
    }

    /// [`LazyMatrix::structure_digest`] of `a` and of `b`. The memos
    /// that are unset are filled together, by one
    /// [`Structure::digest_pair`] pass when both are; a memo already
    /// set is read, not recomputed.
    pub fn structure_digest_pair(a: &LazyMatrix, b: &LazyMatrix) -> (u64, u64) {
        match (a.digest.get(), b.digest.get()) {
            (Some(&da), Some(&db)) => (da, db),
            (Some(&da), None) => (da, b.structure_digest()),
            (None, Some(&db)) => (a.structure_digest(), db),
            (None, None) => {
                let (da, db) = Structure::digest_pair(&a.structure, &b.structure);
                (*a.digest.get_or_init(|| da), *b.digest.get_or_init(|| db))
            }
        }
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
    /// Clones share the already-materialized CSR and the structure
    /// digest (if any) but count as a new lazy instance.
    fn clone(&self) -> Self {
        LAZY_CREATED.fetch_add(1, Ordering::Relaxed);
        LazyMatrix {
            structure: self.structure.clone(),
            value_seed: self.value_seed,
            cache: self.cache.clone(),
            digest: self.digest.clone(),
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
    fn structural_reads_and_synthesis_leave_the_digest_unset() {
        // What a served generator request does with its operand: the
        // structural accessors and profile synthesis, no fingerprint.
        let m = sample();
        let _ = (m.rows(), m.cols(), m.nnz(), m.structure(), m.value_seed());
        let _ = crate::MatrixProfile::synthesize(m.structure(), &[2, 8, 96], &[8, 96]);
        assert!(m.digest.get().is_none(), "the digest is computed only on first use");
        assert_eq!(m.structure_digest(), m.structure().digest());
        assert!(m.digest.get().is_some());
    }

    #[test]
    fn memoized_digest_equals_a_fresh_one_for_every_family() {
        let mut cases: Vec<LazyMatrix> = Vec::new();
        for (_, build) in crate::gen::FAMILIES {
            for (rows, density, seed) in [(600, 0.01, 0), (1500, 0.002, 7), (90, 0.3, 11)] {
                cases.push(build(rows, rows + 13, density, seed));
            }
        }
        cases.push(crate::gen::mesh2d_lazy(12, 9));
        cases.push(crate::gen::mesh3d_lazy(5, 4, 3));
        cases.push(sample());
        for m in &cases {
            let fresh = m.structure().digest();
            assert_eq!(m.structure_digest(), fresh, "first use computes it");
            assert_eq!(m.structure_digest(), fresh, "later uses read the memo");
        }
    }

    /// Run tables of different row counts, with empty rows, wrapping
    /// rows and zero rows, plus both meshes: pairs over them cover
    /// A longer than B, B longer than A, equal lengths and the mesh arms.
    fn digest_pair_cases() -> Vec<Structure> {
        vec![
            Structure::runs(4, 8, vec![1, 6, 0, 3], vec![3, 4, 0, 8]),
            Structure::runs(7, 5, vec![0, 4, 0, 2, 3, 0, 1], vec![0, 3, 5, 0, 4, 0, 5]),
            Structure::runs(1, 3, vec![2], vec![2]),
            Structure::empty(6, 6),
            Structure::empty(0, 4),
            Structure::empty(0, 0),
            Structure::Mesh2d { nx: 4, ny: 3 },
            Structure::Mesh3d { nx: 2, ny: 3, nz: 2 },
            crate::gen::power_law_lazy(300, 280, 6.0, 1.5, 3).structure().clone(),
            crate::gen::uniform_random_lazy(97, 300, 0.05, 4).structure().clone(),
        ]
    }

    #[test]
    fn pair_digest_equals_two_single_digests() {
        let cases = digest_pair_cases();
        for a in &cases {
            for b in &cases {
                let twin = (a.digest(), b.digest());
                assert_eq!(Structure::digest_pair(a, b), twin, "{a:?} x {b:?}");
                let (la, lb) = (LazyMatrix::new(a.clone(), 1), LazyMatrix::new(b.clone(), 2));
                assert_eq!(LazyMatrix::structure_digest_pair(&la, &lb), twin);
                assert_eq!((la.digest.get(), lb.digest.get()), (Some(&twin.0), Some(&twin.1)));
            }
        }
    }

    #[test]
    fn pair_digest_fills_only_unset_memos() {
        let cases = digest_pair_cases();
        let (a, b) = (LazyMatrix::new(cases[1].clone(), 1), LazyMatrix::new(cases[8].clone(), 2));
        let da = a.structure_digest();
        assert!(b.digest.get().is_none());
        assert_eq!(LazyMatrix::structure_digest_pair(&a, &b), (da, cases[8].digest()));
        assert_eq!(a.digest.get(), Some(&da), "a set memo is left as it was");

        let (a, b) = (LazyMatrix::new(cases[0].clone(), 1), LazyMatrix::new(cases[6].clone(), 2));
        let db = b.structure_digest();
        assert_eq!(LazyMatrix::structure_digest_pair(&a, &b), (cases[0].digest(), db));
        assert_eq!(b.digest.get(), Some(&db));

        // Both set: nothing to hash. The same matrix on both sides.
        assert_eq!(LazyMatrix::structure_digest_pair(&a, &b), (cases[0].digest(), db));
        let c = LazyMatrix::new(cases[9].clone(), 3);
        let dc = cases[9].digest();
        assert_eq!(LazyMatrix::structure_digest_pair(&c, &c), (dc, dc));
        assert_eq!(c.digest.get(), Some(&dc));
    }

    #[test]
    fn clones_carry_the_digest_memo() {
        let m = sample();
        assert!(m.clone().digest.get().is_none());
        let d = m.structure_digest();
        let c = m.clone();
        assert_eq!(c.digest.get(), Some(&d), "the memo travels with the clone");
        assert_eq!(c.structure_digest(), d);
    }
}
