//! Shared, memoized [`MatrixProfile`] store for owned and slab
//! matrices, and the profiles of lazy ones.
//!
//! Every executor that wants the profile of an owned or file-backed
//! matrix asks this store by the matrix's content [`Fingerprint`]; the
//! O(nnz) profiling pass then runs **exactly once per distinct matrix
//! while its profile is resident**,
//! no matter how many experiment layers, designs, or threads revisit
//! it. The store rides on the same bounded, exactly-once [`MemoCache`]
//! as the oracle's report cache, so concurrent fan-out workers block on
//! a single in-flight build instead of duplicating it, and an evicted
//! profile is rebuilt bit-identically on its next use.
//!
//! Profiles are built with residue tallies for the standard design PE
//! counts ([`misam_sim::design_pe_counts`]), which is what lets the
//! simulation engine schedule every uniform-cost pass as an O(PEs)
//! fold (see `misam_sim::schedule::schedule_uniform_profiled`).
//!
//! A lazy matrix's profiles are not in the store: they are synthesized
//! in O(rows + cols) from its structure stage on first use and memoized
//! on the [`LazyMatrix`] itself, one per role ([`of_lazy`],
//! [`of_lazy_rhs`]). A freshly drawn corpus sample never recurs, so a
//! global entry for it could only be missed; on the operand, its
//! features and all four designs' simulations share one synthesis per
//! operand with no digest and no lookup.

use crate::cache::{CacheStats, MemoCache};
use crate::Fingerprint;
use misam_features::{PairFeatures, TileConfig};
use misam_sim::{design_pe_counts, design_row_pe_counts, Operand};
use misam_sparse::slab::SlabMatrix;
use misam_sparse::{CsrMatrix, CsrRef, LazyMatrix, LazyOperand, MatrixProfile};
use std::sync::{Arc, OnceLock};

/// A memoized profile store keyed by [`Fingerprint::of_matrix`]: owned
/// matrices, borrowed views and slabs share one key space.
#[derive(Debug, Default)]
pub struct ProfileStore {
    cache: MemoCache<Arc<MatrixProfile>>,
}

impl ProfileStore {
    /// An empty store of [`crate::cache::DEFAULT_CAPACITY`] profiles.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile of `m`, built (with standard-design PE tallies) on
    /// first sight of this fingerprint and shared thereafter.
    pub fn of_matrix(&self, m: &CsrMatrix) -> Arc<MatrixProfile> {
        self.keyed_build(Fingerprint::of_matrix(m), m.as_ref())
    }

    /// The profile of a borrowed CSR view, keyed by [`Fingerprint::of_ref`]
    /// — the same key an owned copy of the matrix would use, so owned and
    /// file-backed views of one matrix share a single cached build.
    pub fn of_ref(&self, m: CsrRef<'_>) -> Arc<MatrixProfile> {
        self.keyed_build(Fingerprint::of_ref(m), m)
    }

    /// The profile of an on-disk slab matrix. The cache key is the slab
    /// header's content digest — **O(1)**, no pass over the nonzeros —
    /// and equals [`Fingerprint::of_matrix`] of the owned twin, so a
    /// matrix profiled from memory is a cache hit when later opened from
    /// disk (and vice versa).
    pub fn of_slab(&self, m: &SlabMatrix) -> Arc<MatrixProfile> {
        self.keyed_build(Fingerprint::of_slab(m), m.as_ref())
    }

    fn keyed_build(&self, fp: Fingerprint, m: CsrRef<'_>) -> Arc<MatrixProfile> {
        self.cache.get_or_compute(fp, 0, || {
            Arc::new(MatrixProfile::build_with_scheduler_pes_ref(
                m,
                &design_pe_counts(),
                &design_row_pe_counts(),
            ))
        })
    }

    /// The profile of a sparse operand; `None` for dense operands,
    /// whose structure is fully described by their shape.
    pub fn of_operand(&self, b: Operand<'_>) -> Option<Arc<MatrixProfile>> {
        match b {
            Operand::Sparse(m) => Some(self.of_matrix(m)),
            Operand::Dense { .. } => None,
        }
    }

    /// Pair features computed from cached profiles: the structural pass
    /// over each operand is shared with simulation instead of redone.
    pub fn pair_features(&self, a: &CsrMatrix, b: Operand<'_>, cfg: &TileConfig) -> PairFeatures {
        let ap = self.of_matrix(a);
        match b {
            Operand::Sparse(bm) => {
                let bp = self.of_matrix(bm);
                PairFeatures::from_profiles(&ap, &bp, bm, cfg)
            }
            Operand::Dense { rows, cols } => {
                PairFeatures::from_profile_dense_b(&ap, rows, cols, cfg)
            }
        }
    }

    /// Hit/miss counters; `misses` equals the number of profiling
    /// passes actually executed.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached profile and zeroes the counters.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

/// The process-wide profile store every executor shares, bounded at
/// [`crate::cache::DEFAULT_CAPACITY`] profiles.
pub fn global() -> &'static ProfileStore {
    static GLOBAL: OnceLock<ProfileStore> = OnceLock::new();
    GLOBAL.get_or_init(ProfileStore::new)
}

/// The left-hand profile of a lazy matrix, with the standard design
/// tallies ([`misam_sim::design_pe_counts`]): synthesized from its
/// structure stage on first use and memoized on the matrix
/// ([`LazyMatrix::lhs_profile`]), no element arrays built. Bit-identical
/// to [`ProfileStore::of_matrix`] on the materialized matrix (the
/// two-stage generator contract).
pub fn of_lazy(m: &LazyMatrix) -> &MatrixProfile {
    static PES: OnceLock<(Vec<usize>, Vec<usize>)> = OnceLock::new();
    let (col_pes, row_pes) = PES.get_or_init(|| (design_pe_counts(), design_row_pe_counts()));
    m.lhs_profile(col_pes, row_pes)
}

/// The right-hand profile of a lazy matrix: [`of_lazy`] less the
/// residue tallies ([`LazyMatrix::rhs_profile`]). A sparse B is read
/// only through its row lengths, column counts, summaries and nonzero
/// count (the simulator's flop count, cost table and tiling, and B's
/// pair features); no schedule folds B's tallies.
pub fn of_lazy_rhs(m: &LazyMatrix) -> &MatrixProfile {
    m.rhs_profile()
}

/// Pair features of a lazy operand pair, computed entirely from the
/// operands' memoized profiles and B's structure: no CSR is
/// materialized. Bit-identical to [`ProfileStore::pair_features`] on
/// the materialized pair.
pub fn pair_features_lazy(a: &LazyMatrix, b: LazyOperand<'_>, cfg: &TileConfig) -> PairFeatures {
    let ap = of_lazy(a);
    match b {
        LazyOperand::Sparse(bm) => {
            PairFeatures::from_profiles_structural(ap, of_lazy_rhs(bm), bm.structure(), cfg)
        }
        LazyOperand::Dense { rows, cols } => {
            PairFeatures::from_profile_dense_b(ap, rows, cols, cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use misam_sparse::gen;

    #[test]
    fn one_build_per_distinct_matrix() {
        let store = ProfileStore::new();
        let a = gen::power_law(128, 128, 4.0, 1.4, 1);
        let same = gen::power_law(128, 128, 4.0, 1.4, 1);
        let other = gen::power_law(128, 128, 4.0, 1.4, 2);

        let p1 = store.of_matrix(&a);
        let p2 = store.of_matrix(&same);
        let p3 = store.of_matrix(&other);
        assert!(Arc::ptr_eq(&p1, &p2), "identical matrices share one profile");
        assert!(!Arc::ptr_eq(&p1, &p3));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }

    #[test]
    fn slab_and_owned_views_share_one_cache_entry() {
        let store = ProfileStore::new();
        let a = gen::power_law(160, 120, 4.0, 1.4, 13);
        let dir =
            std::env::temp_dir().join(format!("misam_oracle_profiles_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.msab");
        misam_sparse::slab::write_slab(&path, &a).unwrap();
        let slab = SlabMatrix::open(&path).unwrap();

        let from_owned = store.of_matrix(&a);
        let from_slab = store.of_slab(&slab);
        let from_ref = store.of_ref(slab.as_ref());
        assert!(Arc::ptr_eq(&from_owned, &from_slab), "slab digest hits the owned entry");
        assert!(Arc::ptr_eq(&from_owned, &from_ref));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicted_profiles_rebuild_identically() {
        let store = ProfileStore { cache: MemoCache::with_capacity(1) };
        let a = gen::power_law(128, 128, 4.0, 1.4, 1);
        let others: Vec<_> = (2..40).map(|s| gen::power_law(128, 128, 4.0, 1.4, s)).collect();
        let first = store.of_matrix(&a);
        for m in &others {
            store.of_matrix(m);
        }
        let again = store.of_matrix(&a);
        assert!(!Arc::ptr_eq(&first, &again), "the first build was evicted");
        assert_eq!(*first, *again, "and its rebuild is bit-identical");
        let s = store.stats();
        assert_eq!((s.misses, s.entries), (40, 1));
        assert_eq!(s.evictions, 39);
    }

    #[test]
    fn profiles_carry_standard_design_tallies() {
        let store = ProfileStore::new();
        let a = gen::uniform_random(64, 64, 0.1, 3);
        let p = store.of_matrix(&a);
        for pes in design_pe_counts() {
            assert!(p.tally(pes).is_some(), "missing tally for {pes} PEs");
        }
        for pes in design_row_pe_counts() {
            assert!(
                p.tally(pes).unwrap().has_row_side(),
                "row-scheduler designs need fragment maxima for {pes} PEs"
            );
        }
    }

    #[test]
    fn right_hand_profiles_drop_only_the_tallies() {
        let cases = [
            gen::power_law_lazy(300, 250, 6.0, 1.5, 7),
            gen::uniform_random_lazy(120, 333, 0.03, 8),
            gen::mesh2d_lazy(9, 7),
        ];
        for m in &cases {
            let b = of_lazy_rhs(m);
            let a = of_lazy(m);
            assert!(!std::ptr::eq(a, b), "each role has a memo of its own");
            assert_eq!(b.row_lens(), a.row_lens());
            assert_eq!(b.col_counts(), a.col_counts());
            assert_eq!(b.row_summary(), a.row_summary());
            assert_eq!(b.col_summary(), a.col_summary());
            assert_eq!((b.rows(), b.cols(), b.nnz()), (a.rows(), a.cols(), a.nnz()));
            assert_eq!(b.tally_pes().count(), 0, "a right-hand profile holds no tally");
            // The A-side profile came after the B-side one for the same
            // matrix and still carries every design tally.
            for pes in design_pe_counts() {
                assert!(a.tally(pes).is_some(), "missing tally for {pes} PEs");
            }
            for pes in design_row_pe_counts() {
                assert!(a.tally(pes).unwrap().has_row_side(), "no fragment maxima at {pes}");
            }
            // Both roles equal a fresh build of the materialized matrix,
            // bit for bit, tallies aside.
            let built = MatrixProfile::build_with_scheduler_pes(
                &m.clone().into_csr(),
                &design_pe_counts(),
                &design_row_pe_counts(),
            );
            assert_eq!(*a, built);
            let bare = MatrixProfile::build_with_scheduler_pes(&m.clone().into_csr(), &[], &[]);
            assert_eq!(*b, bare);
            // Later reads, and a clone, see the same two syntheses.
            assert!(std::ptr::eq(of_lazy_rhs(m), b) && std::ptr::eq(of_lazy(m), a));
            let c = m.clone();
            assert!(std::ptr::eq(of_lazy_rhs(&c), b), "a clone shares the B-side memo");
            assert!(std::ptr::eq(of_lazy(&c), a), "and the A-side one");
            assert!(!c.is_materialized());
        }
    }

    #[test]
    fn dense_operands_need_no_profile() {
        let store = ProfileStore::new();
        assert!(store.of_operand(Operand::Dense { rows: 8, cols: 8 }).is_none());
        assert_eq!(store.stats().lookups(), 0);
    }

    #[test]
    fn concurrent_lookups_build_exactly_once() {
        let store = ProfileStore::new();
        let a = gen::power_law(256, 256, 6.0, 1.4, 9);
        let profiles: Vec<_> = pool::par_map_with(&[(); 8], 8, |_| store.of_matrix(&a));
        for p in &profiles {
            assert!(Arc::ptr_eq(p, &profiles[0]));
        }
        let s = store.stats();
        assert_eq!(s.misses, 1, "profiling pass ran exactly once");
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn pair_features_match_direct_extraction() {
        let store = ProfileStore::new();
        let a = gen::power_law(200, 150, 5.0, 1.4, 4);
        let bm = gen::uniform_random(150, 90, 0.2, 5);
        let cfg = TileConfig::default();
        assert_eq!(
            store.pair_features(&a, Operand::Sparse(&bm), &cfg),
            PairFeatures::extract(&a, &bm, &cfg)
        );
        assert_eq!(
            store.pair_features(&a, Operand::Dense { rows: 150, cols: 64 }, &cfg),
            PairFeatures::from_profile_dense_b(&MatrixProfile::build(&a), 150, 64, &cfg)
        );
    }
}
