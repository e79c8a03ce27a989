//! Cheap structural identity for operand pairs.
//!
//! A corpus run touches the same (matrix, design) pairs from several
//! experiment layers; re-simulating is seconds, fingerprinting an owned
//! matrix is an `O(nnz)` hash, and a lazy matrix an `O(rows)` hash of
//! its structure stage ([`Structure::digest`]). The fingerprint covers dimensions, the sparsity pattern, and value
//! bits, so two operands collide only if they would simulate
//! identically anyway (modulo a 2⁻⁶⁴ hash collision, which at corpus
//! scale — tens of thousands of matrices — is negligible).

use misam_sim::Operand;
use misam_sparse::fnv::Fnv;
use misam_sparse::slab::SlabMatrix;
use misam_sparse::{CsrMatrix, CsrRef, LazyMatrix, LazyOperand, Structure};

/// A 64-bit structural digest of an `(A, B)` operand pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Digest of a single CSR matrix.
    pub fn of_matrix(m: &CsrMatrix) -> Fingerprint {
        Fingerprint::of_ref(m.as_ref())
    }

    /// Digest of a borrowed CSR view — identical to
    /// [`Fingerprint::of_matrix`] on the owning matrix, whatever storage
    /// backs the view.
    pub fn of_ref(m: CsrRef<'_>) -> Fingerprint {
        let mut h = Fnv::new();
        h.write_u64(m.rows() as u64);
        h.write_u64(m.cols() as u64);
        h.write_u64(m.nnz() as u64);
        for &p in m.row_ptr() {
            h.write_u64(p as u64);
        }
        for &c in m.col_idx() {
            h.write_u64(c as u64);
        }
        for &v in m.values() {
            h.write_u64(v.to_bits() as u64);
        }
        Fingerprint(h.finish())
    }

    /// Digest of an on-disk slab matrix — **O(1)**: the slab header
    /// stores the content digest computed by the same FNV recipe during
    /// ingest, so this equals [`Fingerprint::of_matrix`] of the owned
    /// twin without touching the element arrays. The shared key space
    /// is what lets file-backed and in-memory copies of one matrix hit
    /// the same cache entries.
    pub fn of_slab(m: &SlabMatrix) -> Fingerprint {
        Fingerprint(m.content_digest())
    }

    /// Digest of a dense operand: shape alone, since the simulators
    /// model dense B as all-nonzero.
    fn of_dense(rows: usize, cols: usize) -> Fingerprint {
        let mut h = Fnv::new();
        h.write_u64(0xdeb5_e000_0000_0001);
        h.write_u64(rows as u64);
        h.write_u64(cols as u64);
        Fingerprint(h.finish())
    }

    /// Folds two digests, in order, into one.
    fn fold(first: u64, second: u64) -> Fingerprint {
        let mut h = Fnv::new();
        h.write_u64(first);
        h.write_u64(second);
        Fingerprint(h.finish())
    }

    /// Digest of one operand (dense operands hash by shape alone — the
    /// simulators model dense B as all-nonzero, so shape is identity).
    pub fn of_operand(b: Operand<'_>) -> Fingerprint {
        match b {
            Operand::Dense { rows, cols } => Fingerprint::of_dense(rows, cols),
            Operand::Sparse(m) => Fingerprint::of_matrix(m),
        }
    }

    /// Digest of an `(A, B)` pair — the cache key component.
    pub fn of_pair(a: &CsrMatrix, b: Operand<'_>) -> Fingerprint {
        Fingerprint::fold(Fingerprint::of_matrix(a).0, Fingerprint::of_operand(b).0)
    }

    /// Digest of a `(slab A, B)` pair: equals [`Fingerprint::of_pair`]
    /// with A's owned twin, but A's half costs O(1) (the slab header
    /// digest) instead of a hash over the nonzeros.
    pub fn of_slab_pair(a: &SlabMatrix, b: Operand<'_>) -> Fingerprint {
        Fingerprint::fold(Fingerprint::of_slab(a).0, Fingerprint::of_operand(b).0)
    }

    /// Digest of a matrix [`Structure`] — value-blind, `O(rows)`
    /// ([`Structure::digest`]). The key space is disjoint from
    /// [`Fingerprint::of_matrix`] by a variant sentinel.
    pub fn of_structure(s: &Structure) -> Fingerprint {
        Fingerprint(s.digest())
    }

    /// Digest of a [`LazyMatrix`]: its structure plus the fill-stage
    /// value seed, so matrices with equal patterns but different values
    /// keep distinct identities — matching the value sensitivity of
    /// [`Fingerprint::of_matrix`] without materializing anything.
    pub fn of_lazy(m: &LazyMatrix) -> Fingerprint {
        Fingerprint::fold(m.structure().digest(), m.value_seed())
    }

    /// Digest of a lazy operand (dense operands hash by shape, same as
    /// [`Fingerprint::of_operand`]).
    pub fn of_lazy_operand(b: LazyOperand<'_>) -> Fingerprint {
        match b {
            LazyOperand::Dense { rows, cols } => Fingerprint::of_dense(rows, cols),
            LazyOperand::Sparse(m) => Fingerprint::of_lazy(m),
        }
    }

    /// Digest of a lazy `(A, B)` pair — the cache key of the
    /// structure-first oracle path.
    pub fn of_lazy_pair(a: &LazyMatrix, b: LazyOperand<'_>) -> Fingerprint {
        Fingerprint::fold(Fingerprint::of_lazy(a).0, Fingerprint::of_lazy_operand(b).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misam_sparse::gen;

    #[test]
    fn slab_and_view_fingerprints_match_the_owned_matrix() {
        let a = gen::power_law(96, 80, 4.0, 1.4, 11);
        let owned = Fingerprint::of_matrix(&a);
        assert_eq!(Fingerprint::of_ref(a.as_ref()), owned);
        assert_eq!(Fingerprint(misam_sparse::slab::digest_of_view(a.as_ref())), owned);

        let dir = std::env::temp_dir().join(format!("misam_oracle_fp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.msab");
        misam_sparse::slab::write_slab(&path, &a).unwrap();
        let slab = SlabMatrix::open(&path).unwrap();
        assert_eq!(Fingerprint::of_slab(&slab), owned, "O(1) header digest shares key space");
        assert_eq!(Fingerprint::of_ref(slab.as_ref()), owned);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_matrices_share_a_fingerprint() {
        let a = gen::uniform_random(64, 64, 0.1, 7);
        let b = gen::uniform_random(64, 64, 0.1, 7);
        assert_eq!(Fingerprint::of_matrix(&a), Fingerprint::of_matrix(&b));
    }

    #[test]
    fn different_seeds_or_shapes_differ() {
        let a = gen::uniform_random(64, 64, 0.1, 7);
        let b = gen::uniform_random(64, 64, 0.1, 8);
        let c = gen::uniform_random(64, 48, 0.1, 7);
        assert_ne!(Fingerprint::of_matrix(&a), Fingerprint::of_matrix(&b));
        assert_ne!(Fingerprint::of_matrix(&a), Fingerprint::of_matrix(&c));
    }

    #[test]
    fn values_matter_not_just_structure() {
        let a = gen::uniform_random(32, 32, 0.2, 3);
        let scaled = CsrMatrix::from_raw_parts(
            a.rows(),
            a.cols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|v| v * 2.0).collect(),
        )
        .unwrap();
        assert_ne!(Fingerprint::of_matrix(&a), Fingerprint::of_matrix(&scaled));
    }

    #[test]
    fn structure_fingerprints_are_value_blind_and_seed_sensitive() {
        let a = gen::uniform_random_lazy(64, 64, 0.1, 7);
        let same = gen::uniform_random_lazy(64, 64, 0.1, 7);
        let other = gen::uniform_random_lazy(64, 64, 0.1, 8);
        assert_eq!(
            Fingerprint::of_structure(a.structure()),
            Fingerprint::of_structure(same.structure())
        );
        assert_ne!(
            Fingerprint::of_structure(a.structure()),
            Fingerprint::of_structure(other.structure())
        );
        assert_eq!(Fingerprint::of_lazy(&a), Fingerprint::of_lazy(&same));
        assert_ne!(Fingerprint::of_lazy(&a), Fingerprint::of_lazy(&other));
        // Mesh variants with equal element counts stay distinct.
        let m2 = gen::mesh2d_lazy(6, 4);
        let m3 = gen::mesh3d_lazy(6, 4, 1);
        assert_ne!(
            Fingerprint::of_structure(m2.structure()),
            Fingerprint::of_structure(m3.structure())
        );
    }

    #[test]
    fn lazy_pair_distinguishes_operand_kinds() {
        let a = gen::uniform_random_lazy(32, 32, 0.2, 3);
        let dense = Fingerprint::of_lazy_pair(&a, LazyOperand::Dense { rows: 32, cols: 16 });
        let sparse = Fingerprint::of_lazy_pair(&a, LazyOperand::Sparse(&a));
        assert_ne!(dense, sparse);
    }

    #[test]
    fn pair_distinguishes_operand_kinds() {
        let a = gen::uniform_random(32, 32, 0.2, 3);
        let dense = Fingerprint::of_pair(&a, Operand::Dense { rows: 32, cols: 16 });
        let sparse = Fingerprint::of_pair(&a, Operand::Sparse(&a));
        assert_ne!(dense, sparse);
        // And the pair digest is order-sensitive.
        let b = gen::uniform_random(32, 32, 0.2, 4);
        let ab = Fingerprint::of_pair(&a, Operand::Sparse(&b));
        let ba = Fingerprint::of_pair(&b, Operand::Sparse(&a));
        assert_ne!(ab, ba);
    }
}
