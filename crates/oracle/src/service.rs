//! The memoizing oracle service: any [`Executor`] fronted by a
//! [`MemoCache`], plus the process-global FPGA oracle every fan-out
//! site shares.

use crate::cache::{CacheStats, MemoCache};
use crate::executors::FpgaSim;
use crate::{Executor, Fingerprint};
use misam_sim::{Operand, SimReport};
use misam_sparse::slab::SlabMatrix;
use misam_sparse::{CsrMatrix, LazyMatrix, LazyOperand};
use std::sync::OnceLock;

/// A memoizing front for any [`Executor`].
///
/// `SimOracle` is itself an `Executor`, so call sites written against
/// the trait work identically with or without caching. Results are
/// keyed by ([`Fingerprint::of_pair`], target), so a given (operand
/// pair, target) is evaluated by the inner executor exactly once while
/// its report is resident in this oracle's bounded cache.
#[derive(Debug, Default)]
pub struct SimOracle<E: Executor> {
    inner: E,
    cache: MemoCache<E::Report>,
}

impl<E: Executor> SimOracle<E> {
    /// Wraps `inner` with an empty cache of
    /// [`crate::cache::DEFAULT_CAPACITY`] reports.
    pub fn new(inner: E) -> Self {
        SimOracle { inner, cache: MemoCache::new() }
    }

    /// Wraps `inner` with an empty cache holding at most `capacity`
    /// reports once no evaluation is in flight.
    pub fn with_capacity(inner: E, capacity: usize) -> Self {
        SimOracle { inner, cache: MemoCache::with_capacity(capacity) }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Hit/miss counters and resident entry count.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached report and zeroes the counters.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

impl<E: Executor> Executor for SimOracle<E> {
    type Report = E::Report;

    fn targets(&self) -> usize {
        self.inner.targets()
    }

    fn execute(&self, a: &CsrMatrix, b: Operand<'_>, target: usize) -> Self::Report {
        let fp = Fingerprint::of_pair(a, b);
        self.cache.get_or_compute(fp, target, || self.inner.execute(a, b, target))
    }

    fn execute_all(&self, a: &CsrMatrix, b: Operand<'_>) -> Vec<Self::Report> {
        // Fingerprint once for the whole target sweep.
        let fp = Fingerprint::of_pair(a, b);
        (0..self.targets())
            .map(|t| self.cache.get_or_compute(fp, t, || self.inner.execute(a, b, t)))
            .collect()
    }
}

impl SimOracle<FpgaSim> {
    /// Memoized [`FpgaSim::execute_lazy`], for lazy pairs that recur:
    /// served `Simulate { spec }` requests and the learner's labels.
    /// Keys are lazy pair fingerprints
    /// ([`Fingerprint::of_lazy_pair`]), computed from structure stages
    /// alone, so cache lookups never materialize.
    pub fn execute_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>, target: usize) -> SimReport {
        let fp = Fingerprint::of_lazy_pair(a, b);
        self.cache.get_or_compute(fp, target, || self.inner.execute_lazy(a, b, target))
    }

    /// [`SimOracle::execute_lazy`] across all four designs, in order,
    /// fingerprinting once for the whole sweep.
    pub fn execute_all_lazy(&self, a: &LazyMatrix, b: LazyOperand<'_>) -> Vec<SimReport> {
        let fp = Fingerprint::of_lazy_pair(a, b);
        (0..self.targets())
            .map(|t| self.cache.get_or_compute(fp, t, || self.inner.execute_lazy(a, b, t)))
            .collect()
    }

    /// Memoized [`FpgaSim::execute_slab`]: the out-of-core oracle entry.
    /// The cache key ([`Fingerprint::of_slab_pair`]) reads A's digest
    /// from the slab header in O(1) and equals the owned pair's key, so
    /// a matrix simulated from memory is a cache hit when later opened
    /// from disk — and vice versa.
    pub fn execute_slab(&self, a: &SlabMatrix, b: Operand<'_>, target: usize) -> SimReport {
        let fp = Fingerprint::of_slab_pair(a, b);
        self.cache.get_or_compute(fp, target, || self.inner.execute_slab(a, b, target))
    }

    /// [`SimOracle::execute_slab`] across all four designs, in order,
    /// fingerprinting once for the whole sweep.
    pub fn execute_all_slab(&self, a: &SlabMatrix, b: Operand<'_>) -> Vec<SimReport> {
        let fp = Fingerprint::of_slab_pair(a, b);
        (0..self.targets())
            .map(|t| self.cache.get_or_compute(fp, t, || self.inner.execute_slab(a, b, t)))
            .collect()
    }
}

/// The process-wide FPGA simulation oracle.
///
/// Every site whose pairs recur (workload sweeps, routing, streaming,
/// served simulations, the learner) routes through this instance, so a
/// (matrix, design) pair is cycle-simulated exactly once while
/// resident, no matter how many layers revisit it. The cache holds
/// [`crate::cache::DEFAULT_CAPACITY`] reports.
pub fn global() -> &'static SimOracle<FpgaSim> {
    static GLOBAL: OnceLock<SimOracle<FpgaSim>> = OnceLock::new();
    GLOBAL.get_or_init(|| SimOracle::new(FpgaSim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use misam_sim::{simulate, DesignId};
    use misam_sparse::{gen, CsrMatrix};

    #[test]
    fn oracle_matches_inner_and_caches() {
        let a = gen::power_law(128, 128, 4.0, 1.4, 11);
        let b = gen::power_law(128, 96, 4.0, 1.4, 12);
        let oracle = SimOracle::new(FpgaSim);

        let first = oracle.execute_all(&a, Operand::Sparse(&b));
        for (i, id) in DesignId::ALL.iter().enumerate() {
            assert_eq!(first[i], simulate(&a, Operand::Sparse(&b), *id));
        }
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 4, 4));

        let second = oracle.execute_all(&a, Operand::Sparse(&b));
        assert_eq!(first, second);
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.entries), (4, 4, 4));
    }

    #[test]
    fn clear_forgets_reports() {
        let a = gen::uniform_random(64, 64, 0.1, 5);
        let oracle = SimOracle::new(FpgaSim);
        oracle.execute(&a, Operand::Dense { rows: 64, cols: 32 }, 0);
        oracle.clear();
        assert_eq!(oracle.stats(), CacheStats::default());
        oracle.execute(&a, Operand::Dense { rows: 64, cols: 32 }, 0);
        assert_eq!(oracle.stats().misses, 1);
    }

    #[test]
    fn parallel_sweep_simulates_each_pair_once() {
        // The tentpole invariant: fan the same suite out across threads
        // twice; every (fingerprint, design) still computes only once.
        let suite: Vec<(CsrMatrix, CsrMatrix)> = (0..6)
            .map(|s| {
                (gen::power_law(96, 96, 3.0, 1.4, s), gen::power_law(96, 64, 3.0, 1.4, 100 + s))
            })
            .collect();
        let oracle = SimOracle::new(FpgaSim);

        let round1 =
            pool::par_map_with(&suite, 4, |(a, b)| oracle.execute_all(a, Operand::Sparse(b)));
        let round2 =
            pool::par_map_with(&suite, 4, |(a, b)| oracle.execute_all(a, Operand::Sparse(b)));

        assert_eq!(round1, round2);
        let s = oracle.stats();
        assert_eq!(s.misses, 6 * 4, "each (pair, design) simulated exactly once");
        assert_eq!(s.entries, 6 * 4);
        assert_eq!(s.hits, 6 * 4, "second round fully cached");
    }

    #[test]
    fn lazy_oracle_matches_eager_and_never_materializes() {
        use misam_sparse::gen;
        let a = gen::power_law_lazy(200, 200, 4.0, 1.4, 31);
        let bm = gen::power_law_lazy(200, 150, 4.0, 1.4, 32);
        let oracle = SimOracle::new(FpgaSim);

        let lazy_sparse = oracle.execute_all_lazy(&a, LazyOperand::Sparse(&bm));
        let lazy_dense = oracle.execute_all_lazy(&a, LazyOperand::Dense { rows: 200, cols: 64 });
        // Asked of the operands themselves: the process-wide counters
        // also move with sibling tests' eager generators.
        assert!(
            !a.is_materialized() && !bm.is_materialized(),
            "structural labeling must not materialize CSRs"
        );

        // Bit-identical to the eager element-walk path on the
        // materialized pair (and to a fresh oracle's eager answers).
        let eager = SimOracle::new(FpgaSim);
        assert_eq!(
            lazy_sparse,
            eager.execute_all(a.materialize(), Operand::Sparse(bm.materialize()))
        );
        assert_eq!(
            lazy_dense,
            eager.execute_all(a.materialize(), Operand::Dense { rows: 200, cols: 64 })
        );

        // Second lazy sweep is fully cached.
        let hits_before = oracle.stats().hits;
        let again = oracle.execute_all_lazy(&a, LazyOperand::Sparse(&bm));
        assert_eq!(again, lazy_sparse);
        assert_eq!(oracle.stats().hits, hits_before + 4);
    }

    #[test]
    fn slab_oracle_matches_owned_and_shares_cache_entries() {
        let a = gen::power_law(144, 144, 4.0, 1.4, 21);
        let dir = std::env::temp_dir().join(format!("misam_oracle_service_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.msab");
        misam_sparse::slab::write_slab(&path, &a).unwrap();
        let slab = SlabMatrix::open(&path).unwrap();

        let oracle = SimOracle::new(FpgaSim);
        let b = Operand::Dense { rows: 144, cols: 64 };
        let from_slab = oracle.execute_all_slab(&slab, b);
        // Bit-identical to the owned path, and the owned sweep is a
        // full cache hit: slab and owned keys coincide.
        let from_owned = oracle.execute_all(&a, b);
        assert_eq!(from_slab, from_owned);
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.entries), (4, 4, 4));
        assert_eq!(oracle.execute_slab(&slab, b, 2), from_slab[2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn global_oracle_is_one_instance() {
        let p1: *const _ = global();
        let p2: *const _ = global();
        assert_eq!(p1, p2);
        assert_eq!(global().targets(), DesignId::ALL.len());
    }
}
