//! Integration of the execution-oracle layer with the corpus and
//! streaming paths: parallel fan-out must be invisible in the results,
//! and the memo cache must make every (operand pair, design) cost
//! exactly one simulation.

use misam::dataset::Dataset;
use misam_oracle::cache::DEFAULT_CAPACITY;
use misam_oracle::{pool, Executor, FpgaSim, SimOracle};
use misam_recon::cost::ReconfigCost;
use misam_recon::engine::ReconfigEngine;
use misam_recon::stream::{self, StreamConfig};
use misam_sim::{DesignId, Operand};
use misam_sparse::{gen, CsrMatrix};

#[test]
fn corpus_is_identical_at_any_thread_count() {
    let serial = Dataset::generate_with_threads(60, 31, 1);
    for threads in [2, 4, 16] {
        assert_eq!(serial, Dataset::generate_with_threads(60, 31, threads));
    }
}

/// FNV-1a over the bits of every sample's features, times and energies.
fn corpus_digest(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &ds.samples {
        for v in s.features.iter().chain(&s.times_s).chain(&s.energies_j) {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn corpus_digests_are_identical_at_any_cache_capacity() {
    // The cache is a memo, never an input: evicting (and recomputing)
    // reports must not move one bit of the corpus. The profile store
    // under the executor keeps its default capacity throughout.
    let digest_at = |capacity: usize| {
        let oracle = SimOracle::with_capacity(FpgaSim, capacity);
        let ds = Dataset::generate_with_threads_via(80, 47, 2, &oracle);
        (corpus_digest(&ds), oracle.stats())
    };
    let (unbounded, stats) = digest_at(usize::MAX);
    assert_eq!(stats.evictions, 0);
    for capacity in [1, 7, DEFAULT_CAPACITY] {
        let (digest, stats) = digest_at(capacity);
        assert_eq!(digest, unbounded, "corpus moved at capacity {capacity}");
        assert!(stats.entries <= capacity, "{} resident over {capacity}", stats.entries);
        if capacity < 80 * 4 {
            assert!(stats.evictions > 0, "capacity {capacity} never evicted");
        }
    }
}

#[test]
fn oracle_simulates_each_pair_design_exactly_once() {
    // A local oracle (not the process-wide one) so the counters are
    // isolated from whatever other tests in this binary simulate.
    let suite: Vec<(CsrMatrix, CsrMatrix)> = (0..10)
        .map(|s| (gen::power_law(128, 128, 4.0, 1.4, s), gen::power_law(128, 96, 4.0, 1.4, 50 + s)))
        .collect();
    let oracle = SimOracle::new(FpgaSim);

    let first = pool::par_map_with(&suite, 4, |(a, b)| oracle.execute_all(a, Operand::Sparse(b)));
    let stats = oracle.stats();
    assert_eq!(stats.misses, 10 * 4, "one simulation per (pair, design)");
    assert_eq!(stats.hits, 0);

    // A second full sweep — from multiple threads — adds zero misses.
    let second = pool::par_map_with(&suite, 4, |(a, b)| oracle.execute_all(a, Operand::Sparse(b)));
    let stats = oracle.stats();
    assert_eq!(stats.misses, 10 * 4);
    assert_eq!(stats.hits, 10 * 4);
    assert_eq!(first, second);
}

#[test]
fn memoized_streaming_matches_the_raw_simulator() {
    let a = gen::uniform_random(900, 256, 0.02, 9);
    let b = Operand::Dense { rows: 256, cols: 64 };
    let cfg =
        StreamConfig { tile_min_rows: 150, tile_max_rows: 350, seed: 5, ..Default::default() };
    let flat = |_: &misam_features::PairFeatures, _: DesignId| 1.0;

    let mut raw_engine = ReconfigEngine::new(flat, ReconfigCost::zero(), 0.2);
    raw_engine.force_load(DesignId::D2);
    let raw = stream::run(&a, b, &cfg, &FpgaSim, &mut raw_engine, |_| DesignId::D2);

    let oracle = SimOracle::new(FpgaSim);
    let mut memo_engine = ReconfigEngine::new(flat, ReconfigCost::zero(), 0.2);
    memo_engine.force_load(DesignId::D2);
    let memo = stream::run(&a, b, &cfg, &oracle, &mut memo_engine, |_| DesignId::D2);

    assert_eq!(raw, memo, "memoization must not change streamed results");
    assert_eq!(oracle.stats().misses as usize, memo.tiles.len());
}
