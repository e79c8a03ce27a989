//! The corpus label path is by value: every sample's operands carry
//! their own profiles, and labels come from the cycle sim without a
//! global cache in between. Generating a corpus — through the bare sim
//! or a tiered oracle with a fitted surrogate installed — must leave the
//! process-wide report cache and profile store untouched and build no
//! CSR.
//!
//! Own binary (own process): the counters it watches are process-wide,
//! and sibling tests would move them.

use misam::dataset::Dataset;
use misam::training;
use misam_oracle::{
    profiles, FpgaSim, RegForestParams, SimOracle, SurrogateTrainParams, TieredOracle,
};
use misam_sparse::lazy;
use std::sync::Arc;

#[test]
fn corpus_labeling_consults_no_global_cache_and_materializes_nothing() {
    let params = SurrogateTrainParams {
        forest: RegForestParams { n_trees: 4, ..Default::default() },
        ..Default::default()
    };
    let base = Dataset::generate_with_threads(60, 9001, 2);
    let model = Arc::new(training::train_surrogate(&base, &params).into_model());
    let tiered = TieredOracle::new();
    tiered.install(model);

    let (oracle, store) = (misam_oracle::global(), profiles::global());
    let (oracle_before, store_before) = (oracle.stats(), store.stats());
    let built_before = lazy::materialization_stats().materialized;

    let plain = Dataset::generate_with_threads(48, 77, 2);
    let via = Dataset::generate_with_threads_via(48, 77, 2, &tiered);

    assert_eq!(oracle.stats(), oracle_before, "the global report cache was consulted");
    assert_eq!(store.stats(), store_before, "the global profile store was consulted");
    assert_eq!(lazy::materialization_stats().materialized, built_before, "a CSR was built");
    let s = tiered.stats();
    assert_eq!(s.surrogate_pairs + s.fallback_pairs, 48);
    assert!(s.surrogate_pairs > 0 && s.fallback_pairs > 0, "both tiers answered: {s:?}");
    assert_eq!(tiered.sim().stats().lookups(), 0, "fallbacks skip the tier's report cache");

    // The by-value labels are the memoized oracle's, bit for bit, and a
    // fallback pair's label is the sim's.
    let memoized = SimOracle::new(FpgaSim);
    assert_eq!(plain, Dataset::generate_with_threads_via(48, 77, 1, &memoized));
    assert_eq!(memoized.stats().misses, 48 * 4);
    let bits = |v: &[f64; 4]| v.map(f64::to_bits);
    let exact = plain
        .samples
        .iter()
        .zip(&via.samples)
        .filter(|(p, t)| bits(&p.times_s) == bits(&t.times_s))
        .count();
    assert!(exact as u64 >= s.fallback_pairs);
    for (p, t) in plain.samples.iter().zip(&via.samples) {
        assert_eq!(p.features, t.features);
    }
}
