//! A flood of distinct `Simulate { spec }` requests against the bounded
//! process-wide report cache: three capacities' worth of distinct seeds
//! must leave the oracle cache within `DEFAULT_CAPACITY`, count every
//! entry it dropped, keep the process's resident memory flat once the
//! cache is full, and answer every request exactly as the unmemoized
//! structural executor does — including specs whose entries were
//! evicted long before they are checked. A served spec's profiles live
//! on its lazy operand, so the flood never reaches the profile store.
//!
//! This binary holds a single test: the caches are process-wide, and a
//! sibling test simulating in parallel would move their counters.

use misam::dataset::{Dataset, Objective};
use misam::persist::ModelBundle;
use misam::training;
use misam_features::TileConfig;
use misam_oracle::cache::DEFAULT_CAPACITY;
use misam_oracle::FpgaSim;
use misam_recon::cost::ReconfigCost;
use misam_serve::protocol::SimulateReply;
use misam_serve::{Client, GenSpec, Response, ServeConfig, Server};
use misam_sparse::LazyOperand;

/// Growth of resident memory allowed between the end of the first
/// capacity's worth of requests and the end of the flood: allocator
/// slack. Keeping each served operand alive (its structure and profile
/// memos, ~5 KiB at 48 × 48) would add ~10 MiB over the last 2048
/// requests; a flat run grows ~0.1 MiB.
const RSS_SLACK_KIB: u64 = 2048;

/// `VmRSS` of this process, KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS in KiB")
}

fn spec(seed: u64) -> GenSpec {
    GenSpec { kind: "uniform".into(), rows: 48, cols: 48, density: 0.08, seed, dense_cols: 16 }
}

#[test]
fn simulate_flood_stays_within_cache_capacity_and_matches_the_executor() {
    let ds = Dataset::generate(60, 56);
    let sel = training::train_selector(&ds, Objective::Latency, 1);
    let lat = training::train_latency_predictor(&ds, 1);
    let bundle = ModelBundle::new(
        sel.selector,
        lat.predictor,
        0.2,
        ReconfigCost::default(),
        TileConfig::default(),
    );
    let server = Server::start(bundle, ServeConfig::default()).expect("bind ephemeral port");
    let oracle = misam_oracle::global();
    let profiles = misam_oracle::profiles::global();
    let (oracle_before, profiles_before) = (oracle.stats(), profiles.stats());

    let flood = 3 * DEFAULT_CAPACITY as u64;
    let design = 2;
    let mut client = Client::connect(server.addr()).unwrap();
    let mut replies: Vec<SimulateReply> = Vec::with_capacity(flood as usize);
    let mut rss_full = 0;
    for seed in 0..flood {
        match client.simulate(spec(seed), design).unwrap() {
            Response::Simulate(r) => replies.push(r),
            other => panic!("seed {seed}: expected Simulate, got {other:?}"),
        }
        if seed + 1 == DEFAULT_CAPACITY as u64 {
            rss_full = rss_kib();
        }
    }
    let rss_flood = rss_kib();

    // Every seed is a distinct matrix: one oracle miss each, and the
    // cache dropped all but what it may hold.
    let o = oracle.stats();
    assert!(o.entries <= DEFAULT_CAPACITY, "oracle holds {} entries", o.entries);
    assert_eq!(o.misses - oracle_before.misses, flood, "one simulation per distinct spec");
    assert_eq!(o.evictions - oracle_before.evictions, o.misses - o.entries as u64);
    assert!(o.evictions - oracle_before.evictions >= flood - DEFAULT_CAPACITY as u64);
    assert_eq!(profiles.stats(), profiles_before, "served lazy specs never reach the store");
    assert!(
        rss_flood <= rss_full + RSS_SLACK_KIB,
        "resident memory grew from {rss_full} KiB at a full cache to {rss_flood} KiB after \
         {flood} requests"
    );

    // Replies equal the unmemoized executor, for the earliest (long
    // evicted) seeds, the latest (resident) ones, and a stride between.
    let checked: Vec<u64> = (0..8).chain((0..flood).step_by(97)).chain(flood - 8..flood).collect();
    for seed in checked {
        let s = spec(seed);
        let a = s.build().unwrap();
        let b = LazyOperand::Dense { rows: a.cols(), cols: s.dense_cols };
        let r = FpgaSim.execute_lazy(&a, b, design - 1);
        let served = &replies[seed as usize];
        assert_eq!((served.design, served.cycles, served.tiles), (r.design, r.cycles, r.tiles));
        assert_eq!(served.time_s.to_bits(), r.time_s.to_bits(), "seed {seed}");
        assert_eq!(served.energy_j.to_bits(), r.energy_j.to_bits(), "seed {seed}");
        assert_eq!(served.pe_utilization.to_bits(), r.pe_utilization.to_bits(), "seed {seed}");
    }
    // The cache stays bounded after the checks too, and the store
    // untouched.
    assert!(oracle.stats().entries <= DEFAULT_CAPACITY);
    assert_eq!(profiles.stats(), profiles_before);
    server.shutdown();
}
