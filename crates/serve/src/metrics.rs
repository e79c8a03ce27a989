//! Lock-free serving metrics: request/shed/error counters, per-endpoint
//! latency histograms, and queue-depth gauges.
//!
//! Every hot-path update is a relaxed atomic increment — no locks, so
//! recording a latency costs nanoseconds and never serializes worker
//! threads. Histograms are log-bucketed (octaves split into four linear
//! sub-buckets, ≤ ~25% quantile error) which keeps them fixed-size and
//! mergeable; the [`StatsReply`] snapshot is what the `Stats` endpoint
//! returns and what the server dumps on graceful shutdown.

use crate::protocol::{BatchShardStats, EndpointStats, LearnStatsReply, StatsReply};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Point-in-time values the registry does not own — queue depths, batch
/// counters (folded and per shard), and the learner scoreboard all live
/// with their queues/threads; the caller samples them and hands them to
/// [`MetricsShards::fold_snapshot`] in one struct instead of a growing
/// positional argument list.
#[derive(Debug, Default)]
pub struct Gauges {
    /// Feature vectors waiting in the micro-batch queues.
    pub batch_queue_depth: u64,
    /// Jobs waiting in the simulation worker pool.
    pub pool_queue_depth: u64,
    /// Worker-pool jobs that panicked (each contained and answered).
    pub pool_panics: u64,
    /// Micro-batches flushed (folded across shards).
    pub batches_flushed: u64,
    /// Feature vectors predicted through the batcher (folded).
    pub batched_items: u64,
    /// Largest single micro-batch flushed (max across shards).
    pub max_batch: u64,
    /// Per-shard batcher admission counters.
    pub batch_shards: Vec<BatchShardStats>,
    /// Online-learning scoreboard (default/disabled without `--learn`).
    pub learn: LearnStatsReply,
}

/// The endpoints tracked individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Single feature-vector predictions.
    Predict = 0,
    /// Generator-spec predictions.
    PredictGen = 1,
    /// Batched predictions.
    Batch = 2,
    /// Cycle simulations.
    Simulate = 3,
    /// Metrics snapshots.
    Stats = 4,
    /// Bundle reloads.
    Reload = 5,
    /// Shutdown requests.
    Shutdown = 6,
}

/// Endpoint names in [`Endpoint`] discriminant order.
pub const ENDPOINT_NAMES: [&str; 7] =
    ["predict", "predict_gen", "batch", "simulate", "stats", "reload", "shutdown"];

const BUCKETS: usize = 256;

/// A fixed-size log-bucketed latency histogram over nanoseconds.
///
/// Bucket index = 4·⌊log2 ns⌋ + 2-bit linear sub-bucket, so adjacent
/// bucket bounds differ by ≤ 25% — enough resolution for p50/p95/p99
/// reporting without per-sample allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    if ns < 4 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as u64;
    let sub = (ns >> (octave - 2)) & 3;
    ((octave * 4 + sub) as usize).min(BUCKETS - 1)
}

/// Upper bound (ns) of the values mapping to `idx`.
fn bucket_upper_ns(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let octave = (idx / 4) as u64;
    let sub = (idx % 4) as u64 + 1;
    // Buckets partition [2^octave, 2^(octave+1)) into 4 linear slices.
    (1u64 << octave) + (sub << octave.saturating_sub(2)).min(1u64 << octave)
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e3
    }

    /// Approximate `q`-quantile (`0 < q <= 1`) in microseconds, from the
    /// bucket upper bound (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_ns(idx) as f64 / 1e3;
            }
        }
        bucket_upper_ns(BUCKETS - 1) as f64 / 1e3
    }
}

/// The server's metrics registry; one instance shared by every
/// connection and worker.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    requests: [AtomicU64; 7],
    latency: [Histogram; 7],
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    reloads: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            requests: Default::default(),
            latency: Default::default(),
            connections_total: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with the uptime clock started now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one answered request and its handling latency.
    pub fn record(&self, ep: Endpoint, ns: u64) {
        self.requests[ep as usize].fetch_add(1, Ordering::Relaxed);
        self.latency[ep as usize].record(ns);
    }

    /// Counts a connection being accepted.
    pub fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection closing.
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one request shed by admission control.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total sheds so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Counts one error reply.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successful bundle hot-reload.
    pub fn reloaded(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests answered on `ep` so far.
    pub fn requests(&self, ep: Endpoint) -> u64 {
        self.requests[ep as usize].load(Ordering::Relaxed)
    }
}

/// Per-shard metrics: each reactor thread records into its own
/// [`MetricsRegistry`] (no cross-core cacheline traffic on the hot path)
/// and the `Stats` endpoint folds every shard into one [`StatsReply`] at
/// snapshot time — counters are summed and latency histograms merged
/// bucket-by-bucket, which log-bucketed histograms support exactly.
/// This fold is the only way to a [`StatsReply`].
#[derive(Debug, Clone)]
pub struct MetricsShards {
    shards: Vec<Arc<MetricsRegistry>>,
}

impl MetricsShards {
    /// Creates `n` independent shards (at least one).
    pub fn new(n: usize) -> Self {
        MetricsShards { shards: (0..n.max(1)).map(|_| Arc::new(MetricsRegistry::new())).collect() }
    }

    /// The shard for reactor/worker `i` (wraps around, so any index is
    /// safe).
    pub fn shard(&self, i: usize) -> &Arc<MetricsRegistry> {
        &self.shards[i % self.shards.len()]
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always false — there is at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total sheds across all shards.
    pub fn shed_total(&self) -> u64 {
        self.shards.iter().map(|s| s.shed.load(Ordering::Relaxed)).sum()
    }

    /// Folds every shard into one snapshot; the [`Gauges`] carry values
    /// sampled by the caller (they live with the queues, not here).
    pub fn fold_snapshot(&self, gauges: Gauges) -> StatsReply {
        let sum = |f: &dyn Fn(&MetricsRegistry) -> &AtomicU64| -> u64 {
            self.shards.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
        };
        let endpoints = ENDPOINT_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut buckets = [0u64; BUCKETS];
                let mut count = 0u64;
                let mut sum_ns = 0u64;
                for s in &self.shards {
                    let h = &s.latency[i];
                    for (acc, b) in buckets.iter_mut().zip(&h.buckets) {
                        *acc += b.load(Ordering::Relaxed);
                    }
                    count += h.count.load(Ordering::Relaxed);
                    sum_ns += h.sum_ns.load(Ordering::Relaxed);
                }
                EndpointStats {
                    endpoint: (*name).to_string(),
                    requests: sum(&|s| &s.requests[i]),
                    mean_us: if count == 0 { 0.0 } else { sum_ns as f64 / count as f64 / 1e3 },
                    p50_us: quantile_from_buckets(&buckets, count, 0.50),
                    p95_us: quantile_from_buckets(&buckets, count, 0.95),
                    p99_us: quantile_from_buckets(&buckets, count, 0.99),
                }
            })
            .collect();
        StatsReply {
            // Shards are created together at server start; the first
            // one's clock is the server's uptime.
            uptime_s: self.shards[0].started.elapsed().as_secs_f64(),
            connections_total: sum(&|s| &s.connections_total),
            connections_open: sum(&|s| &s.connections_open),
            shed: sum(&|s| &s.shed),
            errors: sum(&|s| &s.errors),
            reloads: sum(&|s| &s.reloads),
            batch_queue_depth: gauges.batch_queue_depth,
            pool_queue_depth: gauges.pool_queue_depth,
            batches_flushed: gauges.batches_flushed,
            batched_items: gauges.batched_items,
            max_batch: gauges.max_batch,
            batch_shards: gauges.batch_shards,
            learn: gauges.learn,
            endpoints,
            pool_panics: gauges.pool_panics,
        }
    }
}

/// Quantile over a merged bucket array, same convention as
/// [`Histogram::quantile_us`].
fn quantile_from_buckets(buckets: &[u64; BUCKETS], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (idx, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_upper_ns(idx) as f64 / 1e3;
        }
    }
    bucket_upper_ns(BUCKETS - 1) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..63 {
            let ns = 1u64 << shift;
            let idx = bucket_index(ns);
            assert!(idx >= last, "bucket index must not decrease");
            assert!(idx < BUCKETS);
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert!(bucket_upper_ns(bucket_index(1000)) >= 1000);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let h = Histogram::default();
        for ns in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_us(0.5);
        // Median sample is 500 ns = 0.5 µs; log buckets answer within 25%.
        assert!((0.4..=0.7).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 100.0, "p99 {p99} must reach the outlier bucket");
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn sharded_fold_matches_a_single_registry() {
        // The same samples split across 3 shards vs recorded into one
        // registry: identical counters and quantiles after the fold.
        let shards = MetricsShards::new(3);
        let single = MetricsRegistry::new();
        let samples = [900u64, 1_800, 3_500, 7_000, 14_000, 28_000, 56_000, 112_000, 224_000];
        for (i, &ns) in samples.iter().enumerate() {
            shards.shard(i).record(Endpoint::Predict, ns);
            single.record(Endpoint::Predict, ns);
        }
        shards.shard(0).connection_opened();
        shards.shard(1).connection_opened();
        shards.shard(2).shed();
        shards.shard(1).error();

        // The bucket-merge quantile answers exactly what the single
        // registry's own histogram does.
        let folded = shards.fold_snapshot(Gauges::default());
        let f = &folded.endpoints[Endpoint::Predict as usize];
        let h = &single.latency[Endpoint::Predict as usize];
        assert_eq!(f.requests, single.requests(Endpoint::Predict));
        assert_eq!(f.p50_us, h.quantile_us(0.50));
        assert_eq!(f.p95_us, h.quantile_us(0.95));
        assert_eq!(f.p99_us, h.quantile_us(0.99));
        assert!((f.mean_us - h.mean_us()).abs() < 1e-9);
        assert_eq!(folded.connections_total, 2);
        assert_eq!(folded.connections_open, 2);
        assert_eq!(folded.shed, 1);
        assert_eq!(folded.errors, 1);
        assert_eq!(shards.shed_total(), 1);
    }

    #[test]
    fn registry_snapshot_collects_counters() {
        let shards = MetricsShards::new(1);
        let m = shards.shard(0);
        m.connection_opened();
        m.record(Endpoint::Predict, 1_000);
        m.record(Endpoint::Predict, 2_000);
        m.record(Endpoint::Stats, 500);
        m.shed();
        m.error();
        m.reloaded();
        let s = shards.fold_snapshot(Gauges {
            batch_queue_depth: 3,
            pool_queue_depth: 1,
            pool_panics: 2,
            batches_flushed: 10,
            batched_items: 40,
            max_batch: 8,
            batch_shards: vec![BatchShardStats { shard: 0, admitted: 40, ..Default::default() }],
            learn: LearnStatsReply::default(),
        });
        assert_eq!(s.connections_total, 1);
        assert_eq!(s.connections_open, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.reloads, 1);
        assert_eq!(s.batch_queue_depth, 3);
        assert_eq!(s.batch_shards.len(), 1);
        assert_eq!(s.batch_shards[0].admitted, 40);
        assert!(!s.learn.enabled, "learn defaults to disabled");
        assert_eq!(s.endpoints[Endpoint::Predict as usize].requests, 2);
        assert_eq!(s.endpoints[Endpoint::Stats as usize].requests, 1);
        m.connection_closed();
        assert_eq!(shards.fold_snapshot(Gauges::default()).connections_open, 0);
    }
}
