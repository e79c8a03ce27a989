//! Micro-batching of predict requests, shardable per core.
//!
//! Connections funnel their feature vectors into a bounded queue; a
//! dedicated batcher thread per shard gathers them into batches and
//! flushes when either `batch_max` vectors have accumulated or
//! `batch_wait_us` has elapsed since the batch opened
//! (size-or-deadline, the classic serving trade between throughput and
//! tail latency). One flush takes one model snapshot for the whole
//! batch and predicts each group columnarly over the bundle's packed
//! node arenas ([`crate::state::predict_batch`]), so inference amortizes the
//! bundle lock and stays cache-warm across items.
//!
//! Admission is bounded by one CAS slot-reservation counter shared by
//! every shard ([`ShardedBatcher`]): a group reserves all its slots or
//! is refused outright (never split), so overload sheds with a typed
//! reply instead of growing queues without limit — exactly the
//! single-batcher admission contract, kept while flushes run in
//! parallel across shards.
//!
//! Delivery is either a reply channel (the blocking server's handler
//! threads park on it) or a completion callback (the event-driven
//! reactors hand in a closure that posts to their mailbox and wakes
//! their poller — [`MicroBatcher::try_submit_callback`]). Callback
//! groups are *eager*: the reactor already coalesced everything its
//! poll iteration produced, so the flush happens as soon as the queue
//! runs dry instead of holding sub-batch traffic for the deadline.
//!
//! Shutdown is a drain: dropping the producer side lets each batcher
//! finish every accepted group before its thread exits, which is what
//! makes the server's graceful shutdown lose nothing in flight.

use crate::protocol::BatchShardStats;
use crate::state::{predict_batch, PredictOutcome, SharedModel};
use crate::tap::LearnTap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush once this many feature vectors are in the open batch.
    pub batch_max: usize,
    /// Flush an underfull batch after this many microseconds.
    pub batch_wait_us: u64,
    /// Admission bound: vectors waiting across all queued groups.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_max: 64, batch_wait_us: 200, queue_cap: 4096 }
    }
}

/// Counters the batcher maintains for the metrics registry.
#[derive(Debug, Default)]
pub struct BatchCounters {
    /// Batches flushed.
    pub batches: AtomicU64,
    /// Vectors predicted.
    pub items: AtomicU64,
    /// Largest batch flushed.
    pub max_batch: AtomicU64,
    /// Flushes triggered by the deadline rather than the size bound.
    pub deadline_flushes: AtomicU64,
    /// Vectors admitted by this shard's slot reservation.
    pub admitted: AtomicU64,
    /// Vectors refused because the shared cap was reached when this
    /// shard tried to reserve.
    pub shed: AtomicU64,
}

/// How a flushed group's outcomes get back to the submitter.
enum Reply {
    /// A blocking handler thread parks on the receiving end.
    Channel(crossbeam::channel::Sender<Vec<PredictOutcome>>),
    /// An event-driven submitter gets called with the outcomes on the
    /// batcher thread (it posts to a mailbox and wakes a poller).
    Callback(Box<dyn FnOnce(Vec<PredictOutcome>) + Send>),
}

/// A group of feature vectors submitted together (a `Batch` request, or
/// a single `Predict` as a group of one).
struct Group {
    vectors: Vec<Vec<f64>>,
    reply: Reply,
    /// Flush as soon as the queue runs dry instead of waiting out the
    /// deadline — set by reactor submissions, which already coalesce a
    /// poll iteration's worth of traffic.
    eager: bool,
}

/// Error returned by [`MicroBatcher::try_submit`] when admission is
/// refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured vector capacity.
    pub capacity: usize,
}

/// The shared micro-batching front of the predict path.
#[derive(Debug)]
pub struct MicroBatcher {
    tx: parking_lot::Mutex<Option<crossbeam::channel::Sender<Group>>>,
    thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
    depth: Arc<AtomicUsize>,
    counters: Arc<BatchCounters>,
    cfg: BatchConfig,
}

impl MicroBatcher {
    /// Spawns the batcher thread over `model` with its own admission
    /// counter.
    pub fn new(model: Arc<SharedModel>, cfg: BatchConfig) -> Self {
        Self::with_depth(model, cfg, Arc::new(AtomicUsize::new(0)), 0, None)
    }

    /// Spawns the batcher thread over `model`, reserving admission
    /// slots from `depth` — shared across every shard of a
    /// [`ShardedBatcher`], so `queue_cap` bounds the server, not each
    /// shard. With a `tap`, every flushed prediction is offered to the
    /// learner's sampler after its outcomes are computed.
    pub fn with_depth(
        model: Arc<SharedModel>,
        cfg: BatchConfig,
        depth: Arc<AtomicUsize>,
        shard: usize,
        tap: Option<Arc<LearnTap>>,
    ) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded::<Group>();
        let counters = Arc::new(BatchCounters::default());
        let thread = {
            let depth = Arc::clone(&depth);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name(format!("misam-batcher-{shard}"))
                .spawn(move || run(rx, model, cfg, depth, counters, tap))
                .expect("spawn batcher thread")
        };
        MicroBatcher {
            tx: parking_lot::Mutex::new(Some(tx)),
            thread: parking_lot::Mutex::new(Some(thread)),
            depth,
            counters,
            cfg,
        }
    }

    /// Reserves `want` admission slots with a CAS loop — a group is
    /// admitted or shed atomically, never split. Admission and shed
    /// counts land on this shard's counters either way.
    fn reserve(&self, want: usize) -> Result<(), QueueFull> {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur + want > self.cfg.queue_cap {
                self.counters.shed.fetch_add(want as u64, Ordering::Relaxed);
                return Err(QueueFull { capacity: self.cfg.queue_cap });
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + want,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.counters.admitted.fetch_add(want as u64, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn enqueue(&self, group: Group, want: usize) -> Result<(), QueueFull> {
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else {
            self.depth.fetch_sub(want, Ordering::Relaxed);
            return Err(QueueFull { capacity: self.cfg.queue_cap });
        };
        if tx.send(group).is_err() {
            self.depth.fetch_sub(want, Ordering::Relaxed);
            return Err(QueueFull { capacity: self.cfg.queue_cap });
        }
        Ok(())
    }

    /// Submits a group of feature vectors; the returned channel yields
    /// exactly one message with the outcomes in input order.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the group does not fit under
    /// `queue_cap` (or the batcher is shutting down); nothing is queued.
    pub fn try_submit(
        &self,
        vectors: Vec<Vec<f64>>,
    ) -> Result<crossbeam::channel::Receiver<Vec<PredictOutcome>>, QueueFull> {
        let want = vectors.len();
        self.reserve(want)?;
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        self.enqueue(Group { vectors, reply: Reply::Channel(reply_tx), eager: false }, want)?;
        Ok(reply_rx)
    }

    /// Submits a group whose outcomes are delivered by calling
    /// `complete` on the batcher thread (the event-driven path: the
    /// closure posts to a reactor mailbox and wakes its poller).
    /// Callback groups flush eagerly — the submitter already coalesced
    /// a poll iteration's worth of traffic, so nothing is gained by
    /// holding the batch for the deadline.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] exactly like [`MicroBatcher::try_submit`];
    /// on error `complete` is never called.
    pub fn try_submit_callback(
        &self,
        vectors: Vec<Vec<f64>>,
        complete: Box<dyn FnOnce(Vec<PredictOutcome>) + Send>,
    ) -> Result<(), QueueFull> {
        let want = vectors.len();
        self.reserve(want)?;
        self.enqueue(Group { vectors, reply: Reply::Callback(complete), eager: true }, want)
    }

    /// Feature vectors currently waiting.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The batcher's flush counters.
    pub fn counters(&self) -> &BatchCounters {
        &self.counters
    }

    /// The configuration the batcher runs with.
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Closes the queue, drains every accepted group, and joins the
    /// batcher thread. Safe to call more than once.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        if let Some(t) = self.thread.lock().take() {
            t.join().expect("batcher thread panicked");
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(
    rx: crossbeam::channel::Receiver<Group>,
    model: Arc<SharedModel>,
    cfg: BatchConfig,
    depth: Arc<AtomicUsize>,
    counters: Arc<BatchCounters>,
    tap: Option<Arc<LearnTap>>,
) {
    let wait = Duration::from_micros(cfg.batch_wait_us);
    // Park briefly between polls while a batch is open; short enough to
    // hold sub-millisecond deadlines, long enough not to burn a core.
    let poll = Duration::from_micros(20).min(wait.max(Duration::from_micros(1)));
    loop {
        // Block for the first group of a batch (idle server costs nothing).
        let first = match rx.recv() {
            Ok(g) => g,
            Err(_) => return, // producers gone and queue drained
        };
        let deadline = Instant::now() + wait;
        let mut items = first.vectors.len();
        let mut eager = first.eager;
        let mut groups = vec![first];
        while items < cfg.batch_max {
            match rx.try_recv() {
                Some(g) => {
                    items += g.vectors.len();
                    eager |= g.eager;
                    groups.push(g);
                }
                None => {
                    // An eager batch flushes the moment the queue runs
                    // dry: the natural batch is whatever accumulated
                    // while the previous flush ran.
                    if eager {
                        break;
                    }
                    if Instant::now() >= deadline {
                        counters.deadline_flushes.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(poll);
                }
            }
        }

        // One model snapshot per flush: the whole batch is predicted
        // against a consistent bundle even mid-reload. Each group runs
        // through the columnar frontier walk, one matrix per group.
        let prepared = model.snapshot();
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters.items.fetch_add(items as u64, Ordering::Relaxed);
        counters.max_batch.fetch_max(items as u64, Ordering::Relaxed);
        for group in groups {
            let n = group.vectors.len();
            let outs: Vec<PredictOutcome> = predict_batch(&prepared, &group.vectors);
            // The learner tap rides the batcher thread, after inference
            // and before the reply — never on a connection's hot path.
            // Bare vectors carry no generator provenance (spec: None).
            if let Some(tap) = &tap {
                for (v, out) in group.vectors.iter().zip(&outs) {
                    tap.offer(v, out.predicted, None);
                }
            }
            depth.fetch_sub(n, Ordering::Relaxed);
            match group.reply {
                // A vanished requester (dropped connection) is not an
                // error.
                Reply::Channel(tx) => {
                    let _ = tx.send(outs);
                }
                Reply::Callback(complete) => complete(outs),
            }
        }
    }
}

/// Per-core batcher shards behind one shared admission counter.
///
/// Each shard owns a flush thread, so flushes run in parallel across
/// cores; the CAS slot reservation they all draw from keeps the
/// original contract — at most `queue_cap` vectors queued server-wide,
/// groups admitted all-or-nothing. The blocking server is the
/// one-shard special case.
#[derive(Debug)]
pub struct ShardedBatcher {
    shards: Vec<MicroBatcher>,
    depth: Arc<AtomicUsize>,
    next: AtomicUsize,
}

impl ShardedBatcher {
    /// Spawns `shards` batcher threads (at least one) over `model`.
    pub fn new(model: &Arc<SharedModel>, cfg: BatchConfig, shards: usize) -> Self {
        Self::with_tap(model, cfg, shards, None)
    }

    /// Like [`ShardedBatcher::new`], with an optional learner tap every
    /// shard offers its flushed predictions to.
    pub fn with_tap(
        model: &Arc<SharedModel>,
        cfg: BatchConfig,
        shards: usize,
        tap: Option<Arc<LearnTap>>,
    ) -> Self {
        let depth = Arc::new(AtomicUsize::new(0));
        let shards = (0..shards.max(1))
            .map(|i| {
                MicroBatcher::with_depth(Arc::clone(model), cfg, Arc::clone(&depth), i, tap.clone())
            })
            .collect();
        ShardedBatcher { shards, depth, next: AtomicUsize::new(0) }
    }

    /// Submits through a round-robin-chosen shard (the blocking path;
    /// reactors pin themselves to [`ShardedBatcher::shard`] instead).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the shared admission bound refuses
    /// the group.
    pub fn try_submit(
        &self,
        vectors: Vec<Vec<f64>>,
    ) -> Result<crossbeam::channel::Receiver<Vec<PredictOutcome>>, QueueFull> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].try_submit(vectors)
    }

    /// The shard pinned to reactor `i` (wraps around).
    pub fn shard(&self, i: usize) -> &MicroBatcher {
        &self.shards[i % self.shards.len()]
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Feature vectors currently waiting across all shards (the shared
    /// admission counter).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Flush counters folded across shards: `(batches, items,
    /// max_batch)`.
    pub fn folded_counters(&self) -> (u64, u64, u64) {
        let mut batches = 0;
        let mut items = 0;
        let mut max_batch = 0;
        for s in &self.shards {
            batches += s.counters().batches.load(Ordering::Relaxed);
            items += s.counters().items.load(Ordering::Relaxed);
            max_batch = max_batch.max(s.counters().max_batch.load(Ordering::Relaxed));
        }
        (batches, items, max_batch)
    }

    /// Every shard's counters, unfolded — the fold above keeps the
    /// aggregate fields, this keeps per-shard admission visible (a
    /// wedged or hot shard can't hide in a sum).
    pub fn shard_counters(&self) -> Vec<BatchShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let c = s.counters();
                BatchShardStats {
                    shard,
                    batches: c.batches.load(Ordering::Relaxed),
                    items: c.items.load(Ordering::Relaxed),
                    admitted: c.admitted.load(Ordering::Relaxed),
                    shed: c.shed.load(Ordering::Relaxed),
                    deadline_flushes: c.deadline_flushes.load(Ordering::Relaxed),
                    max_batch: c.max_batch.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Closes every shard queue, drains accepted groups, and joins the
    /// flush threads. Safe to call more than once.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::predict_vector;
    use crate::state::tests::{test_bundle, test_prepared};
    use misam_features::FEATURE_NAMES;

    fn batcher(cfg: BatchConfig) -> MicroBatcher {
        MicroBatcher::new(Arc::new(SharedModel::new(test_bundle().clone())), cfg)
    }

    fn vector(x: f64) -> Vec<f64> {
        vec![x; FEATURE_NAMES.len()]
    }

    #[test]
    fn batched_predictions_match_direct_inference() {
        let b = batcher(BatchConfig { batch_max: 8, batch_wait_us: 100, queue_cap: 64 });
        let vs: Vec<Vec<f64>> = (0..5).map(|i| vector(i as f64 * 0.3)).collect();
        let rx = b.try_submit(vs.clone()).unwrap();
        let outs = rx.recv().unwrap();
        assert_eq!(outs.len(), 5);
        for (v, out) in vs.iter().zip(&outs) {
            assert_eq!(*out, predict_vector(test_prepared(), v));
        }
        assert_eq!(b.counters().items.load(Ordering::Relaxed), 5);
        assert_eq!(b.queue_depth(), 0);
    }

    #[test]
    fn admission_is_all_or_nothing() {
        // Deadline far out and batch_max high: the queue holds whatever
        // we admit until the flush, so the bound is observable.
        let b = batcher(BatchConfig { batch_max: 1024, batch_wait_us: 500_000, queue_cap: 10 });
        let _rx1 = b.try_submit((0..6).map(|_| vector(0.1)).collect::<Vec<_>>()).unwrap();
        let err = b.try_submit((0..6).map(|_| vector(0.2)).collect::<Vec<_>>()).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 10 });
        // A smaller group still fits.
        let _rx2 = b.try_submit(vec![vector(0.3)]).unwrap();
        assert!(b.queue_depth() <= 10);
    }

    #[test]
    fn shutdown_drains_accepted_groups() {
        let b = batcher(BatchConfig { batch_max: 4096, batch_wait_us: 200_000, queue_cap: 4096 });
        let receivers: Vec<_> =
            (0..16).map(|i| b.try_submit(vec![vector(i as f64)]).unwrap()).collect();
        b.shutdown();
        for rx in receivers {
            assert_eq!(rx.recv().unwrap().len(), 1, "shutdown must drain, not abort");
        }
        assert!(b.try_submit(vec![vector(1.0)]).is_err(), "closed batcher refuses work");
    }

    #[test]
    fn deadline_flushes_underfull_batches() {
        let b = batcher(BatchConfig { batch_max: 1_000_000, batch_wait_us: 300, queue_cap: 64 });
        let rx = b.try_submit(vec![vector(0.7)]).unwrap();
        let out = rx.recv().unwrap();
        assert_eq!(out.len(), 1);
        assert!(b.counters().deadline_flushes.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn callback_groups_flush_eagerly_and_match_direct_inference() {
        // A deadline far beyond the test timeout: only the eager path
        // can flush this in time.
        let b = batcher(BatchConfig { batch_max: 4096, batch_wait_us: 60_000_000, queue_cap: 64 });
        let (tx, rx) = crossbeam::channel::unbounded();
        let vs: Vec<Vec<f64>> = (0..3).map(|i| vector(i as f64 * 0.4)).collect();
        b.try_submit_callback(vs.clone(), {
            let tx = tx.clone();
            Box::new(move |outs| {
                let _ = tx.send(outs);
            })
        })
        .unwrap();
        let outs = rx.recv().unwrap();
        assert_eq!(outs.len(), 3);
        for (v, out) in vs.iter().zip(&outs) {
            assert_eq!(*out, predict_vector(test_prepared(), v));
        }
        assert_eq!(b.queue_depth(), 0);
    }

    #[test]
    fn sharded_admission_is_bounded_across_shards() {
        let model = Arc::new(SharedModel::new(test_bundle().clone()));
        let cfg = BatchConfig { batch_max: 1024, batch_wait_us: 500_000, queue_cap: 10 };
        let sb = ShardedBatcher::new(&model, cfg, 3);
        assert_eq!(sb.shards(), 3);
        // Fill most of the shared cap through different shards.
        let _rx1 = sb.shard(0).try_submit((0..4).map(|_| vector(0.1)).collect::<Vec<_>>()).unwrap();
        let _rx2 = sb.shard(1).try_submit((0..4).map(|_| vector(0.2)).collect::<Vec<_>>()).unwrap();
        // The bound is global: shard 2 sees the 8 slots already taken.
        let err = sb.shard(2).try_submit((0..6).map(|_| vector(0.3)).collect::<Vec<_>>());
        assert_eq!(err.unwrap_err(), QueueFull { capacity: 10 });
        assert!(sb.queue_depth() <= 10);
        sb.shutdown();
        let (batches, items, max_batch) = sb.folded_counters();
        assert!(batches >= 1, "shutdown drains accepted groups");
        assert_eq!(items, 8);
        assert!(max_batch >= 4);
        // Admission counters stay attributed to the shard that took the
        // decision, not folded away.
        let per_shard = sb.shard_counters();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(per_shard[0].admitted, 4);
        assert_eq!(per_shard[1].admitted, 4);
        assert_eq!(per_shard[2].admitted, 0);
        assert_eq!(per_shard[2].shed, 6, "the refused group lands on shard 2's shed count");
        assert_eq!(per_shard[0].shed + per_shard[1].shed, 0);
    }

    #[test]
    fn tapped_batcher_offers_flushed_predictions() {
        let model = Arc::new(SharedModel::new(test_bundle().clone()));
        let tap = Arc::new(crate::tap::LearnTap::new(1, 64));
        let cfg = BatchConfig { batch_max: 8, batch_wait_us: 100, queue_cap: 64 };
        let sb = ShardedBatcher::with_tap(&model, cfg, 2, Some(Arc::clone(&tap)));
        let vs: Vec<Vec<f64>> = (0..5).map(|i| vector(i as f64 * 0.3)).collect();
        let rx = sb.try_submit(vs.clone()).unwrap();
        let outs = rx.recv().unwrap();
        assert_eq!(outs.len(), 5);
        sb.shutdown();
        assert_eq!(tap.queue_depth(), 5, "every flushed vector was offered and sampled");
        let sample = tap.try_pop().unwrap();
        assert_eq!(sample.features, vs[0]);
        assert_eq!(sample.predicted, outs[0].predicted);
        assert!(sample.spec.is_none(), "bare vectors carry no generator provenance");
    }
}
