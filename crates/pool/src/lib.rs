//! Deterministic scoped-thread parallel map.
//!
//! The fan-out primitive behind corpus labeling and experiment sweeps:
//! `par_map(&items, f)` applies `f` to every item on a worker pool and
//! returns results **in input order**, so callers observe exactly the
//! sequence a serial loop would produce. Work is claimed from a shared
//! atomic counter (dynamic load balancing — simulation cost varies by
//! orders of magnitude across matrices) and results flow back over a
//! channel tagged with their input index.
//!
//! Thread count resolves from the `MISAM_THREADS` environment variable
//! when set (clamped to at least 1), else from
//! `std::thread::available_parallelism`. `MISAM_THREADS=1` bypasses
//! thread spawning entirely and runs the plain serial loop.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Resolves the worker count: `MISAM_THREADS` override, else all cores.
pub fn default_threads() -> usize {
    match std::env::var("MISAM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!("warning: ignoring unparsable MISAM_THREADS={v:?}");
                available()
            }
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item on [`default_threads`] workers, returning
/// results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, default_threads(), f)
}

/// [`par_map`] with an explicit worker count (1 = serial in-thread).
pub fn par_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indices(items.len(), threads, |i| f(&items[i]))
}

/// Applies `f` to every index in `0..count` on a worker pool, returning
/// results in index order — [`par_map_with`] without a backing slice.
///
/// This is the streaming fan-out primitive: corpus generation derives
/// each sample from its index and a seed, so there is nothing to
/// collect into a slice beforehand. Workers claim indices dynamically
/// from a shared counter (generation + labeling cost varies per
/// sample), and `threads == 1` runs the plain serial loop, so any
/// thread count produces byte-identical results. The calling thread is
/// one of the workers: it would otherwise idle until the others finish,
/// and its share of the allocations lands in its own long-lived malloc
/// arena instead of one a later thread may take over.
pub fn par_map_indices<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&idx| idx < count);
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    crossbeam::thread::scope(|scope| {
        for _ in 1..workers {
            let tx = tx.clone();
            let (claim, f) = (&claim, &f);
            scope.spawn(move |_| {
                while let Some(idx) = claim() {
                    // A closed channel means the collector stopped
                    // early (it never does today); just stop producing.
                    if tx.send((idx, f(idx))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        while let Some(idx) = claim() {
            slots[idx] = Some(f(idx));
        }
        for (idx, value) in rx.iter() {
            slots[idx] = Some(value);
        }
    })
    .expect("oracle worker pool panicked");

    slots.into_iter().map(|s| s.expect("worker dropped an item")).collect()
}

/// Error returned by [`WorkerPool::try_submit`] when the admission
/// queue is at capacity: the caller should shed the work (reply
/// "overloaded", retry later) rather than block or buffer unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull {
    /// The queue capacity that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool admission queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for PoolFull {}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A long-lived worker pool with a bounded admission queue.
///
/// Where [`par_map`] spawns scoped threads for one batch and joins them,
/// `WorkerPool` keeps its workers alive across submissions — the shape a
/// long-running server needs. Admission is bounded: [`WorkerPool::try_submit`]
/// refuses jobs once `capacity` submissions are waiting, so a traffic
/// burst sheds load instead of growing the queue (and the process) without
/// limit. Dropping the pool closes the queue, lets the workers drain
/// every already-accepted job, and joins them — a graceful drain, not an
/// abort.
///
/// A job that panics is contained: the worker catches the unwind,
/// counts it ([`WorkerPool::panics`]) and takes the next job, so one bad
/// job can neither shrink the pool nor turn a later submission or the
/// final join into a panic. A job that must answer someone (a reply
/// channel, a completion mailbox) catches its own panic to send that
/// answer; the pool only guarantees the worker survives.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<crossbeam::channel::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    depth: Arc<AtomicUsize>,
    panics: Arc<AtomicUsize>,
    capacity: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1) behind an
    /// admission queue of `capacity` (clamped to at least 1) waiting jobs.
    pub fn new(threads: usize, capacity: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let depth = Arc::new(AtomicUsize::new(0));
        let panics = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let depth = Arc::clone(&depth);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("misam-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            depth.fetch_sub(1, Ordering::Relaxed);
                            // The job is consumed by the call, so no state
                            // it touched is observed after an unwind.
                            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err()
                            {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { tx: Some(tx), workers, depth, panics, capacity: capacity.max(1) }
    }

    /// Submits a job unless the admission queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PoolFull`] when `capacity` jobs are already waiting (or
    /// the pool is shutting down); the job is dropped, not queued.
    pub fn try_submit<F>(&self, job: F) -> Result<(), PoolFull>
    where
        F: FnOnce() + Send + 'static,
    {
        let full = PoolFull { capacity: self.capacity };
        let Some(tx) = self.tx.as_ref() else { return Err(full) };
        // Reserve a queue slot before sending so the bound is exact even
        // under concurrent submitters.
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return Err(full);
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if tx.send(Box::new(job)).is_err() {
            unreachable!("pool workers alive while sender held");
        }
        Ok(())
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The admission-queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked (each was contained; its worker lived on).
    pub fn panics(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// Closes the queue, drains every accepted job, and joins the
    /// workers. Equivalent to dropping the pool, but callable by name at
    /// an explicit shutdown point.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            w.join().expect("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_map_matches_serial_at_any_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let serial: Vec<u64> = (0..500).map(f).collect();
        for threads in [1, 2, 7, 16] {
            assert_eq!(par_map_indices(500, threads, f), serial);
        }
        assert!(par_map_indices(0, 4, f).is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_with(&items, 8, |&n| n * 3);
        assert_eq!(out, (0..1000).map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let slow = |&n: &u64| {
            // Uneven work so claim order scrambles.
            (0..(n % 17) * 100).fold(n, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        assert_eq!(par_map_with(&items, 1, slow), par_map_with(&items, 7, slow));
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(&empty, 4, |&n| n).is_empty());
        assert_eq!(par_map_with(&[5u32], 4, |&n| n + 1), vec![6]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [1u8, 2, 3];
        assert_eq!(par_map_with(&items, 64, |&n| n as u32), vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_pool_runs_submitted_jobs() {
        let pool = WorkerPool::new(4, 64);
        let hits = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            let tx = tx.clone();
            pool.try_submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            })
            .unwrap();
        }
        for _ in 0..32 {
            rx.recv().unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn worker_pool_sheds_when_queue_full() {
        // One worker parked on a gate: every later job stays queued, so
        // the admission bound is observable deterministically.
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = crossbeam::channel::unbounded::<()>();
        pool.try_submit(move || {
            gate_rx.recv().unwrap();
        })
        .unwrap();
        // Wait until the worker has dequeued the blocker.
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        let err = pool.try_submit(|| {}).unwrap_err();
        assert_eq!(err, PoolFull { capacity: 2 });
        assert_eq!(pool.queue_depth(), 2);
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn worker_pool_survives_a_panicking_job() {
        // One worker, so the follow-up job can only run if the panic
        // left that worker alive.
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(|| panic!("a bad job")).unwrap();
        let (tx, rx) = crossbeam::channel::unbounded();
        pool.try_submit(move || tx.send(7u32).unwrap()).unwrap();
        assert_eq!(rx.recv().unwrap(), 7, "the next job still runs");
        assert_eq!(pool.panics(), 1);
        pool.shutdown();
    }

    #[test]
    fn worker_pool_shutdown_drains_accepted_jobs() {
        let pool = WorkerPool::new(2, 128);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 64, "shutdown must drain, not abort");
    }
}
