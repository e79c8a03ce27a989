//! Concurrent memoization cache keyed by `(fingerprint, target)`.
//!
//! Sharded to keep lock contention off the hot path, with per-entry
//! once-cells so a given key's underlying computation runs **exactly
//! once while resident** even when many threads miss simultaneously —
//! late arrivals block on the first computation instead of repeating
//! it.
//!
//! The cache holds at most a fixed number of entries
//! ([`DEFAULT_CAPACITY`] unless built with [`MemoCache::with_capacity`]),
//! split evenly over the shards. Each shard evicts by CLOCK (second
//! chance): a hit sets the entry's reference bit, and the eviction hand
//! skips and clears referenced entries, taking the first unreferenced
//! one. Entries whose computation is still in flight are never evicted,
//! so a shard may briefly hold more than its share while computations
//! run; it sheds the excess as they finish. A key evicted and asked for
//! again is computed again: callers get the same value either way,
//! because every cached computation is a pure function of its key.

use crate::Fingerprint;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 16;

/// Entries the process-global oracle and profile caches hold
/// ([`crate::global`], [`crate::profiles::global`]): enough to keep
/// every profile and report a labeling worker revisits within a few
/// samples resident, and a whole workload suite's reports between a
/// prewarm pass and the run that reads them, while bounding what a
/// long-running process keeps. A caller that reuses a whole corpus
/// holds on to the corpus instead (`misam::experiments::Corpora`).
pub const DEFAULT_CAPACITY: usize = 1024;

type Key = (u64, usize);

/// Hit/miss counters of a [`MemoCache`] (and of [`crate::SimOracle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the underlying executor.
    pub misses: u64,
    /// Distinct keys currently resident.
    pub entries: usize,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One resident entry.
#[derive(Debug)]
struct Slot<R> {
    key: Key,
    cell: Arc<OnceLock<R>>,
    /// Set on every hit; the CLOCK hand clears it instead of evicting.
    referenced: AtomicBool,
}

/// One shard: the key index, the entries in CLOCK order, and the hand.
#[derive(Debug)]
struct Shard<R> {
    index: HashMap<Key, usize>,
    slots: Vec<Slot<R>>,
    hand: usize,
    capacity: usize,
}

impl<R> Shard<R> {
    /// Moves the hand to the next populated, unreferenced entry and
    /// past it, clearing the reference bits it passes on the way.
    /// `None` when every entry is in flight.
    fn victim(&mut self) -> Option<usize> {
        let n = self.slots.len();
        // Two sweeps clear every reference bit, so a populated entry
        // turns up within them if one exists.
        for _ in 0..2 * n {
            let at = self.hand % n;
            self.hand = (at + 1) % n;
            let slot = &self.slots[at];
            if slot.cell.get().is_some() && !slot.referenced.swap(false, Ordering::Relaxed) {
                return Some(at);
            }
        }
        None
    }

    /// Adds an in-flight entry for `key`, in a victim's place when the
    /// shard is full, so the newcomer sits just behind the hand and is
    /// looked at last. Returns its position and whether it evicted.
    fn insert(&mut self, key: Key) -> (usize, bool) {
        let slot =
            Slot { key, cell: Arc::new(OnceLock::new()), referenced: AtomicBool::new(false) };
        if self.slots.len() >= self.capacity {
            if let Some(at) = self.victim() {
                let gone = std::mem::replace(&mut self.slots[at], slot);
                self.index.remove(&gone.key);
                self.index.insert(key, at);
                return (at, true);
            }
        }
        // Room left, or only in-flight entries to evict: the shard
        // runs over capacity until `shed`.
        self.slots.push(slot);
        self.index.insert(key, self.slots.len() - 1);
        (self.slots.len() - 1, false)
    }

    /// Evicts by CLOCK until the shard is back within capacity or only
    /// in-flight entries remain; returns how many it evicted.
    fn shed(&mut self) -> u64 {
        let mut evicted = 0;
        while self.slots.len() > self.capacity {
            let Some(at) = self.victim() else { break };
            let gone = self.slots.swap_remove(at);
            self.index.remove(&gone.key);
            if let Some(moved) = self.slots.get(at) {
                self.index.insert(moved.key, at);
            }
            evicted += 1;
        }
        evicted
    }
}

/// A sharded, bounded, exactly-once-while-resident memoization map.
#[derive(Debug)]
pub struct MemoCache<R> {
    shards: Vec<RwLock<Shard<R>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<R> Default for MemoCache<R> {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl<R> MemoCache<R> {
    /// An empty cache holding at most `capacity` entries once no
    /// computation is in flight (`usize::MAX`: unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        let share = |i: usize| capacity / SHARDS + usize::from(i < capacity % SHARDS);
        MemoCache {
            shards: (0..SHARDS)
                .map(|i| {
                    RwLock::new(Shard {
                        index: HashMap::new(),
                        slots: Vec::new(),
                        hand: 0,
                        capacity: share(i),
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl<R: Clone> MemoCache<R> {
    /// An empty cache of [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, fp: Fingerprint, target: usize) -> &RwLock<Shard<R>> {
        // Target lands in the shard index so the four designs of one
        // matrix spread across shards.
        let idx = (fp.0 ^ (target as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize % SHARDS;
        &self.shards[idx]
    }

    /// Returns the cached value for `(fp, target)`, computing it with
    /// `compute` when it is not resident. Concurrent callers of the
    /// same key block until the single in-flight computation finishes.
    pub fn get_or_compute(&self, fp: Fingerprint, target: usize, compute: impl FnOnce() -> R) -> R {
        let shard = self.shard(fp, target);
        let key = (fp.0, target);

        // Fast path: the entry exists and is populated.
        {
            let guard = shard.read();
            if let Some(&at) = guard.index.get(&key) {
                let slot = &guard.slots[at];
                if let Some(value) = slot.cell.get() {
                    if !slot.referenced.load(Ordering::Relaxed) {
                        slot.referenced.store(true, Ordering::Relaxed);
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return value.clone();
                }
            }
        }

        // Claim (or join) the entry's once-cell, then initialize it
        // outside the shard lock so other keys stay unblocked.
        let cell = {
            let mut guard = shard.write();
            let at = match guard.index.get(&key) {
                Some(&at) => at,
                None => {
                    let (at, evicted) = guard.insert(key);
                    self.evictions.fetch_add(u64::from(evicted), Ordering::Relaxed);
                    at
                }
            };
            Arc::clone(&guard.slots[at].cell)
        };
        let mut computed = false;
        let value = cell.get_or_init(|| {
            computed = true;
            compute()
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // The entry is populated now: if the shard ran over capacity
            // while it was in flight, it can be evicted again.
            let evicted = shard.write().shed();
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.read().slots.len()).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.index.clear();
            guard.slots.clear();
            guard.hand = 0;
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits() {
        let cache = MemoCache::new();
        let fp = Fingerprint(42);
        let mut calls = 0;
        let v1 = cache.get_or_compute(fp, 0, || {
            calls += 1;
            7u64
        });
        let v2 = cache.get_or_compute(fp, 0, || {
            calls += 1;
            8u64
        });
        assert_eq!((v1, v2), (7, 7));
        assert_eq!(calls, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn targets_are_distinct_keys() {
        let cache = MemoCache::new();
        let fp = Fingerprint(1);
        for t in 0..4 {
            assert_eq!(cache.get_or_compute(fp, t, || t), t);
        }
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = MemoCache::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get_or_compute(Fingerprint(9), 2, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        1234u32
                    })
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn resident_entries_stay_within_capacity() {
        for capacity in [1, 7, DEFAULT_CAPACITY] {
            let cache = MemoCache::with_capacity(capacity);
            for k in 0..10_000u64 {
                assert_eq!(cache.get_or_compute(Fingerprint(k), 0, || k), k);
            }
            let s = cache.stats();
            assert!(s.entries <= capacity, "{} resident at capacity {capacity}", s.entries);
            assert_eq!(s.misses, 10_000);
            assert_eq!(s.evictions, 10_000 - s.entries as u64);
        }
    }

    #[test]
    fn clock_keeps_a_hot_entry_resident() {
        let cache = MemoCache::with_capacity(2 * SHARDS);
        let mut hot_builds = 0;
        for k in 1..=5_000u64 {
            cache.get_or_compute(Fingerprint(k), 0, || k);
            cache.get_or_compute(Fingerprint(0), 0, || {
                hot_builds += 1;
                0
            });
        }
        assert_eq!(hot_builds, 1, "a key hit between every insertion is never evicted");
        assert!(cache.stats().evictions > 4_000);
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        use std::sync::mpsc;
        let cache = MemoCache::with_capacity(0);
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Owned here, so a failed assertion below drops it and
            // unblocks the slow computation instead of hanging the scope.
            let release = release;
            let cache = &cache;
            let slow = s.spawn(move || {
                cache.get_or_compute(Fingerprint(1), 0, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    11u64
                })
            });
            started.recv().unwrap();
            for k in 2..1_000u64 {
                cache.get_or_compute(Fingerprint(k), 0, || k);
            }
            assert_eq!(cache.stats().entries, 1, "only the in-flight entry stays resident");
            release.send(()).unwrap();
            assert_eq!(slow.join().unwrap(), 11);
        });
        let s = cache.stats();
        assert_eq!((s.entries, s.misses, s.evictions), (0, 999, 999));
    }

    #[test]
    fn clear_resets_everything() {
        let cache = MemoCache::new();
        cache.get_or_compute(Fingerprint(3), 1, || 1u8);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
