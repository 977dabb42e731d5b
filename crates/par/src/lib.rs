//! # gcd2-par — panic isolation and sharded concurrent caches
//!
//! Std-only building blocks the compiler and runtime share. It spawns
//! no thread: compilation runs on the calling thread, one inference
//! runs on the calling thread, and the serving gateway owns its own
//! workers. It provides:
//!
//! * [`try_map`] — an in-order, panic-isolating map. Each item runs
//!   under `catch_unwind`; a panicked item is retried once, and only a
//!   *repeated* panic surfaces — as a structured [`WorkerPanic`], never
//!   a process abort. The compile stages map their items through it, so
//!   one transient fault in one operator recovers bit-identically.
//! * [`ShardedMap`] — a concurrent memo table sharded by key hash, with
//!   hit/miss counters. Shared via `Arc`, it backs the kernel cost cache
//!   and the VLIW packing memo. A shard whose lock was poisoned by a
//!   panicking holder is **quarantined** (cleared and un-poisoned) on
//!   the next access: possibly half-written entries are dropped and
//!   recomputed rather than trusted.
//!
//! ```
//! use gcd2_par::try_map;
//! let squares = try_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, Ok(vec![1, 4, 9, 16]));
//! ```

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The machine's available parallelism
/// ([`std::thread::available_parallelism`]), resolved once per
/// process: the default worker count of a serving gateway.
pub fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A work item panicked twice — on its first attempt and again on its
/// retry — so the failure is persistent, not transient. Carries the
/// item index and the panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "work item {} panicked twice (first attempt + retry): {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a `catch_unwind` payload as text (`&str` and `String`
/// payloads verbatim, anything else a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` in order on the calling thread, with panic
/// isolation: the map the compilation pipeline runs on, so one
/// panicking operator degrades one compile instead of the process.
///
/// Every item runs under `catch_unwind`. An item whose first attempt
/// panicked is retried **once** — transient failures (a poisoned cache
/// shard, an injected fault) recover and, because `f` must be a pure
/// function of its item, the retried result is bit-identical to an
/// undisturbed run. The first item that panics twice stops the map and
/// returns a structured [`WorkerPanic`].
pub fn try_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
where
    F: Fn(&T) -> R,
{
    let attempt = |item| catch_unwind(AssertUnwindSafe(|| f(item)));
    items
        .iter()
        .enumerate()
        .map(|(index, item)| {
            attempt(item)
                .or_else(|_| attempt(item))
                .map_err(|p| WorkerPanic {
                    index,
                    message: panic_message(p.as_ref()),
                })
        })
        .collect()
}

/// Hit/miss counters of a [`ShardedMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another counter pair into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A concurrent memo table: a fixed power-of-two number of
/// `Mutex<HashMap>` shards, selected by key hash, plus hit/miss
/// counters. Values must be deterministic functions of their keys — two
/// threads racing on the same cold key may both compute, and whichever
/// inserts first wins; all callers still observe equal values.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<HashMap<K, V>>]>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> ShardedMap<K, V> {
    /// The default shard count: enough that 4–16 workers rarely collide.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a map with [`Self::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Creates a map with `shards` shards (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Locks a shard, quarantining it first if a panicking holder
    /// poisoned the lock: possibly half-written entries are discarded
    /// (values are pure functions of their keys, so dropped entries are
    /// simply recomputed) and the poison flag is cleared.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, HashMap<K, V>> {
        match self.shards[idx].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.shards[idx].clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Number of shard quarantines performed so far (a shard is
    /// quarantined when a panicking worker poisoned its lock; its
    /// entries are dropped and recomputed on demand).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Lookup/compute counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Total number of cached entries.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        // Shard count is a power of two; take the hash's low bits.
        (self.hasher.hash_one(key) as usize) & (self.shards.len() - 1)
    }

    /// Returns a clone of the cached value, counting a hit or a miss.
    /// An injected `cache.lookup` corruption fault drops the entry and
    /// reports a miss, forcing a (pure, deterministic) recompute.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut guard = self.lock_shard(self.shard_of(key));
        // The fault point sits *inside* the critical section on purpose:
        // an injected panic here poisons the shard lock, which is
        // exactly the condition the quarantine path recovers from.
        let corrupt = matches!(
            gcd2_faults::fire("cache.lookup"),
            gcd2_faults::Injection::CorruptCache
        );
        if corrupt {
            guard.remove(key);
        }
        match guard.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` unless the key is already cached (first writer
    /// wins, so racing computations of the same key converge on one
    /// stored value). Does not touch the hit/miss counters — pair it
    /// with [`Self::get`].
    pub fn insert(&self, key: K, value: V) {
        self.lock_shard(self.shard_of(&key))
            .entry(key)
            .or_insert(value);
    }

    /// Returns the cached value for `key`, computing and caching it with
    /// `f` on a miss. `f` runs *outside* the shard lock, so a slow
    /// computation never blocks other keys in the same shard.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, f: F) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = f();
        self.insert(key, v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let tried = try_map(&items, |&x| x * 3 + 1);
        assert_eq!(tried, Ok(items.iter().map(|x| x * 3 + 1).collect()));
        let empty: Vec<usize> = Vec::new();
        assert_eq!(try_map(&empty, |&x| x), Ok(Vec::new()));
    }

    #[test]
    fn try_map_recovers_from_transient_panic() {
        // Item 5 panics exactly once; the retry recomputes it and the
        // result vector is indistinguishable from an undisturbed run.
        let fired = AtomicU64::new(0);
        let items: Vec<usize> = (0..32).collect();
        let out = try_map(&items, |&x| {
            if x == 5 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            x + 1
        })
        .expect("transient panic must be retried away");
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_reports_persistent_panic() {
        let items: Vec<usize> = (0..16).collect();
        let err = try_map(&items, |&x| {
            if x == 9 {
                panic!("persistent failure on 9");
            }
            x
        })
        .expect_err("persistent panic must surface");
        assert_eq!(err.index, 9);
        assert!(err.message.contains("persistent failure"), "{err}");
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
    }

    #[test]
    fn sharded_map_basic_hit_miss() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(m.get(&1), None);
        m.insert(1, 10);
        assert_eq!(m.get(&1), Some(10));
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sharded_map_first_writer_wins() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        m.insert(5, 50);
        m.insert(5, 999);
        assert_eq!(m.get(&5), Some(50));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sharded_map_borrowed_key_lookup() {
        let m: ShardedMap<Vec<u8>, usize> = ShardedMap::new();
        m.insert(vec![1, 2, 3], 6);
        let slice: &[u8] = &[1, 2, 3];
        assert_eq!(m.get(slice), Some(6));
    }

    #[test]
    fn concurrent_hammer_no_lost_inserts() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        let keys: Vec<u64> = (0..64).collect();
        // 8 logical workers each touch every key; values are a pure
        // function of the key, so every lookup must agree.
        let touch_all = || {
            keys.iter()
                .map(|&k| m.get_or_insert_with(k, || k * 7))
                .collect::<Vec<u64>>()
        };
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8).map(|_| s.spawn(touch_all)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("hammer worker"))
                .collect()
        });
        for r in &results {
            assert_eq!(r, &keys.iter().map(|k| k * 7).collect::<Vec<_>>());
        }
        assert_eq!(m.len(), keys.len(), "no inserts lost, no duplicates");
        let s = m.stats();
        assert_eq!(s.hits + s.misses, 8 * keys.len() as u64);
        assert!(s.misses >= keys.len() as u64);
    }

    #[test]
    fn cache_stats_hit_rate() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.merge(CacheStats { hits: 3, misses: 1 });
        assert_eq!(s.hit_rate(), 0.75);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
