//! # gcd2-par — scoped parallelism utilities
//!
//! The workspace is offline/vendored, so this crate builds its worker
//! pool on nothing but [`std::thread::scope`]. The runtime fans batch
//! items out on it; the compilation pipeline uses only its
//! panic-isolating sweep, at one thread. It provides:
//!
//! * [`try_par_map`] — an order-preserving, panic-isolating map over
//!   indexed work items. Work is claimed from a shared atomic counter,
//!   so uneven item costs balance automatically; the result vector is
//!   always in item order, which is what makes a fanned-out run
//!   *bit-identical* to a serial one. Item closures execute under
//!   `catch_unwind`, a panicked item is retried once serially, and only
//!   a *repeated* panic surfaces — as a structured [`WorkerPanic`],
//!   never a process abort. The compilation pipeline calls it with
//!   `threads = 1`, which spawns nothing and runs every item in order
//!   on the caller, each with its one retry.
//! * [`par_map_isolated`] — the same isolation with **per-item**
//!   results (`Vec<Result<_, WorkerPanic>>`), so one poisoned item
//!   fails alone instead of sinking the whole map; the batched
//!   inference runtime serves on it.
//! * [`ShardedMap`] — a concurrent memo table sharded by key hash, with
//!   hit/miss counters. Shared across worker threads via `Arc`, it backs
//!   the kernel cost cache and the VLIW packing memo. A shard whose lock
//!   was poisoned by a panicking worker is **quarantined** (cleared and
//!   un-poisoned) on the next access: possibly half-written entries are
//!   dropped and recomputed rather than trusted.
//!
//! ```
//! use gcd2_par::try_par_map;
//! let squares = try_par_map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, Ok(vec![1, 4, 9, 16]));
//! ```

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The number of worker threads the runtime uses by default:
/// [`std::thread::available_parallelism`], resolved once per process.
pub fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A work item panicked twice — on its first attempt (on a worker
/// thread, or in the serial sweep when none was spawned) and again on
/// the serial retry — so the failure is persistent, not transient.
/// Carries the item index and the panic payload
/// rendered as text.
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
            "work item {} panicked twice (first attempt + serial retry): {}",
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

/// Maps `f` over `items` on up to `threads` scoped workers with panic
/// isolation, returning the results **in item order**: the map the
/// compilation pipeline runs on (at `threads = 1`: in order on the
/// caller), so one panicking operator degrades one compile instead of
/// the process.
///
/// `f` receives `(index, &item)`. Items are claimed dynamically from a
/// shared counter, so which thread runs which item is nondeterministic
/// — but every result lands in its item's slot, so the returned vector
/// is identical for every thread count, including 1. `f` must therefore
/// be a pure function of its arguments (interior caches are fine as
/// long as cached values are deterministic).
///
/// Every item closure runs under `catch_unwind`. An item whose first
/// attempt panicked is retried **once, serially**, after the workers
/// finish — transient failures (a poisoned cache shard, an injected
/// fault) recover and, because `f` is pure, the retried result is
/// bit-identical to an undisturbed run. An item that panics twice
/// returns a structured [`WorkerPanic`]. A worker thread that dies
/// before claiming work (e.g. a startup fault) is tolerated: its items
/// are claimed by surviving workers or swept up serially.
pub fn try_par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_isolated(threads, items, f).into_iter().collect()
}

/// [`try_par_map`] with **per-item** results: the map the batched
/// inference runtime serves on, where one poisoned input must not sink
/// the rest of the batch.
///
/// Isolation and retry are identical to [`try_par_map`] — worker
/// closures run under `catch_unwind`, a first panic is retried once
/// serially, workers that die at startup are tolerated — but an item
/// that panics twice yields `Err(WorkerPanic)` **in its own slot** while
/// every other item still returns its `Ok` value.
pub fn par_map_isolated<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    // Slot states: None = unprocessed, Some(Ok) = done, Some(Err) =
    // first attempt panicked (message kept for diagnostics).
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    if threads > 1 {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        // A worker-startup fault kills this worker only;
                        // the others (or the serial sweep) take its share.
                        if catch_unwind(|| {
                            let _ = gcd2_faults::fire("par.worker");
                        })
                        .is_err()
                        {
                            return;
                        }
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                            let r = r.map_err(|p| panic_message(p.as_ref()));
                            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                        }
                    })
                })
                .collect();
            for w in workers {
                // Worker bodies catch every panic, so join only fails on
                // pathological unwind-in-unwind; treat it as a dead worker.
                let _ = w.join();
            }
        });
    }
    // Serial sweep: finish unclaimed items and retry panicked ones once.
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let state = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            match state {
                Some(Ok(r)) => Ok(r),
                Some(Err(_)) => retry_serial(i, &items[i], &f, 1),
                None => retry_serial(i, &items[i], &f, 2),
            }
        })
        .collect()
}

/// Runs `f(i, item)` under `catch_unwind` up to `attempts` times,
/// converting a final panic into a [`WorkerPanic`].
fn retry_serial<T, R, F>(i: usize, item: &T, f: &F, attempts: usize) -> Result<R, WorkerPanic>
where
    F: Fn(usize, &T) -> R,
{
    let mut last = String::new();
    for _ in 0..attempts.max(1) {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => return Ok(r),
            Err(p) => last = panic_message(p.as_ref()),
        }
    }
    Err(WorkerPanic {
        index: i,
        message: last,
    })
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
    fn try_par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let empty: Vec<usize> = Vec::new();
        for threads in [1, 2, 3, 8] {
            let tried = try_par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(tried, Ok(items.iter().map(|x| x * 3 + 1).collect()));
            assert_eq!(try_par_map(threads, &empty, |_, &x| x), Ok(Vec::new()));
        }
    }

    #[test]
    fn try_par_map_recovers_from_transient_panic() {
        // Item 5 panics exactly once (on whichever thread first claims
        // it); the serial retry recomputes it and the result vector is
        // indistinguishable from an undisturbed run.
        let fired = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            fired.store(0, Ordering::SeqCst);
            let out = try_par_map(threads, &items, |_, &x| {
                if x == 5 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                x + 1
            })
            .expect("transient panic must be retried away");
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_reports_persistent_panic() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 3] {
            let err = try_par_map(threads, &items, |_, &x| {
                if x == 9 {
                    panic!("persistent failure on 9");
                }
                x
            })
            .expect_err("persistent panic must surface");
            assert_eq!(err.index, 9);
            assert!(err.message.contains("persistent failure"), "{err}");
        }
    }

    #[test]
    fn par_map_isolated_confines_failure_to_its_slot() {
        // Item 9 always panics; every sibling still returns Ok — the
        // per-item contract the batched inference runtime serves on.
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 3] {
            let out = par_map_isolated(threads, &items, |_, &x| {
                if x == 9 {
                    panic!("poisoned item");
                }
                x * 2
            });
            for (i, r) in out.iter().enumerate() {
                if i == 9 {
                    let err = r.as_ref().expect_err("item 9 must fail");
                    assert_eq!(err.index, 9);
                    assert!(err.message.contains("poisoned item"), "{err}");
                } else {
                    assert_eq!(r.as_ref().copied(), Ok(i * 2));
                }
            }
        }
    }

    #[test]
    fn par_map_isolated_retries_transients_to_all_ok() {
        let fired = AtomicUsize::new(0);
        let items: Vec<usize> = (0..24).collect();
        for threads in [1, 4] {
            fired.store(0, Ordering::SeqCst);
            let out = par_map_isolated(threads, &items, |_, &x| {
                if x == 7 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                x + 1
            });
            let values: Result<Vec<usize>, _> = out.into_iter().collect();
            assert_eq!(
                values.expect("transient panic must be retried away"),
                items.iter().map(|x| x + 1).collect::<Vec<_>>()
            );
        }
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
