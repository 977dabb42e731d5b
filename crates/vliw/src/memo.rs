//! The memo table behind the compiler's two caches: the packer's
//! structural memo here and the kernel cost cache in `gcd2-kernels`.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The Fx hash (rustc's): each word is folded in as
/// `(h.rotate_left(5) ^ word) * K`. A handful of cycles per word against
/// SipHash's rounds, and no protection against chosen collisions — so it
/// hashes only keys the compiler derives itself (instruction blocks, cost
/// keys), never text a caller hands in.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes([
                w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7],
            ]));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The map of a [`Memo`].
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hit/miss counters of a [`Memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the memo is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The lookups counted since `before`, an earlier reading of the
    /// same counters.
    pub fn since(self, before: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
        }
    }

    /// Accumulates another counter pair into this one.
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A memo of a pure function: one `Mutex` over an Fx-hashed map and its
/// counters. Its keys must be values the program derives, never input
/// from outside it: the Fx hash has no defence against chosen
/// collisions. The value is computed outside the lock, so a computation
/// that panics leaves neither an entry nor a poisoned lock behind, and
/// two callers racing on one cold key both compute: the first insert
/// wins and both return the stored value.
#[derive(Debug)]
pub struct Memo<K, V>(Mutex<(FxMap<K, V>, CacheStats)>);

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(Mutex::new((FxMap::default(), CacheStats::default())))
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map's state is valid after any panic: no code that can
    /// panic runs while the lock is held.
    fn lock(&self) -> MutexGuard<'_, (FxMap<K, V>, CacheStats)> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lookup counters so far.
    pub fn stats(&self) -> CacheStats {
        self.lock().1
    }

    /// A copy of every memoised pair, in no particular order.
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let (map, _) = &*self.lock();
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// The value memoised for `key`, computed by `compute` on a miss.
    pub fn get_or_insert_with<Q>(&self, key: &Q, compute: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        {
            let (map, stats) = &mut *self.lock();
            if let Some(value) = map.get(key) {
                stats.hits += 1;
                return value.clone();
            }
            stats.misses += 1;
        }
        let value = compute();
        self.lock().0.entry(key.to_owned()).or_insert(value).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_are_counted() {
        let m: Memo<u64, u64> = Memo::new();
        assert_eq!(m.get_or_insert_with(&1, || 10), 10);
        assert_eq!(m.get_or_insert_with(&1, || unreachable!("a hit")), 10);
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(m.lock().0.len(), 1);
    }

    #[test]
    fn first_writer_wins() {
        // The inner call fills key 5 while the outer computes outside
        // the lock; the outer's late value is dropped.
        let m: Memo<u64, u64> = Memo::new();
        let v = m.get_or_insert_with(&5, || {
            assert_eq!(m.get_or_insert_with(&5, || 50), 50);
            999
        });
        assert_eq!(v, 50);
        assert_eq!(m.get_or_insert_with(&5, || 999), 50);
        assert_eq!(m.lock().0.len(), 1);
    }

    #[test]
    fn borrowed_key_lookup() {
        let m: Memo<Vec<u8>, usize> = Memo::new();
        m.get_or_insert_with(&[1u8, 2, 3][..], || 6);
        assert_eq!(m.get_or_insert_with(&[1u8, 2, 3][..], || 0), 6);
        assert_eq!(m.lock().0.keys().collect::<Vec<_>>(), [&vec![1, 2, 3]]);
    }

    #[test]
    fn a_panicking_compute_leaves_no_entry() {
        let m: Memo<u64, u64> = Memo::new();
        let caught = std::panic::catch_unwind(|| m.get_or_insert_with(&3, || panic!("compute")));
        assert!(caught.is_err());
        assert!(!m.0.is_poisoned());
        assert_eq!(m.get_or_insert_with(&3, || 30), 30);
        assert_eq!(m.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn concurrent_hammer_no_lost_inserts() {
        let m: Memo<u64, u64> = Memo::new();
        let keys: Vec<u64> = (0..64).collect();
        // 8 workers each touch every key; values are a pure function of
        // the key, so every lookup must agree.
        let touch_all = || {
            keys.iter()
                .map(|&k| m.get_or_insert_with(&k, || k * 7))
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
        assert_eq!(
            m.lock().0.len(),
            keys.len(),
            "no inserts lost, no duplicates"
        );
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
        let later = CacheStats { hits: 5, misses: 4 };
        assert_eq!(later.since(s), CacheStats { hits: 2, misses: 3 });
    }
}
