//! The one cross-call cache type of the serving path.
//!
//! Every serving cache — subtree representation states, subtree encodings
//! and sample bitmaps — maps a 64-bit key to a shared value through
//! [`ShardedCache`]: middle bits of the key pick one of [`NUM_SHARDS`]
//! independently-locked shards, so concurrent estimator threads don't
//! serialize on one lock, and hit/miss counters are per-shard relaxed
//! atomics — statistics never take a lock on the hot path.
//!
//! # Key contract
//!
//! Keys must be finalized [`SigHasher`](crate::SigHasher) outputs.  The
//! shard maps use [`IdentityHasher`] instead of re-hashing every `u64`
//! through SipHash, and the shard is chosen from the key's middle bits; both
//! are sound only because the splitmix64 finalizer has already spread every
//! bit range of the key.  A raw counter or pointer used as a key would pile
//! into one shard and one probe group.  Never key a cache with input from
//! outside the program without hashing it through `SigHasher` first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Number of shards (power of two; selected by middle bits of the key).
pub const NUM_SHARDS: usize = 16;

/// Default per-shard entry cap (~256k entries across all shards).
const DEFAULT_MAX_PER_SHARD: usize = 16 * 1024;

/// Pass-through hasher for keys that are already well-mixed 64-bit hashes
/// (see the module's key contract).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only for u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// One cached value plus its insertion sequence number (shard-local,
/// monotonically increasing) — the recency the eviction policy keeps.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    seq: u64,
}

type SigMap<V> = HashMap<u64, Entry<V>, BuildHasherDefault<IdentityHasher>>;

#[derive(Debug)]
struct ShardInner<V> {
    map: SigMap<V>,
    next_seq: u64,
}

#[derive(Debug)]
struct Shard<V> {
    inner: RwLock<ShardInner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            inner: RwLock::new(ShardInner { map: SigMap::default(), next_seq: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V> Shard<V> {
    // A panic while a shard lock is held cannot leave the shard invalid:
    // every update is a single `HashMap` call or a counter bump, so a
    // poisoned lock is recovered rather than propagated.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, ShardInner<V>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, ShardInner<V>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A concurrent map from 64-bit signature keys to cached values, sharded by
/// middle bits of the key, with per-shard atomic hit/miss counters.
///
/// Bounded: when an insert would push a shard past its per-shard cap, the
/// **oldest-inserted half** of the shard is dropped and the
/// most-recently-inserted half retained (the caches are advisory — evicting
/// costs a re-computation, never correctness).  Dropping the whole shard
/// would discard the very entries the current enumeration had just
/// memoized and collapse the hit rate exactly when the cache is under
/// pressure; keeping the recent half preserves the working set while still
/// bounding memory, with no per-lookup LRU bookkeeping on the hot path
/// (recency is stamped on insert only).
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Box<[Shard<V>; NUM_SHARDS]>,
    max_per_shard: usize,
}

impl<V: Clone> ShardedCache<V> {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::with_shard_capacity(DEFAULT_MAX_PER_SHARD)
    }

    /// An empty cache bounded to `max_per_shard` entries per shard.
    pub fn with_shard_capacity(max_per_shard: usize) -> Self {
        ShardedCache {
            shards: Box::new(std::array::from_fn(|_| Shard::default())),
            max_per_shard: max_per_shard.max(1),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Shard<V> {
        // Middle bits: the identity-hashed hashbrown map derives its bucket
        // index from the low bits and its 7-bit SIMD probe tag from the top
        // bits; shard selection must avoid both ranges, or every key in a
        // shard would share part of its tag/bucket entropy.
        &self.shards[((key >> 32) as usize) & (NUM_SHARDS - 1)]
    }

    /// Look up a key, counting a hit or a miss in the shard's atomics.
    pub fn get(&self, key: u64) -> Option<V> {
        let shard = self.shard(key);
        let found = shard.read().map.get(&key).map(|e| e.value.clone());
        // Relaxed atomics: statistics never acquire a lock of their own
        // (and need none — approximate global ordering is fine for stats).
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Store a value under a key (last writer wins on a race; both writers
    /// computed the value from the same input, so the values are
    /// interchangeable).  Re-inserting an existing key refreshes its
    /// recency.  When the shard is full, the oldest-inserted half is
    /// evicted first.
    pub fn insert(&self, key: u64, value: V) {
        let shard = self.shard(key);
        let mut inner = shard.write();
        if inner.map.len() >= self.max_per_shard && !inner.map.contains_key(&key) {
            // Evict the oldest-inserted entries, keeping the newest
            // `max_per_shard / 2` — sequence numbers are unique, so the
            // cutoff retains exactly that many.
            let keep = self.max_per_shard / 2;
            if keep == 0 {
                inner.map.clear();
            } else {
                let mut seqs: Vec<u64> = inner.map.values().map(|e| e.seq).collect();
                let cut_idx = seqs.len() - keep;
                let (_, &mut cutoff, _) = seqs.select_nth_unstable(cut_idx);
                inner.map.retain(|_, e| e.seq >= cutoff);
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.map.insert(key, Entry { value, seq });
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().map.is_empty())
    }

    /// `(hits, misses)` lookup counters summed over all shards.
    pub fn stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for s in self.shards.iter() {
            hits += s.hits.load(Ordering::Relaxed);
            misses += s.misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }

    /// Fraction of lookups served from the cache (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Drop all cached entries and reset the counters.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut inner = s.write();
            inner.map.clear();
            inner.next_seq = 0;
            s.hits.store(0, Ordering::Relaxed);
            s.misses.store(0, Ordering::Relaxed);
        }
    }
}

impl<V: Clone> Default for ShardedCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SigHasher;

    #[test]
    fn keys_spread_over_shards() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        let mut used = std::collections::HashSet::new();
        for i in 0..256u64 {
            // Simulate signature keys: well-mixed via the same finalizer.
            let mut h = SigHasher::new();
            h.write_u64(i);
            let key = h.finish();
            cache.insert(key, i as u32);
            used.insert((key >> 32) & (NUM_SHARDS as u64 - 1));
        }
        assert_eq!(cache.len(), 256);
        assert!(used.len() >= NUM_SHARDS / 2, "keys collapsed onto {} shards", used.len());
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        let cache: ShardedCache<u64> = ShardedCache::with_shard_capacity(8);
        for i in 0..10_000u64 {
            let mut h = SigHasher::new();
            h.write_u64(i);
            cache.insert(h.finish(), i);
        }
        assert!(cache.len() <= 8 * NUM_SHARDS, "cache grew past its bound: {}", cache.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn eviction_retains_the_most_recently_inserted_half() {
        // One shard's worth of keys (same middle bits), tiny capacity.
        let cache: ShardedCache<u64> = ShardedCache::with_shard_capacity(8);
        let key = |i: u64| i; // middle bits zero for i < 2^32: all in shard 0
        for i in 0..8 {
            cache.insert(key(i), i);
        }
        assert_eq!(cache.len(), 8);
        // The 9th insert evicts the OLDEST half (0..4), never the newest.
        cache.insert(key(8), 8);
        assert_eq!(cache.len(), 5);
        for old in 0..4 {
            assert!(cache.get(key(old)).is_none(), "oldest entry {old} must be evicted");
        }
        for recent in 4..9 {
            assert_eq!(cache.get(key(recent)), Some(recent), "recent entry {recent} must survive eviction");
        }
        // Re-inserting refreshes recency: touch 4 so it outlives 5.
        cache.insert(key(4), 44);
        for i in 9..12 {
            cache.insert(key(i), i);
        }
        cache.insert(key(12), 12); // triggers the next eviction at len 8
        assert_eq!(cache.get(key(4)), Some(44), "re-inserted key must be treated as recent");
        assert!(cache.get(key(5)).is_none(), "stale key must go first");
    }

    /// Hit rate under capacity pressure.  The serving access pattern is
    /// phased — an enumeration memoizes a handful of new subtree states,
    /// and the very next candidates look those states up again.  Dropping
    /// the **whole shard** on overflow would discard, whenever an overflow
    /// lands mid-phase, states inserted moments earlier, and the following
    /// lookups would re-miss them; retaining the most-recently-inserted
    /// half guarantees the current phase's states always survive the
    /// eviction that their own inserts trigger.
    #[test]
    fn hit_rate_under_pressure_keeps_current_phase_resident() {
        let cache: ShardedCache<u64> = ShardedCache::with_shard_capacity(16);
        let mut lookups = 0u64;
        // Phase width 5 does not divide the capacity, so overflows land at
        // every offset within a phase over the course of the run.
        for phase in 0..200u64 {
            let keys: Vec<u64> = (0..5).map(|i| phase * 5 + i).collect();
            for &k in &keys {
                cache.insert(k, k);
            }
            for &k in &keys {
                assert!(cache.get(k).is_some(), "state inserted this phase was evicted by its own phase's overflow");
                lookups += 1;
            }
        }
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (lookups, 0), "every in-phase lookup must hit under pressure");
        assert_eq!(cache.hit_rate(), 1.0);
        // And the cache stayed bounded the whole time.
        assert!(cache.len() <= 16);
    }
}
