//! Serving-side caches (Section 3, online workflow).
//!
//! When the optimizer's plan enumerator repeatedly asks for the cost of
//! candidate plans sharing sub-plans, the estimator keeps the paper's memory
//! pool of sub-plan representations: [`SubtreeStateCache`] holds the
//! representation cell's `(G, R)` state vectors of every embedded sub-plan,
//! keyed by the allocation-free 64-bit structural signature
//! ([`query::PlanNode::signature_hash`]).  A new candidate that shares a
//! subtree re-enters the forward pass at the fringe instead of re-running
//! the cell over the whole subtree (`batch::estimate_plans_memo`), and a
//! repeated plan is served from its root state alone.
//!
//! The states sit on [`query::ShardedCache`], the one cache type of the
//! serving path; this module adds only the node-level counters the serving
//! benches report.

use query::ShardedCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The memoized representation state of one embedded sub-plan: the `G` and
/// `R` channel vectors of the representation cell at the subtree root.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeState {
    pub g: Vec<f32>,
    pub r: Vec<f32>,
}

/// Cache of subtree representation states for optimizer-in-the-loop serving.
///
/// Shared by all estimator threads; a hit lets `forward_batch_memo` inject
/// the stored `(G, R)` columns as tape inputs instead of re-embedding the
/// subtree.  States are only meaningful for the model/extractor pair that
/// produced them — the cache is owned by one `CostEstimator` and replaced
/// on re-fit, never shared across models.
///
/// Besides the lookup counters of the underlying [`ShardedCache`], the cache
/// tracks *node-level* serving counters: of all plan nodes submitted for
/// scoring, how many were served from a memoized subtree (or deduplicated
/// within the batch) versus embedded fresh.  That is the "subtree-cache hit
/// rate" the serving bench reports — lookups stop at the subtree fringe, so
/// lookup counts alone understate how much work memoization saves.
#[derive(Debug, Default)]
pub struct SubtreeStateCache {
    cache: ShardedCache<Arc<SubtreeState>>,
    nodes_seen: AtomicU64,
    nodes_computed: AtomicU64,
}

impl SubtreeStateCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `max_per_shard` states per shard.
    pub fn with_shard_capacity(max_per_shard: usize) -> Self {
        SubtreeStateCache { cache: ShardedCache::with_shard_capacity(max_per_shard), ..Self::default() }
    }

    /// Record one memoized forward pass's node accounting: `seen` plan nodes
    /// submitted, of which `computed` were embedded fresh.
    pub fn record_nodes(&self, seen: u64, computed: u64) {
        self.nodes_seen.fetch_add(seen, Ordering::Relaxed);
        self.nodes_computed.fetch_add(computed, Ordering::Relaxed);
    }

    /// `(nodes_seen, nodes_computed)` across all memoized forward passes.
    pub fn node_stats(&self) -> (u64, u64) {
        (self.nodes_seen.load(Ordering::Relaxed), self.nodes_computed.load(Ordering::Relaxed))
    }

    /// Fraction of submitted plan nodes served without a fresh embedding
    /// (`1 - computed/seen`); 0.0 before any memoized pass ran.
    pub fn node_hit_rate(&self) -> f64 {
        let (seen, computed) = self.node_stats();
        if seen == 0 {
            return 0.0;
        }
        1.0 - computed as f64 / seen as f64
    }

    /// Drop all memoized states and reset every counter.
    pub fn clear(&self) {
        self.cache.clear();
        self.nodes_seen.store(0, Ordering::Relaxed);
        self.nodes_computed.store(0, Ordering::Relaxed);
    }
}

/// Lookups, inserts and the `(hits, misses)` counters are the underlying
/// [`ShardedCache`]'s; [`SubtreeStateCache::clear`] shadows its `clear` to
/// reset the node counters too.
impl std::ops::Deref for SubtreeStateCache {
    type Target = ShardedCache<Arc<SubtreeState>>;

    fn deref(&self) -> &Self::Target {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let pool: ShardedCache<(f64, f64)> = ShardedCache::new();
        assert!(pool.get(0xa).is_none());
        pool.insert(0xa, (10.0, 5.0));
        assert_eq!(pool.get(0xa), Some((10.0, 5.0)));
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
    }

    #[test]
    fn hit_miss_counters() {
        let pool: ShardedCache<(f64, f64)> = ShardedCache::new();
        pool.insert(1, (1.0, 1.0));
        pool.get(1);
        pool.get(2);
        pool.get(1);
        assert_eq!(pool.stats(), (2, 1));
        pool.clear();
        assert_eq!(pool.stats(), (0, 0));
        assert!(pool.is_empty());
    }

    /// Satellite guard: N threads hammer one pool with interleaved inserts
    /// and lookups; afterwards no update may be lost (every inserted key
    /// present) and the stats must balance exactly (hits + misses == total
    /// lookups), which the old two-`RwLock<u64>` counters guaranteed only by
    /// luck of lock interleaving and atomics must preserve under real
    /// contention.
    #[test]
    fn sharded_pool_multithread_stress_no_lost_updates() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let pool = std::sync::Arc::new(ShardedCache::<(f64, f64)>::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let own = (t << 32) | i;
                        pool.insert(own, (i as f64, t as f64));
                        // One guaranteed hit (own key, just inserted)...
                        assert_eq!(pool.get(own), Some((i as f64, t as f64)), "lost update on {own:#x}");
                        // ...and one lookup of a key no thread ever inserts.
                        assert!(pool.get(u64::MAX - own).is_none());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress thread");
        }
        assert_eq!(pool.len() as u64, THREADS * PER_THREAD);
        let (hits, misses) = pool.stats();
        assert_eq!(hits, THREADS * PER_THREAD, "stable hit count");
        assert_eq!(misses, THREADS * PER_THREAD, "stable miss count");
        // Every key is still present with the value its writer stored.
        for t in 0..THREADS {
            for i in (0..PER_THREAD).step_by(97) {
                assert_eq!(pool.get((t << 32) | i), Some((i as f64, t as f64)));
            }
        }
    }

    #[test]
    fn subtree_cache_state_roundtrip_and_node_stats() {
        let cache = SubtreeStateCache::new();
        let state = Arc::new(SubtreeState { g: vec![1.0, 2.0], r: vec![3.0, 4.0] });
        assert!(cache.get(7).is_none());
        cache.insert(7, Arc::clone(&state));
        assert_eq!(cache.get(7).as_deref(), Some(&*state));
        assert_eq!(cache.len(), 1);

        assert_eq!(cache.node_hit_rate(), 0.0);
        cache.record_nodes(10, 4);
        cache.record_nodes(10, 1);
        assert_eq!(cache.node_stats(), (20, 5));
        assert!((cache.node_hit_rate() - 0.75).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.node_stats(), (0, 0));
        assert_eq!(cache.stats(), (0, 0));
    }
}
