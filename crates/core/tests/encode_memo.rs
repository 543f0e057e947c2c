//! Contract tests of the memoized featurization path: signature-memoized
//! `encode_plans` must be **bit-identical** to fresh `encode_plan` — cold
//! cache, warm cache, under eviction, and under concurrent sessions sharing
//! one encode cache ([`ShardedCache`]).

use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, GeneratorConfig};
use proptest::prelude::*;
use query::{PlanNode, ShardedCache};
use std::sync::{Arc, OnceLock};
use strembed::HashBitmapEncoder;
use workloads::{generate_enumeration_workload, EnumerationConfig};

struct Fixture {
    db: Arc<imdb::Database>,
    fx: FeatureExtractor,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
        Fixture { db, fx }
    })
}

proptest! {
    #[test]
    fn memoized_encode_is_bit_identical_on_randomized_planner_output(seed in 0u64..1_000_000) {
        let fixture = fixture();
        let workload = generate_enumeration_workload(
            &fixture.db,
            EnumerationConfig { num_queries: 1, min_joins: 1, max_joins: 3, max_candidates_per_query: 12, seed },
        );
        prop_assert!(!workload.is_empty(), "no enumerable query for seed {seed}");
        let candidates = &workload[0].candidates;
        let fresh: Vec<EncodedPlan> = candidates.iter().map(|c| fixture.fx.encode_plan(c)).collect();

        // Cold shared cache: every plan bit-identical to fresh encoding.
        let cache = ShardedCache::new();
        let cold = fixture.fx.encode_plans_cached(candidates, &cache);
        prop_assert_eq!(cold.len(), fresh.len());
        for (c, f) in cold.iter().zip(&fresh) {
            prop_assert_eq!(c.as_ref(), f);
        }
        // Candidates of one enumeration share their leaf scans, so the
        // batch itself must have deduplicated (cache hits within one pass).
        let (hits, misses) = cache.stats();
        prop_assert!(hits > 0, "candidate join orders share scans; expected intra-batch hits");
        prop_assert!(misses as usize >= cache.len());

        // Warm cache: still bit-identical, now served from memo entries.
        let warm = fixture.fx.encode_plans_cached(candidates, &cache);
        for (w, f) in warm.iter().zip(&fresh) {
            prop_assert_eq!(w.as_ref(), f);
        }

        // The allocation-local batch front door agrees too.
        let local = fixture.fx.encode_plans(candidates);
        prop_assert_eq!(&local, &fresh);

        // Eviction can only cost re-encodes, never change results: a
        // one-entry-per-shard cache thrashes constantly and must still be
        // bit-identical.
        let tiny = ShardedCache::with_shard_capacity(1);
        let evicted = fixture.fx.encode_plans_cached(candidates, &tiny);
        for (e, f) in evicted.iter().zip(&fresh) {
            prop_assert_eq!(e.as_ref(), f);
        }
    }
}

#[test]
fn concurrent_sessions_share_the_encode_cache_without_lost_updates() {
    let fixture = fixture();
    let workload = generate_enumeration_workload(
        &fixture.db,
        EnumerationConfig { num_queries: 6, min_joins: 2, max_joins: 3, max_candidates_per_query: 40, seed: 11 },
    );
    let stream: Vec<PlanNode> = workload.into_iter().flat_map(|s| s.candidates).collect();
    let total_nodes: usize = stream.iter().map(|p| p.size()).sum();
    let fresh: Vec<EncodedPlan> = stream.iter().map(|p| fixture.fx.encode_plan(p)).collect();

    const THREADS: usize = 8;
    let cache = Arc::new(ShardedCache::new());
    let results: Vec<Vec<Arc<EncodedPlan>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let stream = &stream;
                let fx = &fixture.fx;
                scope.spawn(move || fx.encode_plans_cached(stream, cache.as_ref()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("encode thread")).collect()
    });

    // Every session's output is bit-identical to single-threaded fresh
    // encoding — concurrent insert races can duplicate work but never
    // surface a wrong or partially-written entry.
    for per_thread in &results {
        assert_eq!(per_thread.len(), fresh.len());
        for (got, want) in per_thread.iter().zip(&fresh) {
            assert_eq!(got.as_ref(), want, "shared-cache encode must match fresh encoding");
        }
    }

    // Counters balance: one probe per plan node per session, every probe
    // either hit or missed, and no insert was lost (every resident entry
    // traces back to a miss).
    let (hits, misses) = cache.stats();
    assert_eq!(hits + misses, (THREADS * total_nodes) as u64, "every node probes the cache exactly once");
    assert!(misses as usize >= cache.len(), "every resident entry stems from a miss");
    assert!(!cache.is_empty(), "the shared cache must retain the workload's distinct subtrees");
    // Sessions after the first mostly hit: the workload has far fewer
    // distinct subtrees than 8x its node count.
    assert!(hits > misses, "warm sessions must be dominated by hits");
}
