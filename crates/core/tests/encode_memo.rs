//! Contract tests of the memoized featurization path: key-first
//! `encode_plans` must be **bit-identical** to fresh `encode_plan` — cold
//! cache, warm cache, under eviction, for annotated and un-annotated twins,
//! and under concurrent sessions sharing one encode cache
//! ([`ShardedCache`]) — and must probe the cache top-down, stopping at the
//! first hit.

use engine::{execute_plan, CostModel};
use featurize::{EncodedPlan, EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, GeneratorConfig};
use proptest::prelude::*;
use query::{PlanNode, ShardedCache};
use std::collections::HashMap;
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

/// Distinct subtrees of un-annotated `plans` (whose memo key is their
/// signature), each with its child count.
fn distinct_subtrees(plans: &[PlanNode]) -> HashMap<u64, u64> {
    plans.iter().flat_map(|p| p.nodes_preorder()).map(|n| (n.signature_hash(), n.children.len() as u64)).collect()
}

/// `(hits, misses)` of one key-first pass over un-annotated `plans` on a
/// cold cache that never evicts: each distinct subtree misses exactly once,
/// and each plan probes its root plus the children of every miss.
fn cold_pass_probes(plans: &[PlanNode]) -> (u64, u64) {
    let distinct = distinct_subtrees(plans);
    let misses = distinct.len() as u64;
    (plans.len() as u64 + distinct.values().sum::<u64>() - misses, misses)
}

/// `plan` with ground-truth targets on its root only: its subtrees stay
/// un-annotated, so it shares them with the bare plan in the encode cache.
fn root_annotated(db: &imdb::Database, plan: &PlanNode) -> PlanNode {
    let mut executed = plan.clone();
    execute_plan(db, &mut executed, &CostModel::default());
    let mut twin = plan.clone();
    twin.annotations = executed.annotations;
    twin
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
        // batch itself must have deduplicated (cache hits within one pass),
        // probing exactly as key-first predicts.
        let (hits, misses) = cache.stats();
        prop_assert!(hits > 0, "candidate join orders share scans; expected intra-batch hits");
        prop_assert_eq!((hits, misses), cold_pass_probes(candidates));
        prop_assert_eq!(cache.len() as u64, misses);

        // Warm cache: still bit-identical, now one root probe per plan.
        let warm = fixture.fx.encode_plans_cached(candidates, &cache);
        for (w, f) in warm.iter().zip(&fresh) {
            prop_assert_eq!(w.as_ref(), f);
        }
        prop_assert!(cache.stats() == (hits + candidates.len() as u64, misses), "a warm plan costs one probe");

        // Annotated and un-annotated twins in one batch through one cache:
        // fully executed twins, twins annotated on the root only (sharing
        // the bare plan's subtrees), twins annotated everywhere but the
        // root (sharing the executed plan's subtrees), and the bare plans
        // themselves.  Each encodes to exactly its own fresh encoding, so
        // no twin aliases another.
        let mut twins: Vec<PlanNode> = Vec::new();
        for c in candidates {
            let mut executed = c.clone();
            execute_plan(&fixture.db, &mut executed, &CostModel::default());
            let mut headless = executed.clone();
            headless.annotations = Default::default();
            twins.extend([executed, root_annotated(&fixture.db, c), headless, c.clone()]);
        }
        let shared = ShardedCache::new();
        let mixed = fixture.fx.encode_plans_cached(&twins, &shared);
        for (m, t) in mixed.iter().zip(&twins) {
            prop_assert_eq!(m.as_ref(), &fixture.fx.encode_plan(t));
        }
        for quad in mixed.chunks(4) {
            let (executed, rooted, headless, bare) = (&quad[0], &quad[1], &quad[2], &quad[3]);
            for twin in [executed, rooted, headless] {
                prop_assert!(!Arc::ptr_eq(twin, bare), "an annotated twin aliased the bare plan");
            }
            prop_assert!(bare.true_cost == 0.0, "the bare twin inherited cached targets");
            prop_assert!(rooted.true_cost > 0.0, "the root-annotated twin lost its targets");
            for (r, b) in rooted.children.iter().zip(&bare.children) {
                prop_assert!(Arc::ptr_eq(r, b), "un-annotated subtrees must be shared between twins");
            }
            for (h, e) in headless.children.iter().zip(&executed.children) {
                prop_assert!(Arc::ptr_eq(h, e), "annotated subtrees must be shared between twins");
            }
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

    // Counters balance.  Every plan probes its root, and a probe descends
    // only below a miss, so a session probes at least once per plan and at
    // most as often as a lone session on a cold cache would.  Each session
    // misses a distinct subtree at most once (its own insert then serves
    // it), and some session missed each one first.  No insert was lost:
    // every distinct subtree is resident, once.
    let distinct = distinct_subtrees(&stream);
    let (lone_hits, lone_misses) = cold_pass_probes(&stream);
    let (hits, misses) = cache.stats();
    let probes = hits + misses;
    assert!(probes >= (THREADS * stream.len()) as u64, "{probes} probes: some plan skipped its root probe");
    assert!(probes <= THREADS as u64 * (lone_hits + lone_misses), "{probes} probes: a session probed below a hit");
    assert!(misses >= distinct.len() as u64, "{misses} misses for {} distinct subtrees", distinct.len());
    assert!(misses <= (THREADS * distinct.len()) as u64, "{misses} misses: a session re-encoded its own subtree");
    assert_eq!(cache.len(), distinct.len(), "every distinct subtree resident exactly once");
    assert_eq!(lone_misses, distinct.len() as u64);
    // Sessions after the first mostly hit: the workload has far fewer
    // distinct subtrees than 8x its plan count.
    assert!(hits > misses, "warm sessions must be dominated by hits");
    assert!(probes < (THREADS * total_nodes) as u64, "key-first must probe fewer times than once per node");

    // Once warm, every plan is one probe and one hit.
    let warm = fixture.fx.encode_plans_cached(&stream, &cache);
    assert!(warm.iter().zip(&fresh).all(|(w, f)| w.as_ref() == f));
    assert_eq!(cache.stats(), (hits + stream.len() as u64, misses), "a warm plan costs one probe");
}
