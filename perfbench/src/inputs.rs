//! Seeded DP-round generation, owned by the benchmark.
//!
//! A round is what an optimizer sends for one query: every candidate join
//! order its DP enumeration produced.  Queries come from the repository's
//! query generator and candidates from the planner's join-order enumerator;
//! the program under test only ever receives the resulting `PlanNode`s.

use engine::PlannerConfig;
use imdb::Database;
use query::{Operand, PlanNode};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use workloads::{QueryGenerator, WorkloadConfig};

/// Shape of the queries a workload's rounds are drawn from.
#[derive(Debug, Clone, Copy)]
pub struct RoundShape {
    pub min_joins: usize,
    pub max_joins: usize,
    pub max_predicates_per_table: usize,
    pub string_predicates: bool,
    pub or_probability: f64,
    pub max_candidates: usize,
}

/// An endless, seeded stream of DP rounds.
pub struct RoundStream<'a> {
    db: &'a Database,
    generator: QueryGenerator<'a>,
    planner: PlannerConfig,
    max_candidates: usize,
}

impl<'a> RoundStream<'a> {
    pub fn new(db: &'a Database, shape: RoundShape, seed: u64) -> Self {
        let config = WorkloadConfig {
            num_queries: 0,
            min_joins: shape.min_joins,
            max_joins: shape.max_joins,
            max_predicates_per_table: shape.max_predicates_per_table,
            use_string_predicates: shape.string_predicates,
            or_probability: shape.or_probability,
            seed,
        };
        RoundStream {
            db,
            generator: QueryGenerator::new(db, config),
            planner: PlannerConfig::default(),
            max_candidates: shape.max_candidates,
        }
    }

    /// The next round with at least two candidates (a single candidate gives
    /// the optimizer nothing to choose between).
    pub fn next_round(&mut self) -> Vec<PlanNode> {
        loop {
            let query = self.generator.generate_query();
            let candidates = engine::enumerate_join_orders(self.db, &query, &self.planner, self.max_candidates);
            if candidates.len() >= 2 {
                return candidates;
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Vec<PlanNode>> {
        (0..n).map(|_| self.next_round()).collect()
    }
}

/// A seeded replay order over a fixed set of templates: every pass visits
/// each template once, in a freshly shuffled order, so each template serves
/// the same share of rounds whatever the seed.
pub struct ReplayOrder {
    rng: ChaCha8Rng,
    order: Vec<usize>,
}

impl ReplayOrder {
    pub fn new(templates: usize, seed: u64) -> Self {
        ReplayOrder { rng: ChaCha8Rng::seed_from_u64(seed), order: (0..templates).collect() }
    }

    pub fn next_pass(&mut self) -> &[usize] {
        self.order.shuffle(&mut self.rng);
        &self.order
    }
}

/// The input properties that decide how the caches behave on a stream.
#[derive(Debug, Default)]
pub struct InputStats {
    rounds: usize,
    candidates: Vec<usize>,
    subtrees: HashSet<u64>,
    scans: HashSet<u64>,
    string_scans: usize,
}

impl InputStats {
    pub fn add(&mut self, round: &[PlanNode]) {
        self.rounds += 1;
        self.candidates.push(round.len());
        for plan in round {
            for node in plan.nodes_preorder() {
                let sig = node.signature_hash();
                if self.subtrees.insert(sig) && node.op.is_scan() && self.scans.insert(sig) {
                    let mut string_atom = false;
                    if let Some(pred) = node.op.predicate() {
                        pred.for_each_atom(&mut |a| {
                            string_atom |= matches!(a.operand, Operand::Str(_) | Operand::StrList(_));
                        });
                    }
                    self.string_scans += usize::from(string_atom);
                }
            }
        }
    }

    /// One JSON object with the properties, against the cache bounds.
    pub fn to_json(&self) -> String {
        let mut c = self.candidates.clone();
        c.sort_unstable();
        let (min, med, max) = match c.as_slice() {
            [] => (0, 0, 0),
            s => (s[0], s[(s.len() - 1) / 2], s[s.len() - 1]),
        };
        format!(
            "{{\"rounds\": {}, \"candidates_per_round\": {{\"min\": {min}, \"median\": {med}, \"max\": {max}}}, \
             \"distinct_subtrees\": {}, \"encode_cache_bound\": {ENCODE_CACHE_BOUND}, \
             \"subtree_cache_bound\": {SUBTREE_CACHE_BOUND}, \"distinct_scans\": {}, \"string_scan_share\": {:.4}}}",
            self.rounds,
            self.subtrees.len(),
            self.scans.len(),
            self.string_scans as f64 / self.scans.len().max(1) as f64,
        )
    }
}

/// Entry bound of the serving encode cache (16 shards x 2,048).
pub const ENCODE_CACHE_BOUND: usize = 32_768;
/// Entry bound of the subtree-state cache (16 shards x 16,384).
pub const SUBTREE_CACHE_BOUND: usize = 262_144;
