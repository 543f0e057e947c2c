//! Estimation efficiency (the setting of Table 12): compare one-by-one
//! estimation against level-wise batched inference and the memory pool of
//! sub-plan representations (the subtree-state cache).
//!
//! Run with: `cargo run --release --example efficiency_batching`

use e2e_cost_estimator::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Full-size database: ground truth goes through the counting executor,
    // which propagates per-key match counts instead of materializing join
    // tuples, so the Scale workload's 4-way star joins are cheap to label
    // even on the hottest movies.
    let db = Arc::new(generate_imdb(GeneratorConfig { n_titles: 2_000, sample_size: 128, seed: 42 }));
    let suite = WorkloadSuite::build(
        &db,
        WorkloadKind::Scale,
        SuiteConfig { train_queries: 100, test_queries: 60, seed: 2000 },
    );

    let enc = EncodingConfig::from_database(&db, 16, 128);
    let extractor = FeatureExtractor::new(db.clone(), enc, Arc::new(HashBitmapEncoder::new(16)));
    let mut estimator =
        CostEstimator::new(extractor, ModelConfig::default(), TrainConfig { epochs: 3, ..Default::default() });
    let plans: Vec<PlanNode> = suite.train.iter().map(|s| s.plan.clone()).collect();
    estimator.fit(&plans);

    let test_plans: Vec<PlanNode> = suite.test.iter().map(|s| s.plan.clone()).collect();
    let encoded: Vec<_> = test_plans.iter().map(|p| estimator.encode(p)).collect();
    let n = encoded.len();

    let start = Instant::now();
    for p in &encoded {
        estimator.estimate_encoded(p);
    }
    let one_by_one = start.elapsed();

    let start = Instant::now();
    let batched = estimator.estimate_encoded_batch(&encoded);
    let batch_time = start.elapsed();

    // Memory pool: a repeated plan is served from its root's cached state,
    // so the repeat pass embeds no node.
    let start = Instant::now();
    for p in &test_plans {
        estimator.estimate(p);
    }
    let first_pass = start.elapsed();
    let (seen_before, computed_before) = estimator.subtree_cache().node_stats();
    let start = Instant::now();
    for p in &test_plans {
        estimator.estimate(p);
    }
    let cached_pass = start.elapsed();
    let (seen, computed) = estimator.subtree_cache().node_stats();
    let (seen, computed) = (seen - seen_before, computed - computed_before);

    println!("queries: {n}");
    println!("one-by-one inference : {:>9.3} ms/query", one_by_one.as_secs_f64() * 1e3 / n as f64);
    println!("level-batched        : {:>9.3} ms/query", batch_time.as_secs_f64() * 1e3 / n as f64);
    println!("memory-pool 1st pass : {:>9.3} ms/query", first_pass.as_secs_f64() * 1e3 / n as f64);
    println!(
        "memory-pool repeat   : {:>9.3} ms/query (nodes seen {seen}, embedded {computed})",
        cached_pass.as_secs_f64() * 1e3 / n as f64
    );
    println!("batched results for first 3 plans: {:?}", &batched[..n.min(3)]);
}
