//! Program set-up: everything between process start and the first estimate
//! a workload can serve, each step timed as a span around the public call
//! into its layer.
//!
//! The database, the training suite and the fit use fixed seeds, so every
//! run serves the same model and the served-accuracy metrics are comparable
//! across runs; the benchmark's `--seed` drives only the DP rounds.

use crate::trace::Trace;
use estimator_core::{CostEstimator, ModelConfig, PredicateModelKind, RepresentationCellKind, TaskMode, TrainConfig};
use featurize::{EncodingConfig, FeatureExtractor};
use imdb::{generate_imdb, Database, GeneratorConfig};
use std::sync::Arc;
use strembed::{build_string_encoder, EmbedderConfig, HashBitmapEncoder, StringEncoder, StringEncoding};
use workloads::{workload_strings, QuerySample, SuiteConfig, WorkloadKind, WorkloadSuite};

/// What a workload's model is fitted on.
#[derive(Debug, Clone, Copy)]
pub struct ModelSetup {
    pub suite: WorkloadKind,
    /// `None` keeps the per-character hash bitmap (no string model to build).
    pub encoding: Option<StringEncoding>,
}

/// The reproduction benches' default scale (`bench::BenchScale` at
/// `E2E_SCALE=1`), with a larger held-out split for the q-error figures.
const N_TITLES: usize = 2000;
const TRAIN_QUERIES: usize = 120;
const TEST_QUERIES: usize = 60;
const EPOCHS: usize = 5;

/// A fitted model plus what the benchmark needs beside it.
pub struct Model {
    pub db: Arc<Database>,
    pub test: Vec<QuerySample>,
    pub estimator: CostEstimator,
    /// The extractor the model was fitted with; checkpoint installs build
    /// their fresh estimators on clones of it (same vocabulary, shared
    /// bitmap memo).
    pub extractor: FeatureExtractor,
}

const STRING_DIM: usize = 16;

pub fn model_config() -> ModelConfig {
    ModelConfig {
        cell: RepresentationCellKind::Lstm,
        predicate: PredicateModelKind::MinMaxPool,
        task: TaskMode::Multitask,
        feature_embed_dim: 16,
        hidden_dim: 32,
        estimation_hidden_dim: 16,
        ..Default::default()
    }
}

pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: 16,
        learning_rate: 0.003,
        validation_fraction: 0.1,
        early_stop_patience: None,
        seed: 7,
    }
}

/// Build and fit the model, recording one span per layer call under the
/// caller's `setup` span `root`.
pub fn build(setup: &ModelSetup, trace: &mut Trace, trace_id: u64, root: usize) -> Model {
    let db = trace.span("imdb.generate", trace_id, Some(root), || {
        Arc::new(generate_imdb(GeneratorConfig { n_titles: N_TITLES, sample_size: 128, seed: 42 }))
    });
    let suite = trace.span("engine.label", trace_id, Some(root), || {
        WorkloadSuite::build(
            &db,
            setup.suite,
            SuiteConfig { train_queries: TRAIN_QUERIES, test_queries: TEST_QUERIES, seed: 1000 },
        )
    });
    let strings = workload_strings(&suite.train);
    let encoder: Arc<dyn StringEncoder> = trace.span("strembed.build", trace_id, Some(root), || match setup.encoding {
        None => Arc::new(HashBitmapEncoder::new(STRING_DIM)),
        Some(kind) => build_string_encoder(
            &db,
            &strings,
            kind,
            EmbedderConfig { dim: STRING_DIM, max_rows_per_table: 300, epochs: 2, ..Default::default() },
        ),
    });
    let extractor =
        FeatureExtractor::new(Arc::clone(&db), EncodingConfig::from_database(&db, STRING_DIM, 128), encoder);
    let mut estimator = CostEstimator::new(extractor.clone(), model_config(), train_config());
    let train: Vec<_> = suite.train.iter().map(|s| s.plan.clone()).collect();
    trace.span("core.fit", trace_id, Some(root), || estimator.fit(&train));
    Model { db, test: suite.test, estimator, extractor }
}
