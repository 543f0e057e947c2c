//! The three closed-loop workloads and what each measures.
//!
//! * `dp_warm` — one client replays recurring templates through
//!   `ServingEstimator::estimate_plans`; the working set fits every cache.
//! * `dp_cold` — one client sends a query never seen before in every round,
//!   with string predicates, against a model fitted under the rule-based
//!   string embedding; the stream outgrows the encode cache.
//! * `dp_online` — two sessions of one tenant serve the `dp_warm` templates
//!   through the catalog's aggregator path with feedback capture on, while
//!   session 0 republishes the tenant from a checkpoint on a fixed round
//!   schedule and drains the feedback log.  The sessions take turns on one
//!   thread: on a 2-CPU host with CPU steal, two busy session threads made
//!   the tail and the rate swing by more than any usable bound between runs,
//!   so concurrent sessions are left to a workload of their own.
//!
//! Every workload first checks a sample of rounds bit for bit against a
//! reference path, then measures for the requested time.  With tracing on,
//! blocks of traced and untraced rounds alternate: the traced blocks give
//! the per-layer split, and the untraced ones the rate the overhead is
//! measured against.

use crate::inputs::{InputStats, ReplayOrder, RoundShape, RoundStream};
use crate::setup::{self, Model, ModelSetup};
use crate::trace::Trace;
use estimator_core::{CostEstimator, ServingEstimator};
use featurize::{EncodedPlan, FeatureExtractor};
use query::PlanNode;
use serving::{FeedbackConfig, ModelCatalog, TenantBackend};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use strembed::StringEncoding;
use workloads::WorkloadKind;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Warm,
    Cold,
    Online,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "dp_warm" => Some(Workload::Warm),
            "dp_cold" => Some(Workload::Cold),
            "dp_online" => Some(Workload::Online),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Warm => "dp_warm",
            Workload::Cold => "dp_cold",
            Workload::Online => "dp_online",
        }
    }

    fn model_setup(self) -> ModelSetup {
        let (suite, encoding) = match self {
            Workload::Cold => (WorkloadKind::JobStrings, Some(StringEncoding::EmbedRule)),
            Workload::Warm | Workload::Online => (WorkloadKind::JobLight, None),
        };
        ModelSetup { suite, encoding }
    }

    fn round_shape(self) -> RoundShape {
        match self {
            Workload::Cold => RoundShape {
                min_joins: 3,
                max_joins: 5,
                max_predicates_per_table: 3,
                string_predicates: true,
                or_probability: 0.3,
                max_candidates: COLD_MAX_CANDIDATES,
            },
            Workload::Warm | Workload::Online => RoundShape {
                min_joins: 3,
                max_joins: 4,
                max_predicates_per_table: 2,
                string_predicates: false,
                or_probability: 0.15,
                max_candidates: 120,
            },
        }
    }
}

/// Recurring templates replayed by `dp_warm` and `dp_online`: a fixed
/// catalogue, like JOB-light's fixed query set, so that a run's latency
/// percentiles describe the code and not which queries a seed drew; the
/// seed picks the replay order.  Every template serves 1/49 of the rounds,
/// so the p50 falls inside the middle template's latencies and the p99
/// inside the slowest one's, instead of on the edge between two templates
/// or in the host's noise.
const TEMPLATES: usize = 49;
const TEMPLATE_SEED: u64 = 31;
/// `dp_cold` candidates per round.  A host stall lands in the one round in
/// flight, so the p99 is steady only while stalls hit well under 1% of the
/// rounds; with up to 120 candidates a run served about 4,000 rounds and
/// the stalls of a bad period reached 2% of them.
const COLD_MAX_CANDIDATES: usize = 24;
/// `dp_cold` rounds generated per chunk; the clock is paused while a chunk
/// is generated, so input generation is never timed.
const COLD_CHUNK: usize = 64;
/// `dp_cold` rounds checked against the reference path before timing
/// (drawn from a separate stream, so the timed rounds stay unseen).
const COLD_VERIFY_ROUNDS: usize = 16;
/// `dp_online`: session 0 republishes after this many of its own rounds.
/// Each republish makes both sessions refill the template working set from
/// empty caches, close to one round in ten, so the p99 lies well inside the
/// refill rounds rather than on their edge, where it flips between runs.
const REPUBLISH_EVERY: u64 = 512;
const TENANT: &str = "tenant";

/// Everything a run measured; `main` turns it into the report.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Per set-up stage, the duration of each repetition (seconds).
    pub setup_stages: Vec<(&'static str, Vec<f64>)>,
    /// Latency of every untraced timed round, in µs.
    pub round_us: Vec<f64>,
    pub untraced_plans: u64,
    pub untraced_s: f64,
    pub traced_plans: u64,
    pub traced_s: f64,
    pub cost_qerrors: Vec<f64>,
    pub inputs: InputStats,
    pub trace: Option<Trace>,
    pub counters: Counters,
    /// Per-node multiply-adds of the embedding and representation layers,
    /// and per-plan multiply-adds of the heads, from the parameter shapes.
    pub node_macs: u64,
    pub head_macs: u64,
    /// `dp_online` only: install durations (ms) and each session's first
    /// round on a new generation (µs).
    pub publish_ms: Vec<f64>,
    pub first_round_us: Vec<f64>,
    pub rounds_served: u64,
}

/// Counter deltas over the timed phase, read from each layer's stats API.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub encode_hits: u64,
    pub encode_misses: u64,
    pub encode_entries: usize,
    pub bitmap_hits: u64,
    pub bitmap_misses: u64,
    pub nodes_seen: u64,
    pub nodes_computed: u64,
    pub waves: u64,
    pub feedback_recorded: u64,
    pub feedback_overwritten: u64,
}

struct Snapshot {
    encode: (u64, u64),
    bitmap: (u64, u64),
    nodes: (u64, u64),
}

impl Snapshot {
    fn of(serving: &ServingEstimator) -> Self {
        Snapshot {
            encode: serving.encode_cache().stats(),
            bitmap: serving.extractor().bitmap_memo_stats(),
            nodes: serving.cache().node_stats(),
        }
    }

    fn delta_into(&self, later: &Snapshot, c: &mut Counters) {
        c.encode_hits += later.encode.0 - self.encode.0;
        c.encode_misses += later.encode.1 - self.encode.1;
        c.bitmap_hits += later.bitmap.0 - self.bitmap.0;
        c.bitmap_misses += later.bitmap.1 - self.bitmap.1;
        c.nodes_seen += later.nodes.0 - self.nodes.0;
        c.nodes_computed += later.nodes.1 - self.nodes.1;
    }
}

/// Where checkpoints and trace files go: inside the build directory.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

/// Build the workload's model `SETUP_REPS` times, keeping the last.
fn set_up(
    workload: Workload,
    m: &mut Measured,
    trace: &mut Trace,
    publish: impl Fn(&Model, &mut Trace, u64, usize),
) -> Model {
    let mut model: Option<Model> = None;
    for rep in 0..SETUP_REPS {
        drop(model.take()); // free the previous repetition's model first
        let root = trace.begin("setup", rep, None);
        let built = setup::build(&workload.model_setup(), trace, rep, root);
        publish(&built, trace, rep, root);
        trace.end(root);
        model = Some(built);
    }
    let spans = trace.spans();
    for name in ["setup", "imdb.generate", "engine.label", "strembed.build", "core.fit", "serving.publish"] {
        let secs: Vec<f64> = spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-9).collect();
        if name == "setup" {
            m.setup_s = secs;
        } else if !secs.is_empty() {
            m.setup_stages.push((name, secs));
        }
    }
    model.expect("at least one set-up repetition")
}

/// Multiply-adds per computed node (embedding and representation weights)
/// and per plan (the two heads), from the model's parameter shapes.
fn macs(model: &estimator_core::TreeModel) -> (u64, u64) {
    let (mut node, mut head) = (0u64, 0u64);
    for p in model.params.params() {
        let (rows, cols) = (p.value.rows() as u64, p.value.cols() as u64);
        if cols <= 1 {
            continue; // biases
        }
        if p.name.starts_with("est.") {
            head += rows * cols;
        } else if p.name.starts_with("repr.")
            || (p.name.starts_with("embed.") && !p.name.starts_with("embed.pred_lstm"))
        {
            // The min/max-pool predicate model never runs the predicate LSTM.
            node += rows * cols;
        }
    }
    (node, head)
}

/// Plans whose served estimate is not finite or differs in any bit from the
/// reference; every plan when the counts differ.
fn mismatches(served: &[(f64, f64)], reference: &[(f64, f64)]) -> u64 {
    if served.len() != reference.len() {
        return reference.len() as u64;
    }
    let same = |x: &(f64, f64), y: &(f64, f64)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits();
    served.iter().zip(reference).filter(|(x, y)| !(same(x, y) && x.0.is_finite() && x.1.is_finite())).count() as u64
}

fn non_finite(out: &[(f64, f64)]) -> u64 {
    out.iter().filter(|e| !(e.0.is_finite() && e.1.is_finite())).count() as u64
}

/// Served estimates must equal a fresh `encode_plan` of every candidate
/// scored by the unmemoized batch path, bit for bit.
fn verify_direct(estimator: &CostEstimator, serving: &ServingEstimator, round: &[PlanNode], m: &mut Measured) {
    let served = serving.estimate_plans(round);
    let fresh: Vec<EncodedPlan> = round.iter().map(|p| estimator.extractor().encode_plan(p)).collect();
    let reference = estimator.estimate_encoded_batch(&fresh);
    m.attempted += round.len() as u64;
    m.failed += mismatches(&served, &reference);
}

/// One untraced round through the direct front door; returns plans served.
fn serve_direct(serving: &ServingEstimator, round: &[PlanNode], m: &mut Measured) -> u64 {
    let out = serving.estimate_plans(round);
    m.attempted += out.len() as u64;
    m.failed += non_finite(&out);
    out.len() as u64
}

/// The same round, with a span around each layer call `estimate_plans` makes.
fn serve_direct_traced(
    serving: &ServingEstimator,
    round: &[PlanNode],
    rid: u64,
    t: &mut Trace,
    m: &mut Measured,
) -> u64 {
    let root = t.begin("round", rid, None);
    let encoded = t.span("featurize.encode_plans", rid, Some(root), || serving.encode_plans(round));
    let refs: Vec<&EncodedPlan> = encoded.iter().map(|a| a.as_ref()).collect();
    let out = t.span("core.estimate_encoded_batch", rid, Some(root), || serving.estimate_encoded_batch(&refs));
    t.end(root);
    m.attempted += out.len() as u64;
    m.failed += non_finite(&out);
    out.len() as u64
}

fn cost_qerrors(model: &Model, served: &[(f64, f64)]) -> Vec<f64> {
    model.test.iter().zip(served).map(|(s, e)| metrics::q_error(e.0, s.true_cost())).collect()
}

/// `dp_warm` and `dp_cold`: one client on the direct serving handle.
pub fn run_direct(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let model = set_up(workload, &mut m, &mut trace, |_, _, _, _| {});
    let serving = model.estimator.serving();
    (m.node_macs, m.head_macs) = macs(serving.model());

    let shape = workload.round_shape();
    let mut stream = RoundStream::new(&model.db, shape, seed);
    let templates = if workload == Workload::Warm {
        RoundStream::new(&model.db, shape, TEMPLATE_SEED).take(TEMPLATES)
    } else {
        Vec::new()
    };
    let mut replay = ReplayOrder::new(templates.len(), seed);
    for round in &templates {
        m.inputs.add(round);
    }
    // Check first; for dp_warm this pass also warms every cache.
    let verify = match workload {
        Workload::Warm => templates.clone(),
        _ => RoundStream::new(&model.db, shape, seed ^ 0x9e37_79b9_7f4a_7c15).take(COLD_VERIFY_ROUNDS),
    };
    for round in &verify {
        verify_direct(&model.estimator, &serving, round, &mut m);
    }

    let before = Snapshot::of(&serving);
    let budget = Duration::from_secs_f64(seconds);
    let (mut timed, mut block, mut rid) = (Duration::ZERO, 0u64, SETUP_REPS);
    m.round_us.reserve(1 << 20);
    'run: loop {
        let fresh;
        let chunk: Vec<&Vec<PlanNode>> = match workload {
            Workload::Warm => replay.next_pass().iter().map(|&i| &templates[i]).collect(),
            _ => {
                fresh = stream.take(COLD_CHUNK);
                for round in &fresh {
                    m.inputs.add(round);
                }
                fresh.iter().collect()
            }
        };
        let traced_block = traced && block % 2 == 1;
        let start = Instant::now();
        for round in chunk {
            let t0 = Instant::now();
            let plans = if traced_block {
                serve_direct_traced(&serving, round, rid, &mut trace, &mut m)
            } else {
                serve_direct(&serving, round, &mut m)
            };
            let t1 = Instant::now();
            rid += 1;
            if traced_block {
                m.traced_plans += plans;
            } else {
                m.untraced_plans += plans;
                m.round_us.push((t1 - t0).as_secs_f64() * 1e6);
            }
            if timed + (t1 - start) >= budget {
                add_block_time(&mut m, traced_block, t1 - start);
                break 'run;
            }
        }
        let elapsed = start.elapsed();
        timed += elapsed;
        add_block_time(&mut m, traced_block, elapsed);
        block += 1;
    }
    m.rounds_served = rid - SETUP_REPS;
    let after = Snapshot::of(&serving);
    before.delta_into(&after, &mut m.counters);
    m.counters.encode_entries = serving.encode_cache().len();

    let test: Vec<PlanNode> = model.test.iter().map(|s| s.plan.clone()).collect();
    let served = serving.estimate_plans(&test);
    m.attempted += served.len() as u64;
    m.failed += non_finite(&served);
    m.cost_qerrors = cost_qerrors(&model, &served);
    if traced {
        m.trace = Some(trace);
    }
    m
}

fn add_block_time(m: &mut Measured, traced_block: bool, d: Duration) {
    if traced_block {
        m.traced_s += d.as_secs_f64();
    } else {
        m.untraced_s += d.as_secs_f64();
    }
}

/// A fresh, unfitted estimator on the fitted model's extractor: the vessel
/// every checkpoint install loads into.
fn vessel(extractor: &FeatureExtractor) -> TenantBackend {
    TenantBackend::tree(CostEstimator::new(extractor.clone(), setup::model_config(), setup::train_config()))
}

/// Session results must equal the pinned generation's direct handle.
fn verify_session(catalog: &ModelCatalog, templates: &[Vec<PlanNode>], m: &mut Measured) {
    let session = catalog.session(TENANT).expect("tenant exists");
    for round in templates {
        m.attempted += round.len() as u64;
        let pinned = session.model().expect("a model is published");
        let direct = pinned.tree().expect("tree backend").serving().estimate_plans(round);
        let served = session.encode_batch(round).and_then(|enc| session.estimate_encoded(&enc));
        m.failed += served.map_or(round.len() as u64, |s| mismatches(&s, &direct));
    }
}

/// Add the tenant's current generation's counters, read from its caches and
/// its aggregator, to `c`; every generation starts from zero.
fn retire(catalog: &ModelCatalog, c: &mut Counters) {
    let model = catalog.current(TENANT).expect("published");
    let tree = model.tree().expect("tree backend");
    let (hits, misses) = tree.encode_cache().stats();
    let (seen, computed) = tree.subtree_cache().node_stats();
    c.encode_hits += hits;
    c.encode_misses += misses;
    c.nodes_seen += seen;
    c.nodes_computed += computed;
    c.waves += model.aggregator().expect("tree backends have an aggregator").wave_stats().waves;
    c.encode_entries = tree.encode_cache().len();
}

/// `dp_online`: two sessions of one tenant on the aggregator path, taking
/// turns on one thread (see the module comment for why not two threads).
pub fn run_online(seed: u64, seconds: f64, traced: bool) -> Measured {
    let workload = Workload::Online;
    let mut m = Measured::default();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    std::fs::create_dir_all(out_dir()).expect("create the benchmark's output directory");
    let ckpt = out_dir().join(format!("online-{}.ckpt", std::process::id()));
    let catalog = ModelCatalog::new();
    let model = set_up(workload, &mut m, &mut trace, |built, trace, rep, root| {
        trace.span("serving.publish", rep, Some(root), || {
            built.estimator.save_checkpoint_model_only(&ckpt).expect("save the serving checkpoint");
            let extractor = built.extractor.clone();
            catalog.register_factory(TENANT, Box::new(move || vessel(&extractor)));
            catalog.install_checkpoint(TENANT, &ckpt).expect("install the serving checkpoint");
        });
    });
    let feedback = catalog.enable_feedback(TENANT, FeedbackConfig::default());
    let first = catalog.current(TENANT).expect("published");
    (m.node_macs, m.head_macs) = macs(first.tree().expect("tree backend").serving().model());

    let templates = RoundStream::new(&model.db, workload.round_shape(), TEMPLATE_SEED).take(TEMPLATES);
    // Check the session path on this generation and on a hot-swapped one,
    // then time from a freshly installed generation.
    verify_session(&catalog, &templates, &mut m);
    catalog.install_checkpoint(TENANT, &ckpt).expect("republish");
    verify_session(&catalog, &templates, &mut m);
    catalog.install_checkpoint(TENANT, &ckpt).expect("republish");
    for round in &templates {
        m.inputs.add(round);
    }
    let bitmap_before = model.extractor.bitmap_memo_stats();
    let log = feedback.log();
    let (recorded_before, overwritten_before) = (log.total_recorded(), log.total_overwritten());

    let sessions = [0, 1].map(|_| catalog.session(TENANT).expect("tenant exists"));
    let mut orders = [0, 1].map(|sid| ReplayOrder::new(templates.len(), seed ^ sid));
    // Each session's next round after a republish refills the caches.
    let mut refill_next = [true; 2];
    let budget = Duration::from_secs_f64(seconds);
    let (mut timed, mut block, mut session0_rounds) = (Duration::ZERO, 0u64, 0u64);
    m.round_us.reserve(1 << 20);
    'run: loop {
        let traced_block = traced && block % 2 == 1;
        let start = Instant::now();
        // One pass of each session over the templates, their rounds interleaved.
        let passes = orders.each_mut().map(|o| o.next_pass().to_vec());
        for k in 0..2 * templates.len() {
            let sid = k % 2;
            let (session, round) = (&sessions[sid], &templates[passes[sid][k / 2]]);
            if sid == 0 {
                if session0_rounds > 0 && session0_rounds % REPUBLISH_EVERY == 0 {
                    // Sessions pin the current generation per call, so the
                    // one being replaced serves no further round.
                    retire(&catalog, &mut m.counters);
                    let t = Instant::now();
                    catalog.install_checkpoint(TENANT, &ckpt).expect("republish");
                    m.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    drop(log.drain());
                    refill_next = [true; 2];
                }
                session0_rounds += 1;
            }
            let rid = m.rounds_served + SETUP_REPS;
            let t0 = Instant::now();
            let served = if traced_block {
                let root = trace.begin("round", rid, None);
                let enc = trace.span("serving.encode_batch", rid, Some(root), || session.encode_batch(round));
                let out = enc.and_then(|e| {
                    trace.span("serving.estimate_encoded", rid, Some(root), || session.estimate_encoded(&e))
                });
                trace.end(root);
                out
            } else {
                session.encode_batch(round).and_then(|e| session.estimate_encoded(&e))
            };
            let t1 = Instant::now();
            let us = (t1 - t0).as_secs_f64() * 1e6;
            m.rounds_served += 1;
            m.attempted += round.len() as u64;
            m.failed += served.as_deref().map_or(round.len() as u64, non_finite);
            if std::mem::take(&mut refill_next[sid]) {
                m.first_round_us.push(us);
            }
            if traced_block {
                m.traced_plans += round.len() as u64;
            } else {
                m.untraced_plans += round.len() as u64;
                m.round_us.push(us);
            }
            if timed + (t1 - start) >= budget {
                add_block_time(&mut m, traced_block, t1 - start);
                break 'run;
            }
        }
        let elapsed = start.elapsed();
        timed += elapsed;
        add_block_time(&mut m, traced_block, elapsed);
        block += 1;
    }

    retire(&catalog, &mut m.counters);
    let bitmap_after = model.extractor.bitmap_memo_stats();
    m.counters.bitmap_hits = bitmap_after.0 - bitmap_before.0;
    m.counters.bitmap_misses = bitmap_after.1 - bitmap_before.1;
    m.counters.feedback_recorded = log.total_recorded() - recorded_before;
    m.counters.feedback_overwritten = log.total_overwritten() - overwritten_before;

    let session = catalog.session(TENANT).expect("tenant exists");
    let test: Vec<PlanNode> = model.test.iter().map(|s| s.plan.clone()).collect();
    match session.encode_batch(&test).and_then(|e| session.estimate_encoded(&e)) {
        Some(served) => {
            m.attempted += served.len() as u64;
            m.failed += non_finite(&served);
            m.cost_qerrors = cost_qerrors(&model, &served);
        }
        None => {
            m.attempted += test.len() as u64;
            m.failed += test.len() as u64;
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    if traced {
        m.trace = Some(trace);
    }
    m
}
