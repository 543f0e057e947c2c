//! Level-wise batched inference (Section 4.3, "Batch Training").
//!
//! Instead of running the representation cell once per node per plan, all
//! nodes at the same tree level (height above the leaves) across a whole
//! batch of plans are packed into one matrix and the cell runs once per
//! level.  The model only needs `D` cell invocations for a batch (where `D`
//! is the maximum tree depth) instead of one per node — the speed-up that
//! Table 12 measures.
//!
//! # Hot-path layout
//!
//! The implementation here is the optimized form (see `docs/perf.md`):
//!
//! * nodes are bucketed by level in **one pass** over the flattened batch
//!   (`O(N)`), not re-scanned once per level (`O(D·N)`);
//! * per-node cell state lives in a dense `Vec` indexed by flat-node id, not
//!   a `HashMap`;
//! * the feature embedding layers run once per level over column-stacked
//!   inputs ([`TreeModel::embed_nodes_batch`]) instead of once per node;
//! * inference runs on an inference-mode tape ([`Graph::inference`]): no
//!   gradient slots, no op metadata;
//! * tapes are **per-thread** (with a parking pool handing warm tapes from
//!   finished threads to new ones), so concurrent estimators never
//!   serialize on a shared tape lock;
//! * independent groups of plans are estimated in parallel with rayon.
//!
//! On top of the level batching, [`estimate_batch_memo`] adds **subtree
//! memoization** for optimizer-in-the-loop serving: per-node `(G, R)` cell
//! states are cached in a sharded [`SubtreeStateCache`] keyed by the 64-bit
//! sub-plan signature, so a DP enumeration embeds each distinct subtree once
//! and re-scores candidate plans by combining cached states at the fringe —
//! with bit-identical results to the memoization-free path.
//!
//! [`reference::estimate_batch_reference`] preserves the original
//! implementation as a correctness oracle and as the "pre-optimization
//! batched path" baseline of the Table-12 efficiency bench.

use crate::memory::{SubtreeState, SubtreeStateCache};
use crate::model::TreeModel;
use crate::trainer::TargetNormalization;
use featurize::{EncodedPlan, FeatureExtractor, NodeFeatures};
use nn::cells::CellOutput;
use nn::{Graph, NodeId, ParamStore, QuantWeights};
use query::cache::IdentityHasher;
use query::PlanNode;
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Plans per parallel group.  Large enough that the per-level matrices fill
/// the blocked-matmul tiles and the per-level tape overhead amortizes,
/// small enough that large batches still split across cores.  Public so
/// harnesses comparing against the batched path can chunk identically.
pub const GROUP_SIZE: usize = 64;

/// Flattened view of one node of one plan in the batch.
struct FlatNode<'a> {
    height: usize,
    children: Vec<usize>,
    encoded: &'a EncodedPlan,
}

/// Dense per-node cell state: a (level-output node, column) pair per channel
/// — columns are gathered lazily with one `gather_cols` tape node per
/// channel per level instead of one `column_at` node per plan node.
#[derive(Clone, Copy)]
struct StateRef {
    g: (NodeId, usize),
    r: (NodeId, usize),
}

/// Flatten `plan` into `out`, returning `(flat index of the root, height)`.
fn flatten<'a>(plan: &'a EncodedPlan, out: &mut Vec<FlatNode<'a>>) -> (usize, usize) {
    // Reserve our slot first; children are pushed after and linked by index.
    let my_idx = out.len();
    out.push(FlatNode { height: 1, children: Vec::new(), encoded: plan });
    let mut child_ids = Vec::new();
    let mut max_child_height = 0;
    for c in &plan.children {
        let (cid, ch) = flatten(c, out);
        child_ids.push(cid);
        max_child_height = max_child_height.max(ch);
    }
    let height = 1 + max_child_height;
    out[my_idx].children = child_ids;
    out[my_idx].height = height;
    (my_idx, height)
}

/// Estimate a batch of encoded plans with level-wise batching.
///
/// Returns `(cost, cardinality)` per plan, in input order, denormalized with
/// `normalization`.  Groups of [`GROUP_SIZE`] plans are estimated in
/// parallel.
pub fn estimate_batch(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    plans: &[EncodedPlan],
) -> Vec<(f64, f64)> {
    let refs: Vec<&EncodedPlan> = plans.iter().collect();
    estimate_batch_refs(model, store, normalization, &refs)
}

/// [`estimate_batch`] over plan references (avoids cloning plans when the
/// caller batches a subset, e.g. the trainer's validation split).
pub fn estimate_batch_refs(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
) -> Vec<(f64, f64)> {
    if plans.is_empty() {
        return Vec::new();
    }
    if plans.len() <= GROUP_SIZE {
        return estimate_group(model, store, normalization, plans);
    }
    let groups: Vec<Vec<(f64, f64)>> =
        plans.par_chunks(GROUP_SIZE).map(|chunk| estimate_group(model, store, normalization, chunk)).collect();
    groups.concat()
}

/// Overflow pool that keeps warm tapes alive across *threads*: a worker
/// thread's tape is parked here when the thread exits (see [`TapeSlot`]) and
/// adopted by the next thread whose thread-local slot is still empty.  Only
/// touched on a thread's first and last use — never per estimate.
static PARKED_TAPES: std::sync::Mutex<Vec<Graph>> = std::sync::Mutex::new(Vec::new());

/// Thread-local tape holder whose `Drop` parks the tape in [`PARKED_TAPES`],
/// so short-lived worker threads (the vendored rayon spawns fresh scoped
/// threads per call) hand their warm buffer pools to their successors.
struct TapeSlot(Option<Graph>);

impl Drop for TapeSlot {
    fn drop(&mut self) {
        if let Some(g) = self.0.take() {
            if let Ok(mut pool) = PARKED_TAPES.lock() {
                pool.push(g);
            }
        }
    }
}

thread_local! {
    static INFERENCE_TAPE: std::cell::RefCell<TapeSlot> = const { std::cell::RefCell::new(TapeSlot(None)) };
}

/// Run `f` on this thread's warm inference tape (reset first).
///
/// Steady-state serving threads touch no lock at all here: the tape lives in
/// a thread-local slot, unlike the old process-wide `Mutex<Vec<Graph>>` pool
/// every concurrent estimator serialized on.  A thread's first call adopts a
/// parked tape from a finished thread (one mutex touch), and its last act is
/// parking the tape back (one more), so the warm buffer pools still survive
/// short-lived worker threads.
pub(crate) fn with_inference_tape<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    INFERENCE_TAPE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let g = slot
            .0
            .get_or_insert_with(|| PARKED_TAPES.lock().ok().and_then(|mut p| p.pop()).unwrap_or_else(Graph::inference));
        g.reset();
        f(g)
    })
}

/// Read the batched head outputs off a tape and denormalize them per plan.
fn denormalize_outputs(
    g: &Graph,
    normalization: &TargetNormalization,
    cost_out: NodeId,
    card_out: NodeId,
    n: usize,
) -> Vec<(f64, f64)> {
    let cost_vals = g.value(cost_out);
    let card_vals = g.value(card_out);
    (0..n)
        .map(|i| {
            (
                normalization.cost.denormalize(cost_vals.get(0, i)),
                normalization.cardinality.denormalize(card_vals.get(0, i)),
            )
        })
        .collect()
}

/// Estimate one group of plans on this thread's (recycled) inference tape.
fn estimate_group(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
) -> Vec<(f64, f64)> {
    with_inference_tape(|g| {
        let (cost_out, card_out) = forward_batch(model, store, g, plans);
        denormalize_outputs(g, normalization, cost_out, card_out, plans.len())
    })
}

/// Level-batched forward pass over `plans` on an existing tape, returning the
/// batched `(cost, cardinality)` head outputs (`1 x plans.len()` each, in
/// plan order, normalized space).
///
/// On a train-mode graph this is the forward half of mini-batch training
/// (`Trainer::train` seeds both heads and runs one backward sweep); on an
/// inference-mode graph it is the Table-12 batched estimation path.
///
/// # Panics
/// Panics if `plans` is empty.
pub fn forward_batch(model: &TreeModel, store: &ParamStore, g: &mut Graph, plans: &[&EncodedPlan]) -> (NodeId, NodeId) {
    forward_batch_q(model, store, None, g, plans)
}

/// Tier-aware [`forward_batch`]: every weight matrix present in `quant` runs
/// its matmuls on the int8 tier, dequantizing into the same f32 tape states
/// the full-precision path produces.  With `quant = None` this **is**
/// [`forward_batch`].
pub fn forward_batch_q(
    model: &TreeModel,
    store: &ParamStore,
    quant: Option<&QuantWeights>,
    g: &mut Graph,
    plans: &[&EncodedPlan],
) -> (NodeId, NodeId) {
    assert!(!plans.is_empty(), "forward_batch needs at least one plan");
    let mut flat: Vec<FlatNode> = Vec::new();
    let mut roots = Vec::with_capacity(plans.len());
    let mut max_height = 1;
    for p in plans {
        let (root_idx, h) = flatten(p, &mut flat);
        roots.push(root_idx);
        max_height = max_height.max(h);
    }

    // One-pass level bucketing: levels[h-1] holds the flat indices of all
    // nodes at height h, across every plan in the group.
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_height];
    for (i, n) in flat.iter().enumerate() {
        levels[n.height - 1].push(i);
    }

    let mut states: Vec<Option<StateRef>> = vec![None; flat.len()];
    let zero = model.zero_state_batch(g, 1);
    let zero_ref = StateRef { g: (zero.g, 0), r: (zero.r, 0) };

    for level_nodes in &levels {
        if level_nodes.is_empty() {
            continue;
        }
        // Batched feature embedding for the level: the op/meta/sample
        // embedding layers run once over column-stacked inputs.
        let feats: Vec<&featurize::NodeFeatures> = level_nodes.iter().map(|&i| &flat[i].encoded.features).collect();
        let x_batch = model.embed_nodes_batch_q(g, store, quant, &feats);

        // Batched children states: for each node take its (left, right) child
        // state columns, using zero states for missing children.
        let mut left_g = Vec::with_capacity(level_nodes.len());
        let mut left_r = Vec::with_capacity(level_nodes.len());
        let mut right_g = Vec::with_capacity(level_nodes.len());
        let mut right_r = Vec::with_capacity(level_nodes.len());
        for &i in level_nodes {
            let children = &flat[i].children;
            let left = children.first().and_then(|&c| states[c]).unwrap_or(zero_ref);
            let right = children.get(1).and_then(|&c| states[c]).unwrap_or(zero_ref);
            left_g.push(left.g);
            left_r.push(left.r);
            right_g.push(right.g);
            right_r.push(right.r);
        }
        let left = CellOutput { g: g.gather_cols(&left_g), r: g.gather_cols(&left_r) };
        let right = CellOutput { g: g.gather_cols(&right_g), r: g.gather_cols(&right_r) };

        let out = model.apply_cell_q(g, store, quant, x_batch, left, right);
        for (col, &i) in level_nodes.iter().enumerate() {
            states[i] = Some(StateRef { g: (out.g, col), r: (out.r, col) });
        }
    }

    // Batched estimation heads over all roots at once.
    let root_rs: Vec<(NodeId, usize)> = roots.iter().map(|&r| states[r].expect("root state computed").r).collect();
    let r_batch = g.gather_cols(&root_rs);
    model.estimate_from_representation_q(g, store, quant, r_batch)
}

/// A node of a memoized batch: a fresh node to embed — its features
/// borrowed from an [`EncodedPlan`] or, on the raw-plan path, encoded on
/// the spot — or the root of a memoized subtree whose cached `(G, R)` state
/// is injected instead of recursing into its children.
enum MemoSlot<'a> {
    Fresh(Cow<'a, NodeFeatures>),
    Cached(Arc<SubtreeState>),
}

struct MemoFlatNode<'a> {
    height: usize,
    children: Vec<usize>,
    slot: MemoSlot<'a>,
    signature: u64,
}

/// A plan tree the memoized flatten walks top-down: an already-encoded
/// plan, or a raw plan whose signatures a [`signature_pass`] computed.
trait MemoTree<'a>: Copy {
    /// Structural signature of the subtree rooted here.
    fn signature(self) -> u64;
    /// Number of plan nodes in the subtree.
    fn size(self) -> usize;
    fn children(self) -> impl Iterator<Item = Self>;
    /// The node's features; only called for nodes that must be embedded.
    fn features(self) -> Cow<'a, NodeFeatures>;
}

impl<'a> MemoTree<'a> for &'a EncodedPlan {
    fn signature(self) -> u64 {
        self.signature
    }

    fn size(self) -> usize {
        EncodedPlan::size(self)
    }

    fn children(self) -> impl Iterator<Item = Self> {
        self.children.iter().map(|c| c.as_ref())
    }

    fn features(self) -> Cow<'a, NodeFeatures> {
        Cow::Borrowed(&self.features)
    }
}

/// A raw plan node plus its pre-order position in the signature buffer
/// of [`signature_pass`].
#[derive(Clone, Copy)]
struct RawNode<'a> {
    plan: &'a PlanNode,
    at: usize,
    sigs: &'a [(u64, usize)],
    extractor: &'a FeatureExtractor,
}

impl<'a> MemoTree<'a> for RawNode<'a> {
    fn signature(self) -> u64 {
        self.sigs[self.at].0
    }

    fn size(self) -> usize {
        self.sigs[self.at].1
    }

    fn children(self) -> impl Iterator<Item = Self> {
        // In pre-order a node's first child follows it, and each further
        // child follows its elder sibling's whole subtree.
        self.plan.children.iter().scan(self.at + 1, move |next, plan| {
            let at = *next;
            *next += self.sigs[at].1;
            Some(RawNode { plan, at, ..self })
        })
    }

    fn features(self) -> Cow<'a, NodeFeatures> {
        Cow::Owned(self.extractor.encode_node(self.plan))
    }
}

/// Append `(signature, subtree size)` of every node of `plan` to `out` in
/// pre-order, composing each signature from its children's exactly as
/// [`FeatureExtractor::encode_plan`] does; returns the root's signature.
fn signature_pass(plan: &PlanNode, out: &mut Vec<(u64, usize)>) -> u64 {
    let at = out.len();
    out.push((0, 0));
    let signature = plan.signature_hash_from_children(plan.children.iter().map(|c| signature_pass(c, out)));
    out[at] = (signature, out.len() - at);
    signature
}

/// A flattened memoized batch, built top-down: every sub-plan is probed in
/// the in-batch dedup map and then in the [`SubtreeStateCache`] by its
/// signature before anything below it is looked at, so a hit costs one
/// probe however large the subtree.
#[derive(Default)]
struct MemoBatch<'a> {
    flat: Vec<MemoFlatNode<'a>>,
    dedup: HashMap<u64, usize, BuildHasherDefault<IdentityHasher>>,
    roots: Vec<usize>,
    max_height: usize,
    /// Plan nodes submitted vs. nodes that will be embedded fresh, for the
    /// cache's node-level serving stats.
    seen_nodes: u64,
    computed: u64,
}

impl<'a> MemoBatch<'a> {
    fn push_plan<T: MemoTree<'a>>(&mut self, plan: T, cache: &SubtreeStateCache) {
        let (root, height) = self.flatten(plan, cache);
        self.roots.push(root);
        self.max_height = self.max_height.max(height);
    }

    /// Flatten `node`, pruning at memoized subtrees and deduplicating by
    /// signature within the batch: a DP enumeration's candidates share
    /// almost all of their subtrees, and each distinct subtree must enter
    /// the level-batched forward exactly once.  Returns `(flat index,
    /// height)`.
    fn flatten<T: MemoTree<'a>>(&mut self, node: T, cache: &SubtreeStateCache) -> (usize, usize) {
        let signature = node.signature();
        if let Some(&idx) = self.dedup.get(&signature) {
            // Already flattened for another candidate in this batch: the
            // whole subtree is served by the shared flat node.
            self.seen_nodes += node.size() as u64;
            return (idx, self.flat[idx].height);
        }
        let idx = self.flat.len();
        self.dedup.insert(signature, idx);
        if let Some(state) = cache.get(signature) {
            self.flat.push(MemoFlatNode { height: 1, children: Vec::new(), slot: MemoSlot::Cached(state), signature });
            self.seen_nodes += node.size() as u64;
            return (idx, 1);
        }
        self.seen_nodes += 1;
        self.computed += 1;
        self.flat.push(MemoFlatNode {
            height: 1,
            children: Vec::new(),
            slot: MemoSlot::Fresh(node.features()),
            signature,
        });
        let mut children = Vec::new();
        let mut max_child_height = 0;
        for c in node.children() {
            let (cid, ch) = self.flatten(c, cache);
            children.push(cid);
            max_child_height = max_child_height.max(ch);
        }
        let height = 1 + max_child_height;
        self.flat[idx].children = children;
        self.flat[idx].height = height;
        (idx, height)
    }
}

/// [`forward_batch`] with subtree memoization — the serving-layer forward of
/// the optimizer loop.
///
/// Before embedding anything, every sub-plan is looked up in `cache` by its
/// 64-bit signature (and deduplicated against the rest of the batch): hits
/// re-enter the tape as injected `(G, R)` input columns
/// ([`Graph::input_columns`]), and only the fringe above them is embedded.
/// After each level's cell runs, the new sub-plans' state columns are lifted
/// off the tape ([`Graph::extract_column`]) and memoized, so a DP
/// enumeration embeds each distinct subtree once no matter how many
/// candidate plans contain it.
///
/// Estimates are **bit-identical** to the memoization-free [`forward_batch`]:
/// injected states are verbatim copies of previously computed columns, and
/// every kernel's per-column result is independent of which other columns
/// share its batch (`memoized_inference_is_bit_identical_*` pins this).
///
/// # Panics
/// Panics if `plans` is empty.
pub fn forward_batch_memo(
    model: &TreeModel,
    store: &ParamStore,
    g: &mut Graph,
    plans: &[&EncodedPlan],
    cache: &SubtreeStateCache,
) -> (NodeId, NodeId) {
    let mut batch = MemoBatch::default();
    for &p in plans {
        batch.push_plan(p, cache);
    }
    forward_memo(model, store, g, &batch, cache)
}

/// The level-batched forward over a flattened memoized batch, shared by
/// the encoded-plan and raw-plan paths.
///
/// # Panics
/// Panics if the batch holds no plan.
fn forward_memo(
    model: &TreeModel,
    store: &ParamStore,
    g: &mut Graph,
    batch: &MemoBatch,
    cache: &SubtreeStateCache,
) -> (NodeId, NodeId) {
    assert!(!batch.roots.is_empty(), "forward_batch_memo needs at least one plan");
    let hidden = model.config.hidden_dim;
    let flat = &batch.flat;
    cache.record_nodes(batch.seen_nodes, batch.computed);

    // Cache-hit states re-enter the tape as two batched input columns.
    let mut states: Vec<Option<StateRef>> = vec![None; flat.len()];
    let cached: Vec<(usize, &SubtreeState)> = flat
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match &n.slot {
            MemoSlot::Cached(state) => Some((i, state.as_ref())),
            MemoSlot::Fresh(_) => None,
        })
        .collect();
    if !cached.is_empty() {
        let g_cols: Vec<&[f32]> = cached.iter().map(|(_, s)| s.g.as_slice()).collect();
        let r_cols: Vec<&[f32]> = cached.iter().map(|(_, s)| s.r.as_slice()).collect();
        let inj_g = g.input_columns(hidden, &g_cols);
        let inj_r = g.input_columns(hidden, &r_cols);
        for (col, &(i, _)) in cached.iter().enumerate() {
            states[i] = Some(StateRef { g: (inj_g, col), r: (inj_r, col) });
        }
    }

    // Level-batched forward over the fresh fringe, exactly as in
    // `forward_batch`, with one extra step per level: extract the new state
    // columns off the tape and memoize them.
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); batch.max_height];
    for (i, n) in flat.iter().enumerate() {
        if let MemoSlot::Fresh(_) = n.slot {
            levels[n.height - 1].push(i);
        }
    }
    let zero_ref = (cached.len() < flat.len()).then(|| {
        let zero = model.zero_state_batch(g, 1);
        StateRef { g: (zero.g, 0), r: (zero.r, 0) }
    });

    for level_nodes in &levels {
        if level_nodes.is_empty() {
            continue;
        }
        let zero_ref = zero_ref.expect("fresh nodes imply a zero state");
        let feats: Vec<&NodeFeatures> = level_nodes
            .iter()
            .map(|&i| match &flat[i].slot {
                MemoSlot::Fresh(f) => f.as_ref(),
                MemoSlot::Cached(_) => unreachable!("levels hold fresh nodes only"),
            })
            .collect();
        let x_batch = model.embed_nodes_batch(g, store, &feats);

        let mut left_g = Vec::with_capacity(level_nodes.len());
        let mut left_r = Vec::with_capacity(level_nodes.len());
        let mut right_g = Vec::with_capacity(level_nodes.len());
        let mut right_r = Vec::with_capacity(level_nodes.len());
        for &i in level_nodes {
            let children = &flat[i].children;
            let left = children.first().and_then(|&c| states[c]).unwrap_or(zero_ref);
            let right = children.get(1).and_then(|&c| states[c]).unwrap_or(zero_ref);
            left_g.push(left.g);
            left_r.push(left.r);
            right_g.push(right.g);
            right_r.push(right.r);
        }
        let left = CellOutput { g: g.gather_cols(&left_g), r: g.gather_cols(&left_r) };
        let right = CellOutput { g: g.gather_cols(&right_g), r: g.gather_cols(&right_r) };

        let out = model.apply_cell(g, store, x_batch, left, right);
        for (col, &i) in level_nodes.iter().enumerate() {
            states[i] = Some(StateRef { g: (out.g, col), r: (out.r, col) });
            let mut sg = Vec::with_capacity(hidden);
            let mut sr = Vec::with_capacity(hidden);
            g.extract_column(out.g, col, &mut sg);
            g.extract_column(out.r, col, &mut sr);
            cache.insert(flat[i].signature, Arc::new(SubtreeState { g: sg, r: sr }));
        }
    }

    let root_rs: Vec<(NodeId, usize)> =
        batch.roots.iter().map(|&r| states[r].expect("root state computed").r).collect();
    let r_batch = g.gather_cols(&root_rs);
    model.estimate_from_representation(g, store, r_batch)
}

/// Memoized batched estimation: [`estimate_batch`] through
/// [`forward_batch_memo`], sharing `cache` across calls (and across
/// threads — the cache is sharded and the tape is thread-local, so
/// concurrent serving threads never serialize on a global lock).
///
/// Runs chunks of [`GROUP_SIZE`] plans sequentially on the calling thread:
/// in the serving layer, concurrency comes from the caller's worker threads,
/// and an internal fan-out per request would only fight them for cores.
pub fn estimate_batch_memo(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
    cache: &SubtreeStateCache,
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(plans.len());
    for chunk in plans.chunks(GROUP_SIZE) {
        out.extend(with_inference_tape(|g| {
            let (cost_out, card_out) = forward_batch_memo(model, store, g, chunk, cache);
            denormalize_outputs(g, normalization, cost_out, card_out, chunk.len())
        }));
    }
    out
}

/// State-first memoized estimation of **raw plans** — the serving front
/// door of the optimizer loop.
///
/// One post-order pass per candidate computes every node's structural
/// signature ([`PlanNode::signature_hash_from_children`], the composition
/// [`FeatureExtractor::encode_plan`] uses) into a scratch buffer reused
/// across chunks; the memoized flatten then probes the in-batch dedup map
/// and `cache` top-down by those signatures, and only the nodes that miss
/// both are featurized ([`FeatureExtractor::encode_node`]).  A warm round
/// therefore hashes each candidate once and featurizes nothing.
///
/// Bit-identical to a fresh [`FeatureExtractor::encode_plan`] scored by
/// [`estimate_batch`]: states are keyed by the same signatures and fringe
/// features come from the same `encode_node`.  Chunks of [`GROUP_SIZE`]
/// plans run sequentially on the calling thread, as in
/// [`estimate_batch_memo`].
pub(crate) fn estimate_plans_memo(
    model: &TreeModel,
    store: &ParamStore,
    normalization: &TargetNormalization,
    extractor: &FeatureExtractor,
    plans: &[PlanNode],
    cache: &SubtreeStateCache,
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(plans.len());
    let mut sigs: Vec<(u64, usize)> = Vec::new();
    let mut starts: Vec<usize> = Vec::with_capacity(GROUP_SIZE.min(plans.len()));
    for chunk in plans.chunks(GROUP_SIZE) {
        sigs.clear();
        starts.clear();
        for plan in chunk {
            starts.push(sigs.len());
            signature_pass(plan, &mut sigs);
        }
        let mut batch = MemoBatch::default();
        for (plan, &at) in chunk.iter().zip(&starts) {
            batch.push_plan(RawNode { plan, at, sigs: &sigs, extractor }, cache);
        }
        out.extend(with_inference_tape(|g| {
            let (cost_out, card_out) = forward_memo(model, store, g, &batch, cache);
            denormalize_outputs(g, normalization, cost_out, card_out, chunk.len())
        }));
    }
    out
}

/// Quantized-tier batched estimation: [`estimate_batch_refs`] through
/// [`forward_batch_q`].  Approximate (int8 weight matmuls) but cheap — the
/// Table-12 Q8 rows.
pub fn estimate_batch_quant(
    model: &TreeModel,
    store: &ParamStore,
    quant: &QuantWeights,
    normalization: &TargetNormalization,
    plans: &[&EncodedPlan],
) -> Vec<(f64, f64)> {
    if plans.is_empty() {
        return Vec::new();
    }
    let group = |chunk: &[&EncodedPlan]| {
        with_inference_tape(|g| {
            let (cost_out, card_out) = forward_batch_q(model, store, Some(quant), g, chunk);
            denormalize_outputs(g, normalization, cost_out, card_out, chunk.len())
        })
    };
    if plans.len() <= GROUP_SIZE {
        return group(plans);
    }
    let groups: Vec<Vec<(f64, f64)>> = plans.par_chunks(GROUP_SIZE).map(group).collect();
    groups.concat()
}

pub mod reference {
    //! The original (pre-optimization) batched implementation, kept as the
    //! correctness oracle for the optimized path and as the baseline the
    //! Table-12 efficiency bench reports the optimization speed-up against.
    //! Characteristics: seed-compat tape (eager zero-gradient allocation per
    //! node, a parameter copy per layer application), one `filter` scan over
    //! all flat nodes per level (`O(D·N)`), `HashMap` cell-state storage,
    //! per-node embedding invocations, no parallelism.

    use super::{flatten, FlatNode};
    use crate::model::TreeModel;
    use crate::trainer::TargetNormalization;
    use featurize::EncodedPlan;
    use nn::cells::CellOutput;
    use nn::{Graph, NodeId, ParamStore};
    use std::collections::HashMap;

    /// Unoptimized one-plan-at-a-time estimation: the per-node recursive
    /// forward on a seed-compat tape.  This is the "naive per-node path"
    /// Table 12 compares batched inference against.
    pub fn estimate_per_node_reference(
        model: &TreeModel,
        store: &ParamStore,
        normalization: &TargetNormalization,
        plan: &EncodedPlan,
    ) -> (f64, f64) {
        let mut g = Graph::seed_compat();
        let (cost_out, card_out) = model.forward(&mut g, store, plan);
        (
            normalization.cost.denormalize(g.value(cost_out).data()[0]),
            normalization.cardinality.denormalize(g.value(card_out).data()[0]),
        )
    }

    /// Unoptimized level-batched estimation (see module docs).
    pub fn estimate_batch_reference(
        model: &TreeModel,
        store: &ParamStore,
        normalization: &TargetNormalization,
        plans: &[EncodedPlan],
    ) -> Vec<(f64, f64)> {
        if plans.is_empty() {
            return Vec::new();
        }
        let mut flat: Vec<FlatNode> = Vec::new();
        let mut roots = Vec::with_capacity(plans.len());
        for p in plans.iter() {
            let (root_idx, _) = flatten(p, &mut flat);
            roots.push(root_idx);
        }
        let max_height = flat.iter().map(|n| n.height).max().unwrap_or(1);

        // A seed-compat tape reproduces the pre-optimization allocation
        // behavior: an eager zero gradient per node, a parameter copy per
        // layer application.
        let mut g = Graph::seed_compat();
        // Embed every node individually, then run the representation cell
        // once per level over column-concatenated embeddings.
        let embedded: Vec<NodeId> = flat.iter().map(|n| model.embed_node(&mut g, store, &n.encoded.features)).collect();

        // node index -> its computed (G, R) columns.
        let mut states: HashMap<usize, CellOutput> = HashMap::new();

        for level in 1..=max_height {
            let level_nodes: Vec<usize> =
                flat.iter().enumerate().filter(|(_, n)| n.height == level).map(|(i, _)| i).collect();
            if level_nodes.is_empty() {
                continue;
            }
            let xs: Vec<NodeId> = level_nodes.iter().map(|&i| embedded[i]).collect();
            let x_batch = g.concat_cols(&xs);

            let zero = model.zero_state_batch(&mut g, 1);
            let mut left_cols = Vec::with_capacity(level_nodes.len());
            let mut right_cols = Vec::with_capacity(level_nodes.len());
            for &i in &level_nodes {
                let children = &flat[i].children;
                let left = children.first().and_then(|c| states.get(c)).copied().unwrap_or(zero);
                let right = children.get(1).and_then(|c| states.get(c)).copied().unwrap_or(zero);
                left_cols.push(left);
                right_cols.push(right);
            }
            let left_g = g.concat_cols(&left_cols.iter().map(|c| c.g).collect::<Vec<_>>());
            let left_r = g.concat_cols(&left_cols.iter().map(|c| c.r).collect::<Vec<_>>());
            let right_g = g.concat_cols(&right_cols.iter().map(|c| c.g).collect::<Vec<_>>());
            let right_r = g.concat_cols(&right_cols.iter().map(|c| c.r).collect::<Vec<_>>());

            let out = model.apply_cell(
                &mut g,
                store,
                x_batch,
                CellOutput { g: left_g, r: left_r },
                CellOutput { g: right_g, r: right_r },
            );
            for (col, &i) in level_nodes.iter().enumerate() {
                let gi = g.column_at(out.g, col);
                let ri = g.column_at(out.r, col);
                states.insert(i, CellOutput { g: gi, r: ri });
            }
        }

        let root_rs: Vec<NodeId> = roots.iter().map(|r| states[r].r).collect();
        let r_batch = g.concat_cols(&root_rs);
        let (cost_out, card_out) = model.estimate_from_representation(&mut g, store, r_batch);
        let cost_vals = g.value(cost_out).clone();
        let card_vals = g.value(card_out).clone();

        (0..plans.len())
            .map(|i| {
                (
                    normalization.cost.denormalize(cost_vals.get(0, i)),
                    normalization.cardinality.denormalize(card_vals.get(0, i)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, PredicateModelKind, TreeModel};
    use crate::trainer::{TrainConfig, Trainer};
    use featurize::{EncodingConfig, FeatureExtractor};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
    use std::sync::Arc;
    use strembed::HashBitmapEncoder;

    fn samples(n: usize) -> (Vec<EncodedPlan>, EncodingConfig) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
        let cost = engine::CostModel::default();
        let mut out = Vec::new();
        for i in 0..n {
            let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                table: "title".into(),
                predicate: Some(Predicate::atom(
                    "title",
                    "production_year",
                    CompareOp::Gt,
                    Operand::Num((1940 + i * 3) as f64),
                )),
            });
            let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
            let mut join = PlanNode::inner(
                PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
                vec![scan_t, scan_mc],
            );
            engine::execute_plan(&db, &mut join, &cost);
            out.push(fx.encode_plan(&join));
        }
        (out, cfg)
    }

    #[test]
    fn batched_estimates_match_one_by_one() {
        let (plans, cfg) = samples(10);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let batched = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        assert_eq!(batched.len(), plans.len());
        for (plan, (bcost, bcard)) in plans.iter().zip(batched.iter()) {
            let (cost, card) = trainer.estimate(plan);
            assert!((cost.ln() - bcost.ln()).abs() < 1e-3, "cost mismatch: {cost} vs {bcost}");
            assert!((card.ln() - bcard.ln()).abs() < 1e-3, "card mismatch: {card} vs {bcard}");
        }
    }

    #[test]
    fn optimized_batch_matches_reference_implementation() {
        let (plans, cfg) = samples(12);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let fast = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        let slow =
            reference::estimate_batch_reference(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        for ((fc, fk), (sc, sk)) in fast.iter().zip(slow.iter()) {
            assert!((fc.ln() - sc.ln()).abs() < 1e-3, "cost mismatch: {fc} vs {sc}");
            assert!((fk.ln() - sk.ln()).abs() < 1e-3, "card mismatch: {fk} vs {sk}");
        }
    }

    #[test]
    fn large_batch_crosses_parallel_group_boundary() {
        // More plans than GROUP_SIZE forces the parallel path; results must
        // stay in input order and match the one-by-one estimates.
        let (plans, cfg) = samples(GROUP_SIZE + 9);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let batched = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        assert_eq!(batched.len(), plans.len());
        for (plan, (bcost, bcard)) in plans.iter().zip(batched.iter()) {
            let (cost, card) = trainer.estimate(plan);
            assert!((cost.ln() - bcost.ln()).abs() < 1e-3, "cost mismatch: {cost} vs {bcost}");
            assert!((card.ln() - bcard.ln()).abs() < 1e-3, "card mismatch: {card} vs {bcard}");
        }
    }

    #[test]
    fn train_mode_forward_batch_matches_inference_mode() {
        let (plans, cfg) = samples(6);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let mut train_g = Graph::new();
        let (tc, tk) = forward_batch(&model, &model.params, &mut train_g, &refs);
        let mut infer_g = Graph::inference();
        let (ic, ik) = forward_batch(&model, &model.params, &mut infer_g, &refs);
        // On the scalar path the fused gate sweep is bit-identical to the
        // train-mode libm activations; on the AVX2 path the FMA rational
        // sweep perturbs gate values at ulp level, so the heads only agree
        // within the f32 tier's tolerance contract (docs/perf.md).
        match nn::simd::active_path() {
            nn::simd::DispatchPath::Scalar => {
                assert_eq!(train_g.value(tc), infer_g.value(ic), "cost heads diverge across modes");
                assert_eq!(train_g.value(tk), infer_g.value(ik), "card heads diverge across modes");
            }
            _ => {
                for (head, (t, i)) in [("cost", (tc, ic)), ("card", (tk, ik))] {
                    for (a, b) in train_g.value(t).data().iter().zip(infer_g.value(i).data().iter()) {
                        assert!(
                            (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                            "{head} heads diverge across modes: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_batch_is_bit_identical_to_fresh_and_warm() {
        let (plans, cfg) = samples(14);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let fresh = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);

        let cache = crate::memory::SubtreeStateCache::new();
        let cold = estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &refs, &cache);
        assert_eq!(fresh, cold, "cold memoized estimates must be bit-identical to the fresh path");
        assert!(!cache.is_empty(), "forward pass must populate the subtree cache");

        let warm = estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &refs, &cache);
        assert_eq!(fresh, warm, "warm memoized estimates must be bit-identical to the fresh path");

        // The test plans share their join/scan structure heavily (only the
        // scan predicate constant varies), so the warm pass must serve the
        // bulk of the nodes from cache.
        let (seen, computed) = cache.node_stats();
        assert!(seen > computed, "no node was ever served from cache ({seen} seen, {computed} computed)");
        assert!(cache.node_hit_rate() > 0.0);
    }

    #[test]
    fn memoized_batch_combines_cached_subtrees_at_the_fringe() {
        // Score the two scan sub-plans first, then the joins over them: the
        // second call must only embed the join fringe, re-using both scans.
        let (plans, cfg) = samples(4);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let cache = crate::memory::SubtreeStateCache::new();

        let leaves: Vec<&EncodedPlan> = plans.iter().flat_map(|p| p.children.iter().map(|c| c.as_ref())).collect();
        estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &leaves, &cache);
        let (_, computed_leaves) = cache.node_stats();

        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let fresh = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        let memo = estimate_batch_memo(&trainer.model, &trainer.model.params, &trainer.normalization, &refs, &cache);
        assert_eq!(fresh, memo);
        let (_, computed_total) = cache.node_stats();
        // The second pass embeds exactly one new node per distinct plan (the
        // join root); every scan state is injected from the cache.
        assert_eq!(computed_total - computed_leaves, plans.len() as u64);
    }

    #[test]
    fn quantized_batch_tracks_full_precision() {
        let (plans, cfg) = samples(12);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        let quant = QuantWeights::from_store(&trainer.model.params);
        assert!(quant.n_quantized() > 0, "model has weight matrices to quantize");

        let full = estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &plans);
        let quantized =
            estimate_batch_quant(&trainer.model, &trainer.model.params, &quant, &trainer.normalization, &refs);
        assert_eq!(quantized.len(), full.len());
        for ((fc, fk), (qc, qk)) in full.iter().zip(quantized.iter()) {
            // int8 weights are approximate; estimates must stay within a
            // modest log-space band of the f32 tier.
            assert!((fc.ln() - qc.ln()).abs() < 0.5, "quant cost diverged: {fc} vs {qc}");
            assert!((fk.ln() - qk.ln()).abs() < 0.5, "quant card diverged: {fk} vs {qk}");
        }
    }

    #[test]
    fn inference_tape_pool_stays_flat_across_identical_passes() {
        // Every input of an inference pass — zero states, feature stacks,
        // predicate atoms, injected states — is drawn from the tape's buffer
        // pool, so a reused tape returns exactly what each pass took.
        let (plans, cfg) = samples(6);
        let refs: Vec<&EncodedPlan> = plans.iter().collect();
        for predicate in [PredicateModelKind::MinMaxPool, PredicateModelKind::TreeLstm] {
            let model = TreeModel::new(
                &cfg,
                ModelConfig {
                    feature_embed_dim: 8,
                    hidden_dim: 12,
                    estimation_hidden_dim: 8,
                    predicate,
                    ..Default::default()
                },
            );
            let cache = crate::memory::SubtreeStateCache::new();
            let mut g = Graph::inference();
            let pass = |g: &mut Graph| {
                g.reset();
                forward_batch(&model, &model.params, g, &refs);
                g.reset();
                forward_batch_memo(&model, &model.params, g, &refs, &cache);
                g.reset();
            };
            for _ in 0..3 {
                pass(&mut g);
            }
            let warm = g.pooled_buffers();
            for _ in 0..1000 {
                pass(&mut g);
            }
            assert_eq!(g.pooled_buffers(), warm, "{predicate:?}: the tape's buffer pool grew across identical passes");
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let (plans, cfg) = samples(2);
        let model = TreeModel::new(&cfg, ModelConfig::default());
        let trainer = Trainer::new(model, &plans, TrainConfig::default());
        assert!(estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, &[]).is_empty());
    }

    mod memo_property {
        //! Satellite guard: on randomized planner output (generated queries
        //! expanded into candidate join orders), memoized subtree inference
        //! must be **bit-identical** to fresh inference — cold cache, warm
        //! cache, and across batch compositions.

        use super::*;
        use crate::memory::SubtreeStateCache;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use workloads::{generate_enumeration_workload, EnumerationConfig};

        struct Fixture {
            db: Arc<imdb::Database>,
            fx: FeatureExtractor,
            trainer: Trainer,
        }

        fn fixture() -> &'static Fixture {
            static FIX: OnceLock<Fixture> = OnceLock::new();
            FIX.get_or_init(|| {
                let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
                let cfg = EncodingConfig::from_database(&db, 8, 32);
                let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
                let model = TreeModel::new(
                    &cfg,
                    ModelConfig {
                        feature_embed_dim: 8,
                        hidden_dim: 12,
                        estimation_hidden_dim: 8,
                        ..Default::default()
                    },
                );
                let samples = workloads::generate_workload(
                    &db,
                    workloads::WorkloadConfig { num_queries: 12, ..Default::default() },
                );
                let encoded: Vec<EncodedPlan> = samples.iter().map(|s| fx.encode_plan(&s.plan)).collect();
                let trainer = Trainer::new(model, &encoded, TrainConfig::default());
                Fixture { db, fx, trainer }
            })
        }

        proptest! {
            #[test]
            fn memoized_inference_is_bit_identical_on_randomized_planner_output(seed in 0u64..1_000_000) {
                let fixture = fixture();
                let workload = generate_enumeration_workload(
                    &fixture.db,
                    EnumerationConfig {
                        num_queries: 1,
                        min_joins: 1,
                        max_joins: 3,
                        max_candidates_per_query: 12,
                        seed,
                    },
                );
                prop_assert!(!workload.is_empty(), "no enumerable query for seed {seed}");
                let encoded: Vec<EncodedPlan> =
                    workload[0].candidates.iter().map(|c| fixture.fx.encode_plan(c)).collect();
                let refs: Vec<&EncodedPlan> = encoded.iter().collect();
                let t = &fixture.trainer;

                let fresh = estimate_batch(&t.model, &t.model.params, &t.normalization, &encoded);
                let cache = SubtreeStateCache::new();
                let cold = estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &refs, &cache);
                prop_assert_eq!(&fresh, &cold);
                let warm = estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &refs, &cache);
                prop_assert_eq!(&fresh, &warm);
                // One-at-a-time scoring against the warm cache must also be
                // bit-identical: batch composition cannot leak into columns.
                for (plan, expected) in refs.iter().zip(fresh.iter()) {
                    let single =
                        estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &[plan], &cache);
                    prop_assert_eq!(&single[0], expected);
                }

                // The state-first raw-plan path against the same fresh
                // reference: cold and warm cache.
                let candidates = &workload[0].candidates;
                let raw = |plans: &[PlanNode], cache: &SubtreeStateCache| {
                    estimate_plans_memo(&t.model, &t.model.params, &t.normalization, &fixture.fx, plans, cache)
                };
                let raw_cache = SubtreeStateCache::new();
                prop_assert_eq!(&raw(candidates, &raw_cache), &fresh);
                prop_assert_eq!(&raw(candidates, &raw_cache), &fresh);
                // A one-state-per-shard cache evicts while the batch is
                // being inserted; eviction can only cost recomputation.
                let tiny = SubtreeStateCache::with_shard_capacity(1);
                prop_assert_eq!(&raw(candidates, &tiny), &fresh);
                prop_assert_eq!(&raw(candidates, &tiny), &fresh);
                // Whole-plan duplicates within one batch, and annotated
                // twins of un-annotated candidates: annotations change no
                // feature, so twins share states and estimates.
                let mut annotated = candidates.clone();
                for plan in &mut annotated {
                    engine::execute_plan(&fixture.db, plan, &engine::CostModel::default());
                }
                let twins: Vec<PlanNode> = candidates.iter().chain(&annotated).chain(candidates).cloned().collect();
                let twin_fresh: Vec<EncodedPlan> = twins.iter().map(|p| fixture.fx.encode_plan(p)).collect();
                let twin_expected = estimate_batch(&t.model, &t.model.params, &t.normalization, &twin_fresh);
                prop_assert_eq!(&raw(&twins, &SubtreeStateCache::new()), &twin_expected);
                // More plans than GROUP_SIZE: later chunks are served from
                // the states earlier chunks memoized.
                let big: Vec<PlanNode> = candidates.iter().cycle().take(GROUP_SIZE + 3).cloned().collect();
                let big_expected: Vec<(f64, f64)> = fresh.iter().cycle().take(big.len()).copied().collect();
                prop_assert_eq!(&raw(&big, &SubtreeStateCache::new()), &big_expected);
                // Raw and encoded calls interleaved on one cache.
                let shared = SubtreeStateCache::new();
                let half = candidates.len() / 2;
                prop_assert_eq!(&raw(&candidates[..half], &shared)[..], &fresh[..half]);
                let encoded_all =
                    estimate_batch_memo(&t.model, &t.model.params, &t.normalization, &refs, &shared);
                prop_assert_eq!(&encoded_all, &fresh);
                prop_assert_eq!(&raw(candidates, &shared), &fresh);
            }
        }
    }

    #[test]
    fn single_leaf_plan_in_batch() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg.clone(), Arc::new(HashBitmapEncoder::new(8)));
        let mut scan = PlanNode::leaf(PhysicalOp::SeqScan { table: "keyword".into(), predicate: None });
        engine::execute_plan(&db, &mut scan, &engine::CostModel::default());
        let plan = fx.encode_plan(&scan);
        let model = TreeModel::new(
            &cfg,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
        );
        let trainer = Trainer::new(model, std::slice::from_ref(&plan), TrainConfig::default());
        let out =
            estimate_batch(&trainer.model, &trainer.model.params, &trainer.normalization, std::slice::from_ref(&plan));
        assert_eq!(out.len(), 1);
        assert!(out[0].0.is_finite() && out[0].1.is_finite());
    }
}
