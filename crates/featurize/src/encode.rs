//! Plan-node feature extraction (Section 4.1).
//!
//! Every plan node is encoded into the four feature groups of the paper —
//! Operation, Metadata, Predicate and Sample Bitmap — and the plan tree is
//! encoded into an [`EncodedPlan`] mirroring its structure, with the true
//! cost/cardinality attached as training targets.
//!
//! Featurization is on the optimizer's critical path (every DP candidate is
//! encoded before it can be priced), so the hot paths are allocation-
//! disciplined and memoized:
//!
//! * the three fixed-width groups of a node are written into **one
//!   contiguous slab** ([`NodeFeatures`]) through the `encode_*_into`
//!   forms, instead of one heap `Vec` per group;
//! * dictionary probes go through the borrowed-key lookups of
//!   [`EncodingConfig`] — no `String` clone per lookup;
//! * the sample bitmap — a full predicate sweep over the table sample, the
//!   single most expensive encode step — is memoized per
//!   `(table, predicate signature)` in a [`ShardedCache`] shared by every
//!   encode path (the sweep's inputs are immutable per extractor, so
//!   entries never go stale);
//! * whole sub-plan encodings are memoized in a caller-owned
//!   [`ShardedCache`] ([`FeatureExtractor::encode_plan_cached`] /
//!   [`FeatureExtractor::encode_plans_cached`];
//!   [`FeatureExtractor::encode_plans`] dedups within one batch through a
//!   throwaway one), so DP enumeration encodes each distinct subtree
//!   exactly once.  The memoized paths are **key-first**: one post-order
//!   [`key_pass`] writes every node's signature, memo key and subtree size
//!   into a pre-order buffer, then the cache is probed top-down from the
//!   root and the walk stops at the first hit.  A plan seen before costs
//!   one probe and one `Arc` clone, and an un-annotated subtree's memo key
//!   is its signature, so serving plans hash each node once.
//!
//! Every memoized path is **bit-identical** to the fresh
//! [`FeatureExtractor::encode_plan`]: encoding is deterministic in the plan
//! and the extractor, and cache keys cover the full subtree content
//! (structure *and* annotations), so a hit can only ever return exactly the
//! bits a miss would have computed.

use crate::config::EncodingConfig;
use imdb::Database;
use query::{AtomPredicate, CompareOp, Operand, PhysicalOp, PlanNode, Predicate, ShardedCache, SigHasher};
use std::cell::RefCell;
use std::sync::Arc;
use strembed::StringEncoder;

/// Encoded predicate tree: the min/max pooling model consumes the structure,
/// the tree-LSTM predicate variant consumes its DFS linearization.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateEncoding {
    /// No predicate on this node.
    None,
    /// An encoded atomic predicate.
    Atom(Vec<f32>),
    /// Conjunction of two sub-predicates (min pooling).
    And(Box<PredicateEncoding>, Box<PredicateEncoding>),
    /// Disjunction of two sub-predicates (max pooling).
    Or(Box<PredicateEncoding>, Box<PredicateEncoding>),
}

impl PredicateEncoding {
    /// Number of atom vectors in the encoding.
    pub fn num_atoms(&self) -> usize {
        match self {
            PredicateEncoding::None => 0,
            PredicateEncoding::Atom(_) => 1,
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => l.num_atoms() + r.num_atoms(),
        }
    }

    /// DFS linearization of the atom vectors (the one-to-one sequence mapping
    /// of Figure 4, without the explicit backtracking padding — structure is
    /// recovered from the tree itself).
    pub fn dfs_atoms(&self) -> Vec<&[f32]> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a [f32]>) {
        match self {
            PredicateEncoding::None => {}
            PredicateEncoding::Atom(v) => out.push(v),
            PredicateEncoding::And(l, r) | PredicateEncoding::Or(l, r) => {
                l.collect(out);
                r.collect(out);
            }
        }
    }
}

/// The four encoded feature groups of one plan node.
///
/// The three fixed-width groups (operation one-hot ⧺ metadata bitmap ⧺
/// sample bitmap) live in one contiguous slab — a cache-miss node costs one
/// allocation, not three — and are read back through the slice accessors.
/// The variable-shape predicate tree keeps its own structure.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFeatures {
    slab: Vec<f32>,
    meta_off: u32,
    samp_off: u32,
    pub predicate: PredicateEncoding,
}

impl NodeFeatures {
    /// Assemble from the four separately-encoded groups (test/tooling
    /// convenience; the extractor's hot path writes the slab directly).
    pub fn from_groups(
        operation: Vec<f32>,
        metadata: Vec<f32>,
        predicate: PredicateEncoding,
        sample_bitmap: Vec<f32>,
    ) -> Self {
        let meta_off = operation.len() as u32;
        let samp_off = meta_off + metadata.len() as u32;
        let mut slab = operation;
        slab.extend_from_slice(&metadata);
        slab.extend_from_slice(&sample_bitmap);
        NodeFeatures { slab, meta_off, samp_off, predicate }
    }

    /// The operation one-hot.
    pub fn operation(&self) -> &[f32] {
        &self.slab[..self.meta_off as usize]
    }

    /// The metadata bitmap (tables ⧺ columns ⧺ indexes).
    pub fn metadata(&self) -> &[f32] {
        &self.slab[self.meta_off as usize..self.samp_off as usize]
    }

    /// The sample bitmap.
    pub fn sample_bitmap(&self) -> &[f32] {
        &self.slab[self.samp_off as usize..]
    }
}

/// An encoded plan node: features, children and training targets.
/// Children are held by `Arc` so that memoized encoding
/// ([`FeatureExtractor::encode_plan_cached`]) shares cached subtrees
/// instead of deep-copying them into every parent that reuses them — a
/// `Clone` of an `EncodedPlan` copies one node's feature slab and bumps
/// the children's refcounts.  The sharing is safe because an encoded plan
/// is immutable after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedPlan {
    pub features: NodeFeatures,
    pub children: Vec<Arc<EncodedPlan>>,
    /// True cardinality of this sub-plan (training target).
    pub true_cardinality: f64,
    /// True cumulative cost of this sub-plan (training target).
    pub true_cost: f64,
    /// 64-bit structural signature of the source sub-plan
    /// ([`query::PlanNode::signature_hash`]) — the key under which the
    /// serving layer memoizes this subtree's representation states.
    pub signature: u64,
}

impl EncodedPlan {
    /// Number of nodes in the encoded tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Height of the encoded tree.
    pub fn height(&self) -> usize {
        1 + self.children.iter().map(|c| c.height()).max().unwrap_or(0)
    }
}

/// Per-shard entry cap of the sample-bitmap memo (the memo is advisory —
/// re-deriving an evicted bitmap is always correct, just slower).
const BITMAP_MEMO_MAX_PER_SHARD: usize = 8 * 1024;

thread_local! {
    /// Scratch for per-item string encodings when averaging IN-list members.
    static ATOM_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The feature extractor: encoding configuration + string encoder + database
/// handle (for sample bitmaps).  Cloning is cheap and shares the bitmap
/// memo.
#[derive(Clone)]
pub struct FeatureExtractor {
    config: EncodingConfig,
    string_encoder: Arc<dyn StringEncoder>,
    db: Arc<Database>,
    /// When false the sample bitmap is omitted (all zeros) — the `NS`
    /// ("no sample") model variants of Table 6.
    pub use_sample_bitmap: bool,
    /// When false the bitmap sweep always re-evaluates the predicate over
    /// the sample (the pre-memo pipeline, bit-identical output) — bench
    /// baselines flip this on a clone to measure the memo's contribution.
    pub use_bitmap_memo: bool,
    /// Sample bitmaps keyed by `(table, predicate signature)`.  The sweep's
    /// inputs (table sample, predicate) are immutable per extractor, so
    /// entries never go stale: they stay valid across refits, hot-swaps and
    /// `use_sample_bitmap` toggles (the flag is checked before the memo).
    bitmap_memo: Arc<ShardedCache<Arc<Vec<f32>>>>,
}

impl FeatureExtractor {
    /// Create an extractor.
    pub fn new(db: Arc<Database>, config: EncodingConfig, string_encoder: Arc<dyn StringEncoder>) -> Self {
        FeatureExtractor {
            config,
            string_encoder,
            db,
            use_sample_bitmap: true,
            use_bitmap_memo: true,
            bitmap_memo: Arc::new(ShardedCache::with_shard_capacity(BITMAP_MEMO_MAX_PER_SHARD)),
        }
    }

    /// The encoding configuration.
    pub fn config(&self) -> &EncodingConfig {
        &self.config
    }

    /// `(hits, misses)` of the sample-bitmap memo since creation (or the
    /// last [`FeatureExtractor::clear_bitmap_memo`]).
    pub fn bitmap_memo_stats(&self) -> (u64, u64) {
        self.bitmap_memo.stats()
    }

    /// Hit rate of the sample-bitmap memo (0 when never probed).
    pub fn bitmap_memo_hit_rate(&self) -> f64 {
        self.bitmap_memo.hit_rate()
    }

    /// Drop every memoized bitmap and reset the counters (bench baselines;
    /// never required for correctness — entries cannot go stale).
    pub fn clear_bitmap_memo(&self) {
        self.bitmap_memo.clear();
    }

    /// Encode a raw string operand through the extractor's string encoder.
    ///
    /// Exposed so model checkpoints can fingerprint the encoder: two
    /// extractors with identical one-hot dictionaries but different string
    /// encoders (different embedding dictionaries, different rules) produce
    /// different encodings for the same probe strings.
    pub fn encode_string_operand(&self, s: &str, op: CompareOp) -> Vec<f32> {
        self.string_encoder.encode(s, op)
    }

    /// Encode an atomic predicate into
    /// `column one-hot ⧺ operator one-hot ⧺ numeric slot ⧺ string encoding`.
    pub fn encode_atom(&self, atom: &AtomPredicate) -> Vec<f32> {
        let mut v = vec![0.0f32; self.config.atom_dim()];
        self.encode_atom_into(atom, &mut v);
        v
    }

    /// Write an atomic predicate's encoding into a **zeroed** slice of
    /// length [`EncodingConfig::atom_dim`].  Bit-identical to
    /// [`FeatureExtractor::encode_atom`] without its allocation.
    pub fn encode_atom_into(&self, atom: &AtomPredicate, out: &mut [f32]) {
        let cfg = &self.config;
        debug_assert_eq!(out.len(), cfg.atom_dim());
        if let Some(pos) = cfg.column_position(&atom.table, &atom.column) {
            out[pos] = 1.0;
        }
        let op_base = cfg.column_pos.len();
        out[op_base + atom.op.index()] = 1.0;
        let operand_base = op_base + CompareOp::ALL.len();
        match &atom.operand {
            Operand::Num(x) => {
                out[operand_base] = cfg.normalize_numeric(&atom.table, &atom.column, *x) as f32;
            }
            Operand::Str(s) => {
                let dst = &mut out[operand_base + 1..operand_base + 1 + cfg.string_dim];
                self.string_encoder.encode_into(s, atom.op, dst);
            }
            Operand::StrList(items) => {
                // IN lists: average the encodings of the list members.
                if !items.is_empty() {
                    let dst = &mut out[operand_base + 1..operand_base + 1 + cfg.string_dim];
                    ATOM_SCRATCH.with(|scratch| {
                        let mut scratch = scratch.borrow_mut();
                        for s in items {
                            scratch.clear();
                            scratch.resize(cfg.string_dim, 0.0);
                            self.string_encoder.encode_into(s, atom.op, &mut scratch);
                            for (d, x) in dst.iter_mut().zip(scratch.iter()) {
                                *d += x;
                            }
                        }
                    });
                    for d in dst.iter_mut() {
                        *d /= items.len() as f32;
                    }
                }
            }
        }
    }

    /// Encode a (possibly compound) predicate into its tree encoding.
    pub fn encode_predicate(&self, predicate: Option<&Predicate>) -> PredicateEncoding {
        match predicate {
            None => PredicateEncoding::None,
            Some(Predicate::Atom(a)) => PredicateEncoding::Atom(self.encode_atom(a)),
            Some(Predicate::And(l, r)) => PredicateEncoding::And(
                Box::new(self.encode_predicate(Some(l))),
                Box::new(self.encode_predicate(Some(r))),
            ),
            Some(Predicate::Or(l, r)) => PredicateEncoding::Or(
                Box::new(self.encode_predicate(Some(l))),
                Box::new(self.encode_predicate(Some(r))),
            ),
        }
    }

    /// Encode the metadata bitmap of a node (tables ⧺ columns ⧺ indexes).
    pub fn encode_metadata(&self, node: &PlanNode) -> Vec<f32> {
        let mut v = vec![0.0f32; self.config.metadata_dim()];
        self.encode_metadata_into(node, &mut v);
        v
    }

    /// Write a node's metadata bitmap into a **zeroed** slice of length
    /// [`EncodingConfig::metadata_dim`].  Bit-identical to
    /// [`FeatureExtractor::encode_metadata`] without its allocation; every
    /// dictionary probe uses the borrowed-key lookups.
    pub fn encode_metadata_into(&self, node: &PlanNode, out: &mut [f32]) {
        let cfg = &self.config;
        debug_assert_eq!(out.len(), cfg.metadata_dim());
        let col_base = cfg.table_pos.len();
        let idx_base = col_base + cfg.column_pos.len();

        let mark_column = |table: &str, column: &str, out: &mut [f32]| {
            if let Some(p) = cfg.column_position(table, column) {
                out[col_base + p] = 1.0;
            }
            if let Some(p) = cfg.index_position(table, column) {
                out[idx_base + p] = 1.0;
            }
        };

        match &node.op {
            PhysicalOp::SeqScan { table, predicate } | PhysicalOp::IndexScan { table, predicate, .. } => {
                if let Some(&p) = cfg.table_pos.get(table) {
                    out[p] = 1.0;
                }
                if let PhysicalOp::IndexScan { index_column, .. } = &node.op {
                    mark_column(table, index_column, out);
                }
                if let Some(pred) = predicate {
                    pred.for_each_atom(&mut |atom| mark_column(&atom.table, &atom.column, out));
                }
            }
            PhysicalOp::HashJoin { condition }
            | PhysicalOp::MergeJoin { condition }
            | PhysicalOp::NestedLoopJoin { condition } => {
                for (t, c) in
                    [(&condition.left_table, &condition.left_column), (&condition.right_table, &condition.right_column)]
                {
                    if let Some(&p) = cfg.table_pos.get(t.as_str()) {
                        out[p] = 1.0;
                    }
                    mark_column(t, c, out);
                }
            }
            PhysicalOp::Sort { table, columns } => {
                if let Some(&p) = cfg.table_pos.get(table) {
                    out[p] = 1.0;
                }
                for c in columns {
                    mark_column(table, c, out);
                }
            }
            PhysicalOp::Aggregate { .. } => {}
        }
    }

    /// Encode the sample bitmap of a node: bit `i` is 1 when sampled row `i`
    /// of the scanned table satisfies the node's predicate.
    pub fn encode_sample_bitmap(&self, node: &PlanNode) -> Vec<f32> {
        let mut bits = vec![0.0; self.config.sample_dim()];
        self.encode_sample_bitmap_into(node, &mut bits);
        bits
    }

    /// Write a node's sample bitmap into a **zeroed** slice of length
    /// [`EncodingConfig::sample_dim`].  Bit-identical to
    /// [`FeatureExtractor::encode_sample_bitmap`] without its allocations;
    /// the predicate sweep itself is memoized per
    /// `(table, predicate signature)`, so across an enumeration every
    /// distinct scan predicate is evaluated against the sample exactly once.
    pub fn encode_sample_bitmap_into(&self, node: &PlanNode, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.config.sample_dim());
        if !self.use_sample_bitmap {
            return;
        }
        let (table, predicate) = match &node.op {
            PhysicalOp::SeqScan { table, predicate } | PhysicalOp::IndexScan { table, predicate, .. } => {
                (table.as_str(), predicate.as_ref())
            }
            _ => return,
        };
        let Some(pred) = predicate else { return };
        let (Some(sample), Some(tab)) = (self.db.sample(table), self.db.table(table)) else {
            return;
        };
        let key = if self.use_bitmap_memo {
            let mut h = SigHasher::new();
            h.write_str(table);
            pred.hash_signature(&mut h);
            let key = h.finish();
            if let Some(bits) = self.bitmap_memo.get(key) {
                out[..bits.len()].copy_from_slice(&bits);
                return;
            }
            Some(key)
        } else {
            None
        };
        for (i, &row) in sample.rows().iter().enumerate() {
            if i >= out.len() {
                break;
            }
            if pred.matches_row(tab, row) {
                out[i] = 1.0;
            }
        }
        if let Some(key) = key {
            let width = sample.width().min(out.len());
            self.bitmap_memo.insert(key, Arc::new(out[..width].to_vec()));
        }
    }

    /// Encode one node's four feature groups: the three fixed-width groups
    /// go into one contiguous slab, the predicate tree keeps its shape.
    pub fn encode_node(&self, node: &PlanNode) -> NodeFeatures {
        let cfg = &self.config;
        let meta_off = cfg.operation_dim();
        let samp_off = meta_off + cfg.metadata_dim();
        let mut slab = vec![0.0f32; samp_off + cfg.sample_dim()];
        slab[node.op.one_hot_index()] = 1.0;
        self.encode_metadata_into(node, &mut slab[meta_off..samp_off]);
        self.encode_sample_bitmap_into(node, &mut slab[samp_off..]);
        NodeFeatures {
            slab,
            meta_off: meta_off as u32,
            samp_off: samp_off as u32,
            predicate: self.encode_predicate(node.op.predicate()),
        }
    }

    /// Encode a whole (annotated) plan tree.  The plan must have been
    /// executed (or estimated) so that `true_cardinality`/`true_cost` are
    /// present; missing annotations become 0.
    pub fn encode_plan(&self, plan: &PlanNode) -> EncodedPlan {
        let children: Vec<Arc<EncodedPlan>> = plan.children.iter().map(|c| Arc::new(self.encode_plan(c))).collect();
        // Compose the signature from the already-encoded children's hashes
        // instead of re-walking each subtree once per ancestor.
        let signature = plan.signature_hash_from_children(children.iter().map(|c| c.signature));
        EncodedPlan {
            features: self.encode_node(plan),
            children,
            true_cardinality: plan.annotations.true_cardinality.unwrap_or(0.0),
            true_cost: plan.annotations.true_cost.unwrap_or(0.0),
            signature,
        }
    }

    /// Memoized [`FeatureExtractor::encode_plan`]: each distinct subtree is
    /// encoded at most once per cache, and a hit returns the shared
    /// `Arc<EncodedPlan>` without touching the plan's nodes again.
    ///
    /// Key-first: one [`key_pass`] computes every node's signature and memo
    /// key, then the cache is probed top-down from the root, so a plan whose
    /// root is cached costs one probe however large it is.  Memo keys cover
    /// the training targets too, so structurally identical plans with
    /// different targets never alias — the result is bit-identical to a
    /// fresh encode for *any* plan, annotated or not.
    pub fn encode_plan_cached(&self, plan: &PlanNode, cache: &ShardedCache<Arc<EncodedPlan>>) -> Arc<EncodedPlan> {
        let mut keys = Vec::new();
        key_pass(plan, &mut keys);
        self.encode_keyed(plan, 0, &keys, cache)
    }

    /// Encode a batch with in-batch signature dedup: subtrees shared across
    /// (or repeated within) the batch are encoded once.  Bit-identical to
    /// encoding each plan with [`FeatureExtractor::encode_plan`].
    pub fn encode_plans(&self, plans: &[PlanNode]) -> Vec<EncodedPlan> {
        let cache = ShardedCache::new();
        plans.iter().map(|p| EncodedPlan::clone(&self.encode_plan_cached(p, &cache))).collect()
    }

    /// [`FeatureExtractor::encode_plans`] against a caller-owned cache (the
    /// serving layer passes its cross-call encode cache here), so dedup
    /// extends across batches, sessions and rounds.  The key buffer is
    /// reused across the batch: a fully warm batch allocates only the
    /// returned `Vec`.
    pub fn encode_plans_cached(
        &self,
        plans: &[PlanNode],
        cache: &ShardedCache<Arc<EncodedPlan>>,
    ) -> Vec<Arc<EncodedPlan>> {
        let mut keys = Vec::new();
        plans
            .iter()
            .map(|p| {
                keys.clear();
                key_pass(p, &mut keys);
                self.encode_keyed(p, 0, &keys, cache)
            })
            .collect()
    }

    /// The top-down half of key-first encoding: probe `cache` for the
    /// subtree at pre-order position `at`, and on a miss encode its children
    /// the same way, then the node itself, and insert the result.
    fn encode_keyed(
        &self,
        plan: &PlanNode,
        at: usize,
        keys: &[NodeKeys],
        cache: &ShardedCache<Arc<EncodedPlan>>,
    ) -> Arc<EncodedPlan> {
        let NodeKeys { signature, memo_key, .. } = keys[at];
        if let Some(hit) = cache.get(memo_key) {
            return hit;
        }
        let encoded = Arc::new(EncodedPlan {
            children: child_positions(plan, at, keys).map(|(c, at)| self.encode_keyed(c, at, keys, cache)).collect(),
            features: self.encode_node(plan),
            true_cardinality: plan.annotations.true_cardinality.unwrap_or(0.0),
            true_cost: plan.annotations.true_cost.unwrap_or(0.0),
            signature,
        });
        cache.insert(memo_key, Arc::clone(&encoded));
        encoded
    }
}

/// The keys of one plan node, laid out by [`key_pass`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeKeys {
    /// Structural signature of the subtree ([`PlanNode::signature_hash`]).
    pub signature: u64,
    /// Encode-cache key of the subtree.  A subtree that carries no training
    /// target anywhere encodes from its structure alone, so its key is its
    /// signature.  Otherwise the key hashes the signature, this node's
    /// targets and the children's keys, so two subtrees share a key only
    /// when their entire content — and so their entire encoding — agrees.
    pub memo_key: u64,
    /// Number of nodes in the subtree.
    pub size: usize,
}

/// Append the [`NodeKeys`] of every node of `plan` to `out` in pre-order.
///
/// One post-order pass composes each signature from its children's with
/// [`PlanNode::signature_hash_from_children`], exactly as
/// [`FeatureExtractor::encode_plan`] does, so serving plans hash each node
/// once.  Pre-order makes a child's position its elder sibling's position
/// plus that sibling's size ([`child_positions`]).
pub fn key_pass(plan: &PlanNode, out: &mut Vec<NodeKeys>) {
    key_pass_rec(plan, out);
}

/// [`key_pass`] for one subtree; returns its signature and whether any of
/// its nodes carries a training target.
fn key_pass_rec(plan: &PlanNode, out: &mut Vec<NodeKeys>) -> (u64, bool) {
    let at = out.len();
    out.push(NodeKeys::default());
    let targets = &plan.annotations;
    let mut annotated = targets.true_cardinality.is_some() || targets.true_cost.is_some();
    let signature = plan.signature_hash_from_children(plan.children.iter().map(|c| {
        let (signature, child_annotated) = key_pass_rec(c, out);
        annotated |= child_annotated;
        signature
    }));
    let memo_key = if annotated {
        let mut h = SigHasher::new();
        h.write_u64(signature);
        for target in [targets.true_cardinality, targets.true_cost] {
            match target {
                Some(v) => {
                    h.write_u8(1);
                    h.write_f64(v);
                }
                None => h.write_u8(0),
            }
        }
        for (_, child) in child_positions(plan, at, out) {
            h.write_u64(out[child].memo_key);
        }
        h.finish()
    } else {
        signature
    };
    out[at] = NodeKeys { signature, memo_key, size: out.len() - at };
    (signature, annotated)
}

/// The children of the node at pre-order position `at` of `layout`, each
/// with its own position: in pre-order a node's first child follows it,
/// and each further child follows its elder sibling's whole subtree.
pub fn child_positions<'a>(
    plan: &'a PlanNode,
    at: usize,
    layout: &'a [NodeKeys],
) -> impl Iterator<Item = (&'a PlanNode, usize)> + 'a {
    plan.children.iter().scan(at + 1, move |next, child| {
        let at = *next;
        *next += layout[at].size;
        Some((child, at))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{execute_plan, CostModel};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate};
    use strembed::HashBitmapEncoder;

    fn extractor() -> FeatureExtractor {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 32, 64);
        FeatureExtractor::new(db, cfg, Arc::new(HashBitmapEncoder::new(32)))
    }

    fn scan_with_pred() -> PlanNode {
        PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_companies".into(),
            predicate: Some(
                Predicate::atom("movie_companies", "note", CompareOp::Like, Operand::Str("%(co-production)%".into()))
                    .or(Predicate::atom(
                        "movie_companies",
                        "note",
                        CompareOp::Like,
                        Operand::Str("%(presents)%".into()),
                    )),
            ),
        })
    }

    #[test]
    fn operation_one_hot_is_exclusive() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        assert_eq!(feats.operation().iter().sum::<f32>(), 1.0);
        assert_eq!(feats.operation()[0], 1.0); // SeqScan
    }

    #[test]
    fn metadata_marks_table_and_columns() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        let table_bits: f32 = feats.metadata()[..fx.config().table_pos.len()].iter().sum();
        assert_eq!(table_bits, 1.0);
        let col_bits: f32 = feats.metadata()[fx.config().table_pos.len()..].iter().sum();
        assert!(col_bits >= 1.0);
    }

    #[test]
    fn node_slab_groups_have_configured_widths() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        assert_eq!(feats.operation().len(), fx.config().operation_dim());
        assert_eq!(feats.metadata().len(), fx.config().metadata_dim());
        assert_eq!(feats.sample_bitmap().len(), fx.config().sample_dim());
        // The groups are one contiguous slab; from_groups round-trips them.
        let rebuilt = NodeFeatures::from_groups(
            feats.operation().to_vec(),
            feats.metadata().to_vec(),
            feats.predicate.clone(),
            feats.sample_bitmap().to_vec(),
        );
        assert_eq!(rebuilt, feats);
    }

    #[test]
    fn predicate_encoding_mirrors_structure() {
        let fx = extractor();
        let feats = fx.encode_node(&scan_with_pred());
        match &feats.predicate {
            PredicateEncoding::Or(l, r) => {
                assert!(matches!(**l, PredicateEncoding::Atom(_)));
                assert!(matches!(**r, PredicateEncoding::Atom(_)));
            }
            other => panic!("expected OR encoding, got {other:?}"),
        }
        assert_eq!(feats.predicate.num_atoms(), 2);
        assert_eq!(feats.predicate.dfs_atoms().len(), 2);
        for atom in feats.predicate.dfs_atoms() {
            assert_eq!(atom.len(), fx.config().atom_dim());
        }
    }

    #[test]
    fn atom_encoding_contains_string_embedding() {
        let fx = extractor();
        let atom = AtomPredicate::new("movie_companies", "note", CompareOp::Like, Operand::Str("%(presents)%".into()));
        let v = fx.encode_atom(&atom);
        let str_base = fx.config().column_pos.len() + 9 + 1;
        assert!(v[str_base..].iter().any(|&x| x != 0.0), "string slots all zero");
        // Column one-hot set exactly once.
        assert_eq!(v[..fx.config().column_pos.len()].iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn in_list_atom_averages_member_encodings() {
        let fx = extractor();
        let items = vec!["(presents)".to_string(), "(co-production)".to_string()];
        let listed = fx.encode_atom(&AtomPredicate::new(
            "movie_companies",
            "note",
            CompareOp::In,
            Operand::StrList(items.clone()),
        ));
        let singles: Vec<Vec<f32>> = items
            .iter()
            .map(|s| {
                fx.encode_atom(&AtomPredicate::new("movie_companies", "note", CompareOp::In, Operand::Str(s.clone())))
            })
            .collect();
        let str_base = fx.config().column_pos.len() + 9 + 1;
        for i in str_base..fx.config().atom_dim() {
            let mean = (singles[0][i] + singles[1][i]) / 2.0;
            assert_eq!(listed[i].to_bits(), mean.to_bits(), "slot {i} is not the member average");
        }
    }

    #[test]
    fn numeric_atom_sets_numeric_slot() {
        let fx = extractor();
        let atom = AtomPredicate::new("title", "production_year", CompareOp::Gt, Operand::Num(2000.0));
        let v = fx.encode_atom(&atom);
        let num_slot = fx.config().column_pos.len() + 9;
        assert!(v[num_slot] > 0.0 && v[num_slot] <= 1.0);
    }

    #[test]
    fn sample_bitmap_reflects_selectivity() {
        let fx = extractor();
        let all = fx.encode_sample_bitmap(&PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_companies".into(),
            predicate: Some(Predicate::atom("movie_companies", "id", CompareOp::Gt, Operand::Num(0.0))),
        }));
        let none = fx.encode_sample_bitmap(&PlanNode::leaf(PhysicalOp::SeqScan {
            table: "movie_companies".into(),
            predicate: Some(Predicate::atom("movie_companies", "id", CompareOp::Lt, Operand::Num(-5.0))),
        }));
        assert!(all.iter().sum::<f32>() > 0.9 * 64.0);
        assert_eq!(none.iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn sample_bitmap_disabled_is_zero() {
        let mut fx = extractor();
        fx.use_sample_bitmap = false;
        let bits = fx.encode_sample_bitmap(&scan_with_pred());
        assert_eq!(bits.iter().sum::<f32>(), 0.0);
        assert_eq!(bits.len(), 64);
    }

    #[test]
    fn bitmap_memo_hits_on_repeated_predicates_with_identical_bits() {
        let fx = extractor();
        let node = scan_with_pred();
        let first = fx.encode_sample_bitmap(&node);
        let (h0, m0) = fx.bitmap_memo_stats();
        assert_eq!((h0, m0), (0, 1), "first sweep must miss the memo");
        let second = fx.encode_sample_bitmap(&node);
        assert_eq!(fx.bitmap_memo_stats(), (1, 1), "second sweep must hit");
        assert_eq!(
            first.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|b| b.to_bits()).collect::<Vec<_>>()
        );
        // Same predicate behind a different scan operator shares the entry.
        let index_scan = PlanNode::leaf(PhysicalOp::IndexScan {
            table: "movie_companies".into(),
            index_column: "id".into(),
            predicate: match &node.op {
                PhysicalOp::SeqScan { predicate, .. } => predicate.clone(),
                _ => unreachable!(),
            },
        });
        let third = fx.encode_sample_bitmap(&index_scan);
        assert_eq!(fx.bitmap_memo_stats(), (2, 1));
        assert_eq!(first, third);
        fx.clear_bitmap_memo();
        assert_eq!(fx.bitmap_memo_stats(), (0, 0));
    }

    fn executed_join(db: &Arc<Database>, year: f64) -> PlanNode {
        let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
            table: "title".into(),
            predicate: Some(Predicate::atom("title", "production_year", CompareOp::Gt, Operand::Num(year))),
        });
        let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let mut join = PlanNode::inner(
            PhysicalOp::HashJoin { condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id") },
            vec![scan_t, scan_mc],
        );
        execute_plan(db, &mut join, &CostModel::default());
        join
    }

    #[test]
    fn encoded_plan_mirrors_tree_and_targets() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));
        let join = executed_join(&db, 2000.0);
        let encoded = fx.encode_plan(&join);
        assert_eq!(encoded.size(), 3);
        assert_eq!(encoded.height(), 2);
        assert_eq!(encoded.signature, join.signature_hash());
        assert_eq!(encoded.children[0].signature, join.children[0].signature_hash());
        assert_ne!(encoded.signature, encoded.children[0].signature);
        assert!(encoded.true_cardinality > 0.0);
        assert!(encoded.true_cost > 0.0);
        assert_eq!(encoded.children.len(), 2);
        assert!(matches!(encoded.children[1].features.predicate, PredicateEncoding::None));
    }

    #[test]
    fn encode_plans_dedups_and_matches_fresh_encoding() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));
        // Two identical plans plus one sharing only the scan subtrees.
        let plans = vec![executed_join(&db, 2000.0), executed_join(&db, 2000.0), executed_join(&db, 1980.0)];
        let fresh: Vec<EncodedPlan> = plans.iter().map(|p| fx.encode_plan(p)).collect();
        let batched = fx.encode_plans(&plans);
        assert_eq!(batched, fresh, "batched memoized encode must equal fresh per-plan encode");

        // Through an explicit cache the two identical roots share one Arc.
        let cache = ShardedCache::new();
        let arcs = fx.encode_plans_cached(&plans, &cache);
        assert!(Arc::ptr_eq(&arcs[0], &arcs[1]), "identical plans must dedup to one cached encoding");
        assert!(!Arc::ptr_eq(&arcs[0], &arcs[2]));
        // 3 distinct subtrees per plan; the second is fully shared, the
        // third shares only the un-annotated predicate-free mc scan (its
        // annotated title scan differs by year, and executed annotations
        // differ per plan).
        assert!(cache.len() < 9, "cache holds fewer entries than total nodes ({})", cache.len());
        assert_eq!(EncodedPlan::clone(&arcs[2]), fresh[2]);
    }

    #[test]
    fn annotated_twins_never_alias_in_the_encode_cache() {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 16, 64);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(16)));
        let executed = executed_join(&db, 2000.0);
        fn clear_annotations(node: &mut PlanNode) {
            node.annotations = Default::default();
            for c in &mut node.children {
                clear_annotations(c);
            }
        }
        let mut bare = executed.clone();
        clear_annotations(&mut bare);
        assert_eq!(executed.signature_hash(), bare.signature_hash(), "twins must collide structurally");
        let cache = ShardedCache::new();
        let a = fx.encode_plan_cached(&executed, &cache);
        let b = fx.encode_plan_cached(&bare, &cache);
        assert!(a.true_cost > 0.0);
        assert_eq!(b.true_cost, 0.0, "un-annotated twin must not inherit cached targets");
        assert_eq!(EncodedPlan::clone(&b), fx.encode_plan(&bare));
    }
}
