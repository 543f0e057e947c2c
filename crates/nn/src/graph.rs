//! Reverse-mode automatic differentiation over a tape of matrix operations.
//!
//! Every query plan produces its own dynamically-shaped computation graph
//! (the tree model mirrors the plan tree), so the tape is rebuilt per forward
//! pass: cheap to construct, trivially correct to differentiate.  Parameters
//! live in a [`ParamStore`] outside the graph and receive accumulated
//! gradients when [`Graph::backward`] runs.
//!
//! # Allocation discipline
//!
//! The tape is built for two very different workloads:
//!
//! * **Inference** ([`Graph::inference`]) — the estimator sits inside an
//!   optimizer loop, so the forward pass must not pay for training
//!   machinery.  No gradient matrix is ever allocated (gradients are
//!   `Option` and stay `None`), no operation metadata is recorded, and
//!   [`Graph::backward`] panics if called.
//! * **Training** ([`Graph::new`]) — gradients are still *lazy*: a node's
//!   gradient matrix is materialized only when the backward sweep first
//!   reaches it, so nodes outside the loss cone never allocate one.
//!
//! In both modes, node values are computed with the `_into` kernels of
//! [`Matrix`] into buffers drawn from an internal pool; [`Graph::reset`]
//! clears the tape but keeps the buffers, so steady-state forward passes
//! (one per plan, thousands per optimizer run) are allocation-free once the
//! pool is warm.  The backward pass multiplies by transposed operands with
//! [`Matrix::matmul_nt_into`]-style kernels instead of materializing
//! transposes.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::quant::QuantMatrix;
use crate::simd;

/// Handle to a node (an intermediate value) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Whether a graph records the metadata needed for a backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Record operations; `backward` is available.
    Train,
    /// Values only: no gradient slots, no op metadata, no backward.
    Inference,
}

#[derive(Debug, Clone)]
enum Op {
    /// Constant input (feature vector); receives no gradient.  Also used for
    /// every node of an inference-mode graph, where ops are never replayed.
    Input,
    /// Copy of a trainable parameter; gradient is accumulated into the store.
    Param(ParamId),
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    /// `x + bias` where `bias` is a column vector broadcast over columns.
    AddBias(NodeId, NodeId),
    Hadamard(NodeId, NodeId),
    EMin(NodeId, NodeId),
    EMax(NodeId, NodeId),
    /// `(a + b) / 2` — the children-averaging of the representation layer.
    Mean2(NodeId, NodeId),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Scale(NodeId, f32),
    ConcatRows(Vec<NodeId>),
    SliceRows(NodeId, usize, usize),
    ConcatCols(Vec<NodeId>),
    ColumnAt(NodeId, usize),
    /// Output column `j` is column `sources[j].1` of node `sources[j].0`.
    /// The batched gather that assembles children-state matrices from the
    /// per-level cell outputs without one tape node per column.
    GatherCols(Vec<(NodeId, usize)>),
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    /// Materialized lazily by the backward sweep; `None` outside it.
    grad: Option<Matrix>,
    op: Op,
}

/// A tape of matrix operations supporting a single backward pass.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    inference: bool,
    /// Reproduce the original tape's allocation behavior (see
    /// [`Graph::seed_compat`]).
    eager: bool,
    /// Recycled value/grad buffers, refilled by [`Graph::reset`].
    pool: Vec<Vec<f32>>,
    /// Parameter id -> already-recorded node, so a tape copies each weight
    /// matrix once per forward pass no matter how many times the layer is
    /// applied (the shared-weight tree cell applies each one per node).
    param_cache: Vec<(ParamId, NodeId)>,
    /// Packed int8 activations of the most recent [`Graph::matmul_quant`]
    /// right-hand side, keyed by node index.  Consecutive quantized matmuls
    /// against the same activations (the four LSTM gate matmuls of one cell
    /// application) quantize and pack the columns once.
    quant_pack: Option<(usize, crate::quant::PackedActivations)>,
}

impl Graph {
    /// Create an empty training-mode graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Create an empty inference-mode graph: forward values only, no
    /// gradient bookkeeping of any kind.
    pub fn inference() -> Self {
        Graph { inference: true, ..Graph::default() }
    }

    /// Create a training-mode graph that reproduces the pre-optimization
    /// tape's allocation behavior: a zero gradient matrix is allocated
    /// eagerly for every node, and every `param` call records a fresh copy
    /// of the parameter.  Exists so the benchmarks can measure the original
    /// cost model faithfully (`batch::reference`); not for production use.
    pub fn seed_compat() -> Self {
        Graph { eager: true, ..Graph::default() }
    }

    /// The graph's mode.
    pub fn mode(&self) -> Mode {
        if self.inference {
            Mode::Inference
        } else {
            Mode::Train
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear the tape for a fresh forward pass, keeping (and recycling) every
    /// buffer the previous pass allocated.  After a few passes the pool is
    /// warm and node values stop hitting the allocator.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.push(node.value.into_vec());
            if let Some(g) = node.grad {
                self.pool.push(g.into_vec());
            }
        }
        self.param_cache.clear();
        self.quant_pack = None;
    }

    fn take_buffer(&mut self) -> Vec<f32> {
        self.pool.pop().unwrap_or_default()
    }

    /// A `rows x cols` matrix backed by a recycled buffer if any.  Contents
    /// are unspecified: every op kernel writing into it either overwrites
    /// all elements or (matmul) zero-fills before accumulating.
    fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        let buf = self.take_buffer();
        Matrix::from_pooled_uninit(rows, cols, buf)
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        // Inference graphs never replay ops, so no metadata is kept.
        let op = if self.inference { Op::Input } else { op };
        let grad = if self.eager { Some(Matrix::zeros(value.rows(), value.cols())) } else { None };
        self.nodes.push(Node { value, grad, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Build a node-list op payload, skipping the `Vec` allocation entirely
    /// on inference tapes (where `push` discards the op anyway).
    fn list_op(&self, make: impl FnOnce() -> Op) -> Op {
        if self.inference {
            Op::Input
        } else {
            make()
        }
    }

    /// Current forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Pending (not yet swept) gradient of a node.  Node gradients are
    /// **consumed** by the backward sweep — after `backward` returns, every
    /// swept node's slot is `None` and the accumulated parameter gradients
    /// live in the [`ParamStore`].  `Some` is only observable for gradients
    /// seeded or propagated but not yet processed (i.e. mid-sweep, which no
    /// public API exposes), so this is primarily a debugging hook.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Record a constant input.  The matrix joins the buffer pool on the
    /// next [`Graph::reset`], so a reused tape should build its inputs with
    /// [`Graph::input_zeros_with`] instead: a caller-allocated input grows
    /// the pool by one buffer per pass.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Record a `rows x cols` zero input drawn from the buffer pool.
    pub fn input_zeros(&mut self, rows: usize, cols: usize) -> NodeId {
        self.input_zeros_with(rows, cols, |_| {})
    }

    /// Record a `rows x cols` input drawn from the buffer pool, zero-filled
    /// and then written in place by `fill` (e.g. a column-stacked feature
    /// batch).  A pass built only from pooled inputs returns to the pool
    /// exactly the buffers it took, so a reused tape stops growing.
    pub fn input_zeros_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Matrix)) -> NodeId {
        let mut value = self.alloc(rows, cols);
        value.data_mut().fill(0.0);
        fill(&mut value);
        self.push(value, Op::Input)
    }

    /// Number of recycled buffers the tape holds for its next pass.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Record (a copy of) a trainable parameter.  Repeated requests for the
    /// same parameter on one tape return the already-recorded node: values
    /// cannot change mid-forward, and gradient accumulation through a shared
    /// node is identical to summing over separate copies.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if self.eager {
            // seed_compat reproduces the original copy-per-application cost
            // and keeps no cache.
            let value = Matrix::from_pooled_copy(store.value(id), Vec::new());
            return self.push(value, Op::Param(id));
        }
        if let Some(&(_, node)) = self.param_cache.iter().find(|(pid, _)| *pid == id) {
            return node;
        }
        let buf = self.take_buffer();
        let value = Matrix::from_pooled_copy(store.value(id), buf);
        let node = self.push(value, Op::Param(id));
        self.param_cache.push((id, node));
        node
    }

    /// Matrix product (cache-blocked kernel).
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a, b))
    }

    /// Matrix product of a **quantized** weight matrix and a node — the
    /// int8 batch inference path.  The int8 inner products dequantize
    /// directly into an ordinary f32 tape node, so everything downstream
    /// (bias add, activations, state extraction) is tier-agnostic.
    ///
    /// Inference-only: the quantized weights are frozen publish-time
    /// artifacts with no gradient story.
    ///
    /// # Panics
    /// Panics on a training-mode graph or on dimension mismatch.
    pub fn matmul_quant(&mut self, w: &QuantMatrix, x: NodeId) -> NodeId {
        assert!(self.inference, "matmul_quant is an inference-only operation");
        let cols = self.nodes[x.0].value.cols();
        let mut out = self.alloc(w.rows(), cols);
        if self.quant_pack.as_ref().is_none_or(|(node, _)| *node != x.0) {
            self.quant_pack = Some((x.0, crate::quant::PackedActivations::pack(&self.nodes[x.0].value)));
        }
        let (_, pack) = self.quant_pack.as_ref().expect("activation pack was just installed");
        w.matmul_packed(pack, &mut out);
        self.push(out, Op::Input)
    }

    /// The four LSTM gate activations — sigmoid over the forget / input /
    /// output pre-activations, tanh over the candidate — as one fused
    /// operation.  On an inference tape all four output buffers are filled
    /// in a single [`simd::lstm_gate_sweep`] pass instead of four separate
    /// `map_into` column walks.  The sweep is runtime-dispatched: on the
    /// scalar path it applies the exact per-element formulas of
    /// [`Graph::sigmoid`] / [`Graph::tanh`] (bit-identical to the unfused
    /// ops); on the AVX2 path it runs the 8-wide FMA rational activations
    /// (`simd::tanh_fma` / `simd::sigmoid_fma`, abs error vs. libm < 1e-5 —
    /// inside the f32 tier's tolerance contract, see `docs/perf.md`).
    /// Training-mode tapes fall back to the four individual libm ops on
    /// every path, keeping the backward pass intact.
    pub fn lstm_gates(&mut self, zf: NodeId, zk1: NodeId, zr: NodeId, zk2: NodeId) -> (NodeId, NodeId, NodeId, NodeId) {
        if !self.inference {
            return (self.sigmoid(zf), self.sigmoid(zk1), self.tanh(zr), self.sigmoid(zk2));
        }
        for z in [zf, zk1, zr, zk2] {
            let buf = self.take_buffer();
            let value = Matrix::from_pooled_copy(&self.nodes[z.0].value, buf);
            self.push(value, Op::Input);
        }
        let n = self.nodes.len();
        match &mut self.nodes[n - 4..] {
            [nf, nk1, nr, nk2] => simd::lstm_gate_sweep(
                nf.value.data_mut(),
                nk1.value.data_mut(),
                nr.value.data_mut(),
                nk2.value.data_mut(),
            ),
            _ => unreachable!("four gate nodes were just pushed"),
        }
        (NodeId(n - 4), NodeId(n - 3), NodeId(n - 2), NodeId(n - 1))
    }

    /// [`Graph::lstm_gates`] with the fast approximate activations
    /// ([`simd::lstm_gate_sweep_fast`]) — the int8 tier's gate sweep.  Once
    /// the gate matmuls are int8, exact libm transcendentals dominate the
    /// forward pass; the tier is approximate by contract, so it trades
    /// their last ~1e-7 of accuracy (orders of magnitude below the
    /// weight-quantization error) for the rational-polynomial sweep.
    ///
    /// Deterministic — pure f32 arithmetic, identical on every dispatch
    /// path — so memoized int8-tier state stays bit-identical to fresh
    /// int8-tier computation.  Inference-only, like every quantized op.
    ///
    /// # Panics
    /// Panics on a training-mode graph.
    pub fn lstm_gates_approx(
        &mut self,
        zf: NodeId,
        zk1: NodeId,
        zr: NodeId,
        zk2: NodeId,
    ) -> (NodeId, NodeId, NodeId, NodeId) {
        assert!(self.inference, "lstm_gates_approx is an inference-only operation");
        for z in [zf, zk1, zr, zk2] {
            let buf = self.take_buffer();
            let value = Matrix::from_pooled_copy(&self.nodes[z.0].value, buf);
            self.push(value, Op::Input);
        }
        let n = self.nodes.len();
        match &mut self.nodes[n - 4..] {
            [nf, nk1, nr, nk2] => simd::lstm_gate_sweep_fast(
                nf.value.data_mut(),
                nk1.value.data_mut(),
                nr.value.data_mut(),
                nk2.value.data_mut(),
            ),
            _ => unreachable!("four gate nodes were just pushed"),
        }
        (NodeId(n - 4), NodeId(n - 3), NodeId(n - 2), NodeId(n - 1))
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.add_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::Add(a, b))
    }

    /// Add a column-vector bias, broadcast over all columns of `x`.  One
    /// fused [`Matrix::add_bias_into`] pass into a recycled buffer (no
    /// copy-then-add double sweep, no per-call allocation) — this sits
    /// directly after every GEMM in the forward path.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let src = &self.nodes[x.0].value;
        let (rows, cols) = (src.rows(), src.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.add_bias_into(&self.nodes[bias.0].value, &mut out);
        self.push(out, Op::AddBias(x, bias))
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.hadamard_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::Hadamard(a, b))
    }

    /// Element-wise minimum — the AND pooling of the predicate tree (§4.2.1).
    pub fn emin(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.emin_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::EMin(a, b))
    }

    /// Element-wise maximum — the OR pooling of the predicate tree (§4.2.1).
    pub fn emax(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.emax_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::EMax(a, b))
    }

    /// `(a + b) / 2` — averaging of the two children representations (§4.2.2).
    pub fn mean2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[a.0].value.add_into(&self.nodes[b.0].value, &mut out);
        out.scale_inplace(0.5);
        self.push(out, Op::Mean2(a, b))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| v.max(0.0), &mut out);
        self.push(out, Op::Relu(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| 1.0 / (1.0 + (-v).exp()), &mut out);
        self.push(out, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| v.tanh(), &mut out);
        self.push(out, Op::Tanh(x))
    }

    /// Fast approximate tanh ([`simd::tanh_fast`]) — int8-tier companion of
    /// [`Graph::tanh`]; see [`Graph::lstm_gates_approx`] for the contract.
    ///
    /// # Panics
    /// Panics on a training-mode graph.
    pub fn tanh_approx(&mut self, x: NodeId) -> NodeId {
        assert!(self.inference, "tanh_approx is an inference-only operation");
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(simd::tanh_fast, &mut out);
        self.push(out, Op::Input)
    }

    /// Fast approximate sigmoid ([`simd::sigmoid_fast`]) — int8-tier
    /// companion of [`Graph::sigmoid`]; see [`Graph::lstm_gates_approx`]
    /// for the contract.
    ///
    /// # Panics
    /// Panics on a training-mode graph.
    pub fn sigmoid_approx(&mut self, x: NodeId) -> NodeId {
        assert!(self.inference, "sigmoid_approx is an inference-only operation");
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(simd::sigmoid_fast, &mut out);
        self.push(out, Op::Input)
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        let mut out = self.alloc(rows, cols);
        self.nodes[x.0].value.map_into(|v| v * s, &mut out);
        self.push(out, Op::Scale(x, s))
    }

    /// Vertical concatenation of feature vectors.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows needs at least one node");
        let cols = self.nodes[parts[0].0].value.cols();
        let rows: usize = parts.iter().map(|id| self.nodes[id.0].value.rows()).sum();
        let mut out = self.alloc(rows, cols);
        let mut offset = 0;
        for id in parts {
            let p = &self.nodes[id.0].value;
            assert_eq!(p.cols(), cols, "concat_rows requires equal column counts");
            out.data_mut()[offset..offset + p.len()].copy_from_slice(p.data());
            offset += p.len();
        }
        let op = self.list_op(|| Op::ConcatRows(parts.to_vec()));
        self.push(out, op)
    }

    /// Horizontal concatenation (batching of same-shaped vectors).
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols needs at least one node");
        let rows = self.nodes[parts[0].0].value.rows();
        let cols: usize = parts.iter().map(|id| self.nodes[id.0].value.cols()).sum();
        let mut out = self.alloc(rows, cols);
        let mut col_off = 0;
        for id in parts {
            let p = &self.nodes[id.0].value;
            assert_eq!(p.rows(), rows, "concat_cols requires equal row counts");
            let pc = p.cols();
            for r in 0..rows {
                out.data_mut()[r * cols + col_off..r * cols + col_off + pc]
                    .copy_from_slice(&p.data()[r * pc..(r + 1) * pc]);
            }
            col_off += pc;
        }
        let op = self.list_op(|| Op::ConcatCols(parts.to_vec()));
        self.push(out, op)
    }

    /// Take a contiguous block of rows `[start, start+len)`.
    pub fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let src_cols = self.nodes[x.0].value.cols();
        assert!(start + len <= self.nodes[x.0].value.rows(), "row slice out of range");
        let mut out = self.alloc(len, src_cols);
        out.data_mut().copy_from_slice(&self.nodes[x.0].value.data()[start * src_cols..(start + len) * src_cols]);
        self.push(out, Op::SliceRows(x, start, len))
    }

    /// Gather one column per entry of `sources` into a new matrix: output
    /// column `j` is column `sources[j].1` of node `sources[j].0`.  All
    /// source nodes must share a row count.  One tape node assembles a whole
    /// children-state batch, where `column_at` + `concat_cols` would record
    /// a node per column.
    ///
    /// # Panics
    /// Panics if `sources` is empty, a column index is out of range, or the
    /// row counts differ.
    pub fn gather_cols(&mut self, sources: &[(NodeId, usize)]) -> NodeId {
        assert!(!sources.is_empty(), "gather_cols needs at least one column");
        let rows = self.nodes[sources[0].0 .0].value.rows();
        let n = sources.len();
        let mut out = self.alloc(rows, n);
        for (j, &(src, c)) in sources.iter().enumerate() {
            let v = &self.nodes[src.0].value;
            assert_eq!(v.rows(), rows, "gather_cols requires equal row counts");
            assert!(c < v.cols(), "gather_cols column out of range");
            let (vc, oc) = (v.cols(), n);
            for r in 0..rows {
                out.data_mut()[r * oc + j] = v.data()[r * vc + c];
            }
        }
        let op = self.list_op(|| Op::GatherCols(sources.to_vec()));
        self.push(out, op)
    }

    /// Copy column `col` of a node's value into `out` (cleared first) — the
    /// state-extraction half of subtree memoization: after a level's cell
    /// runs, each new sub-plan's `G`/`R` column is lifted off the tape into
    /// the cache without any tape node.
    ///
    /// # Panics
    /// Panics if `col` is out of range.
    pub fn extract_column(&self, id: NodeId, col: usize, out: &mut Vec<f32>) {
        let v = &self.nodes[id.0].value;
        assert!(col < v.cols(), "extract_column out of range");
        let (rows, cols) = (v.rows(), v.cols());
        out.clear();
        out.reserve(rows);
        for r in 0..rows {
            out.push(v.data()[r * cols + col]);
        }
    }

    /// Record an input assembled from column slices (all of length `rows`) —
    /// the state-injection half of subtree memoization: cached `G`/`R`
    /// vectors re-enter a fresh tape as one batched constant, drawn from the
    /// buffer pool like every other node value.
    ///
    /// # Panics
    /// Panics if `columns` is empty or a slice's length differs from `rows`.
    pub fn input_columns(&mut self, rows: usize, columns: &[&[f32]]) -> NodeId {
        assert!(!columns.is_empty(), "input_columns needs at least one column");
        let n = columns.len();
        let mut out = self.alloc(rows, n);
        for (j, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "input_columns row-count mismatch");
            for (r, &v) in col.iter().enumerate() {
                out.data_mut()[r * n + j] = v;
            }
        }
        self.push(out, Op::Input)
    }

    /// Take a single column of a batched matrix.
    pub fn column_at(&mut self, x: NodeId, c: usize) -> NodeId {
        let (rows, cols) = (self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
        assert!(c < cols, "column out of range");
        let mut out = self.alloc(rows, 1);
        for r in 0..rows {
            out.data_mut()[r] = self.nodes[x.0].value.data()[r * cols + c];
        }
        self.push(out, Op::ColumnAt(x, c))
    }

    /// Backward pass: seed `root` with `seed_grad` (dLoss/dRoot), propagate
    /// gradients to all ancestors and accumulate parameter gradients into
    /// `store`.
    ///
    /// # Panics
    /// Panics on an inference-mode graph or if the seed gradient shape does
    /// not match the root value shape.
    pub fn backward(&mut self, root: NodeId, seed_grad: Matrix, store: &mut ParamStore) {
        self.backward_multi(vec![(root, seed_grad)], store);
    }

    /// Backward pass seeded at several roots at once (e.g. the cost and
    /// cardinality heads of a multitask forward), sweeping the tape a single
    /// time.  Gradients are consumed by the sweep: each node's gradient is
    /// taken when processed, so repeated calls propagate only their own
    /// seeds and never double-count earlier contributions.
    ///
    /// # Panics
    /// Panics on an inference-mode graph or any seed shape mismatch.
    pub fn backward_multi(&mut self, seeds: Vec<(NodeId, Matrix)>, store: &mut ParamStore) {
        assert!(!self.inference, "backward called on an inference-mode graph");
        if seeds.is_empty() {
            return;
        }
        let mut highest = 0usize;
        for (root, seed) in seeds {
            let value = &self.nodes[root.0].value;
            assert_eq!(seed.rows(), value.rows(), "seed grad row mismatch");
            assert_eq!(seed.cols(), value.cols(), "seed grad col mismatch");
            accumulate(&mut self.nodes[root.0].grad, seed);
            highest = highest.max(root.0);
        }

        for i in (0..=highest).rev() {
            let Some(grad) = self.nodes[i].grad.take() else { continue };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Input => {}
                Op::Param(pid) => store.accumulate_grad(pid, &grad),
                Op::MatMul(a, b) => {
                    // dA = dC · Bᵀ and dB = Aᵀ · dC via the transposed
                    // kernels — no transpose matrix is materialized.
                    let da = grad.matmul_nt(&self.nodes[b.0].value);
                    let db = self.nodes[a.0].value.matmul_tn(&grad);
                    accumulate(&mut self.nodes[a.0].grad, da);
                    accumulate(&mut self.nodes[b.0].grad, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut self.nodes[a.0].grad, grad.clone());
                    accumulate(&mut self.nodes[b.0].grad, grad);
                }
                Op::AddBias(x, bias) => {
                    let db = grad.sum_cols();
                    accumulate(&mut self.nodes[bias.0].grad, db);
                    accumulate(&mut self.nodes[x.0].grad, grad);
                }
                Op::Hadamard(a, b) => {
                    let mut da = grad.clone();
                    da.hadamard_assign(&self.nodes[b.0].value);
                    let mut db = grad;
                    db.hadamard_assign(&self.nodes[a.0].value);
                    accumulate(&mut self.nodes[a.0].grad, da);
                    accumulate(&mut self.nodes[b.0].grad, db);
                }
                ref op @ (Op::EMin(a, b) | Op::EMax(a, b)) => {
                    let take_a_on_min = matches!(op, Op::EMin(_, _));
                    let va = &self.nodes[a.0].value;
                    let vb = &self.nodes[b.0].value;
                    let mut da = Matrix::zeros(va.rows(), va.cols());
                    let mut db = Matrix::zeros(vb.rows(), vb.cols());
                    for idx in 0..grad.len() {
                        let g = grad.data()[idx];
                        let pick_a = if take_a_on_min {
                            va.data()[idx] <= vb.data()[idx]
                        } else {
                            va.data()[idx] >= vb.data()[idx]
                        };
                        if pick_a {
                            da.data_mut()[idx] = g;
                        } else {
                            db.data_mut()[idx] = g;
                        }
                    }
                    accumulate(&mut self.nodes[a.0].grad, da);
                    accumulate(&mut self.nodes[b.0].grad, db);
                }
                Op::Mean2(a, b) => {
                    let mut half = grad;
                    half.scale_inplace(0.5);
                    accumulate(&mut self.nodes[a.0].grad, half.clone());
                    accumulate(&mut self.nodes[b.0].grad, half);
                }
                Op::Relu(x) => {
                    let mut dx = grad;
                    for (g, &v) in dx.data_mut().iter_mut().zip(self.nodes[x.0].value.data().iter()) {
                        if v <= 0.0 {
                            *g = 0.0;
                        }
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::Sigmoid(x) => {
                    let mut dx = grad;
                    for (g, &s) in dx.data_mut().iter_mut().zip(self.nodes[i].value.data().iter()) {
                        *g *= s * (1.0 - s);
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::Tanh(x) => {
                    let mut dx = grad;
                    for (g, &t) in dx.data_mut().iter_mut().zip(self.nodes[i].value.data().iter()) {
                        *g *= 1.0 - t * t;
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::Scale(x, s) => {
                    let mut dx = grad;
                    dx.scale_inplace(s);
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for pid in parts {
                        let rows = self.nodes[pid.0].value.rows();
                        let piece = grad.slice_rows(offset, rows);
                        accumulate(&mut self.nodes[pid.0].grad, piece);
                        offset += rows;
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for pid in parts {
                        let cols = self.nodes[pid.0].value.cols();
                        let rows = self.nodes[pid.0].value.rows();
                        let mut piece = Matrix::zeros(rows, cols);
                        for r in 0..rows {
                            for c in 0..cols {
                                piece.set(r, c, grad.get(r, offset + c));
                            }
                        }
                        accumulate(&mut self.nodes[pid.0].grad, piece);
                        offset += cols;
                    }
                }
                Op::SliceRows(x, start, len) => {
                    let parent = &self.nodes[x.0].value;
                    let mut dx = Matrix::zeros(parent.rows(), parent.cols());
                    for r in 0..len {
                        for c in 0..grad.cols() {
                            dx.set(start + r, c, grad.get(r, c));
                        }
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::ColumnAt(x, col) => {
                    let parent = &self.nodes[x.0].value;
                    let mut dx = Matrix::zeros(parent.rows(), parent.cols());
                    for r in 0..grad.rows() {
                        dx.set(r, col, grad.get(r, 0));
                    }
                    accumulate(&mut self.nodes[x.0].grad, dx);
                }
                Op::GatherCols(sources) => {
                    for (j, (src, c)) in sources.into_iter().enumerate() {
                        let parent = &self.nodes[src.0].value;
                        let (rows, cols) = (parent.rows(), parent.cols());
                        // Scatter-add column j of the gradient into column c
                        // of the source's (lazily materialized) gradient.
                        let slot = &mut self.nodes[src.0].grad;
                        let dst = slot.get_or_insert_with(|| Matrix::zeros(rows, cols));
                        for r in 0..rows {
                            let v = grad.get(r, j);
                            if v != 0.0 {
                                dst.data_mut()[r * cols + c] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Accumulate a gradient contribution into a lazily-materialized slot: the
/// first contribution moves in without any zero-matrix allocation.
fn accumulate(slot: &mut Option<Matrix>, contribution: Matrix) {
    match slot {
        Some(g) => g.add_assign(&contribution),
        None => *slot = Some(contribution),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check of a scalar function of a parameter.
    fn grad_check(
        build: impl Fn(&mut Graph, &ParamStore) -> NodeId,
        store: &mut ParamStore,
        pid: ParamId,
        eps: f32,
        tol: f32,
    ) {
        // Analytical gradient.
        store.zero_grad();
        let mut g = Graph::new();
        let out = build(&mut g, store);
        assert_eq!(g.value(out).len(), 1, "grad_check requires a scalar output");
        g.backward(out, Matrix::from_vec(1, 1, vec![1.0]), store);
        let analytic = store.grad(pid).clone();

        // Numerical gradient.
        let n = store.value(pid).len();
        for i in 0..n {
            let orig = store.value(pid).data()[i];
            store.value_mut(pid).data_mut()[i] = orig + eps;
            let mut g1 = Graph::new();
            let o1 = build(&mut g1, store);
            let f1 = g1.value(o1).data()[0];
            store.value_mut(pid).data_mut()[i] = orig - eps;
            let mut g2 = Graph::new();
            let o2 = build(&mut g2, store);
            let f2 = g2.value(o2).data()[0];
            store.value_mut(pid).data_mut()[i] = orig;
            let numeric = (f1 - f2) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!((a - numeric).abs() < tol, "gradient mismatch at {}: analytic {} vs numeric {}", i, a, numeric);
        }
    }

    #[test]
    fn matmul_forward_and_backward() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[1.0, 4.0]));
        let wp = g.param(&store, w);
        let y = g.matmul(wp, x);
        assert_eq!(g.value(y).data()[0], 14.0);
        g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        // dy/dw = x^T = [1, 4]
        assert_eq!(store.grad(w), &Matrix::from_vec(1, 2, vec![1.0, 4.0]));
    }

    #[test]
    fn gradient_check_linear_sigmoid() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.5]));
        grad_check(
            |g, s| {
                let x = g.input(Matrix::column(&[0.7, -1.3, 0.4]));
                let wp = g.param(s, w);
                let z = g.matmul(wp, x);
                g.sigmoid(z)
            },
            &mut store,
            w,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn gradient_check_relu_tanh_chain() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.4, 0.1, -0.3, 0.8]));
        let v = store.add("v", Matrix::from_vec(1, 2, vec![0.5, -0.7]));
        for pid in [w, v] {
            grad_check(
                |g, s| {
                    let x = g.input(Matrix::column(&[1.2, -0.4]));
                    let wp = g.param(s, w);
                    let vp = g.param(s, v);
                    let h = g.matmul(wp, x);
                    let h = g.relu(h);
                    let h = g.tanh(h);
                    g.matmul(vp, h)
                },
                &mut store,
                pid,
                1e-3,
                1e-2,
            );
        }
    }

    #[test]
    fn gradient_check_min_max_pooling() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![0.9, -0.2]));
        grad_check(
            |g, s| {
                let a = g.input(Matrix::column(&[0.3, 0.8]));
                let b = g.input(Matrix::column(&[0.5, 0.2]));
                let mn = g.emin(a, b);
                let mx = g.emax(a, b);
                let both = g.mean2(mn, mx);
                let wp = g.param(s, w);
                g.matmul(wp, both)
            },
            &mut store,
            w,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn gradient_check_concat_and_bias() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 4, vec![0.3, -0.1, 0.6, 0.2]));
        let b = store.add("b", Matrix::column(&[0.05]));
        for pid in [w, b] {
            grad_check(
                |g, s| {
                    let x1 = g.input(Matrix::column(&[0.4, -0.9]));
                    let x2 = g.input(Matrix::column(&[1.1, 0.3]));
                    let x = g.concat_rows(&[x1, x2]);
                    let wp = g.param(s, w);
                    let bp = g.param(s, b);
                    let z = g.matmul(wp, x);
                    let z = g.add_bias(z, bp);
                    g.tanh(z)
                },
                &mut store,
                pid,
                1e-3,
                1e-2,
            );
        }
    }

    #[test]
    fn hadamard_and_scale_backward() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::column(&[2.0, 3.0]));
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[5.0, 7.0]));
        let wp = g.param(&store, w);
        let h = g.hadamard(wp, x);
        let h = g.scale(h, 2.0);
        let ones = g.input(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let y = g.matmul(ones, h);
        g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        assert_eq!(store.grad(w), &Matrix::column(&[10.0, 14.0]));
    }

    #[test]
    fn batched_columns_shapes() {
        let mut g = Graph::new();
        let a = g.input(Matrix::column(&[1.0, 2.0]));
        let b = g.input(Matrix::column(&[3.0, 4.0]));
        let batch = g.concat_cols(&[a, b]);
        assert_eq!(g.value(batch).rows(), 2);
        assert_eq!(g.value(batch).cols(), 2);
        let col1 = g.column_at(batch, 1);
        assert_eq!(g.value(col1), &Matrix::column(&[3.0, 4.0]));
    }

    #[test]
    fn extract_and_inject_round_trip() {
        let mut g = Graph::inference();
        let m = g.input(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let mut c0 = Vec::new();
        let mut c2 = Vec::new();
        g.extract_column(m, 0, &mut c0);
        g.extract_column(m, 2, &mut c2);
        assert_eq!(c0, vec![1.0, 4.0]);
        assert_eq!(c2, vec![3.0, 6.0]);
        let injected = g.input_columns(2, &[&c2, &c0]);
        assert_eq!(g.value(injected), &Matrix::from_vec(2, 2, vec![3.0, 1.0, 6.0, 4.0]));
        // extract_column clears the destination before refilling.
        g.extract_column(injected, 0, &mut c0);
        assert_eq!(c0, vec![3.0, 6.0]);
    }

    #[test]
    fn slice_rows_backward_places_gradient() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::column(&[1.0, 2.0, 3.0]));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let s = g.slice_rows(wp, 1, 2);
        let ones = g.input(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let y = g.matmul(ones, s);
        g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        assert_eq!(store.grad(w), &Matrix::column(&[0.0, 1.0, 1.0]));
    }

    /// A small two-head forward shared by the mode/backward tests below.
    fn two_head_forward(g: &mut Graph, store: &ParamStore, w: ParamId, v: ParamId) -> (NodeId, NodeId) {
        let x = g.input(Matrix::column(&[0.4, -0.6]));
        let wp = g.param(store, w);
        let trunk = g.matmul(wp, x);
        let trunk = g.tanh(trunk);
        let vp = g.param(store, v);
        let head1 = g.matmul(vp, trunk);
        let head2 = g.scale(trunk, 2.0);
        let ones = g.input(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let head2 = g.matmul(ones, head2);
        (head1, head2)
    }

    fn two_params() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.3, -0.8, 0.5, 0.1]));
        let v = store.add("v", Matrix::from_vec(1, 2, vec![0.7, -0.4]));
        (store, w, v)
    }

    #[test]
    fn inference_forward_matches_train_forward() {
        let (store, w, v) = two_params();
        let mut train = Graph::new();
        let (t1, t2) = two_head_forward(&mut train, &store, w, v);
        let mut infer = Graph::inference();
        let (i1, i2) = two_head_forward(&mut infer, &store, w, v);
        assert_eq!(train.value(t1), infer.value(i1));
        assert_eq!(train.value(t2), infer.value(i2));
        assert_eq!(infer.mode(), Mode::Inference);
        assert_eq!(train.mode(), Mode::Train);
    }

    #[test]
    #[should_panic(expected = "inference-mode graph")]
    fn backward_on_inference_graph_panics() {
        let (mut store, w, v) = two_params();
        let mut g = Graph::inference();
        let (h1, _) = two_head_forward(&mut g, &store, w, v);
        g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
    }

    #[test]
    fn sequential_backwards_do_not_double_count() {
        // Two backward calls on one tape must equal the sum of two fresh
        // single-head backwards: gradients are consumed by each sweep.
        let (mut store, w, v) = two_params();
        let seed = Matrix::from_vec(1, 1, vec![1.0]);

        let mut expected = ParamStore::new();
        let we = expected.add("w", store.value(w).clone());
        let ve = expected.add("v", store.value(v).clone());
        let mut g1 = Graph::new();
        let (h1, _) = two_head_forward(&mut g1, &expected, we, ve);
        g1.backward(h1, seed.clone(), &mut expected);
        let mut g2 = Graph::new();
        let (_, h2) = two_head_forward(&mut g2, &expected, we, ve);
        g2.backward(h2, seed.clone(), &mut expected);

        store.zero_grad();
        let mut g = Graph::new();
        let (h1, h2) = two_head_forward(&mut g, &store, w, v);
        g.backward(h1, seed.clone(), &mut store);
        g.backward(h2, seed.clone(), &mut store);

        for (pid, pe) in [(w, we), (v, ve)] {
            for (a, b) in store.grad(pid).data().iter().zip(expected.grad(pe).data().iter()) {
                assert!((a - b).abs() < 1e-6, "sequential backward grad mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backward_multi_matches_sequential_backwards() {
        let (mut store, w, v) = two_params();
        let seed = Matrix::from_vec(1, 1, vec![1.0]);

        let mut g = Graph::new();
        let (h1, h2) = two_head_forward(&mut g, &store, w, v);
        g.backward(h1, seed.clone(), &mut store);
        g.backward(h2, seed.clone(), &mut store);
        let sequential_w = store.grad(w).clone();
        let sequential_v = store.grad(v).clone();

        store.zero_grad();
        let mut g = Graph::new();
        let (h1, h2) = two_head_forward(&mut g, &store, w, v);
        g.backward_multi(vec![(h1, seed.clone()), (h2, seed)], &mut store);

        for (multi, seq) in [(store.grad(w), &sequential_w), (store.grad(v), &sequential_v)] {
            for (a, b) in multi.data().iter().zip(seq.data().iter()) {
                assert!((a - b).abs() < 1e-6, "backward_multi grad mismatch: {a} vs {b}");
            }
        }
    }

    /// A reused training tape must not grow its buffer pool: the backward
    /// sweep consumes every node gradient, and `reset` recycles node values
    /// only, so each pass takes back exactly the buffers the last returned.
    #[test]
    fn training_tape_pool_stays_flat_across_identical_passes() {
        let (mut store, w, v) = two_params();
        let pass = |g: &mut Graph, store: &mut ParamStore| {
            g.reset();
            store.zero_grad();
            let x = g.input_zeros_with(2, 3, |m| m.data_mut().copy_from_slice(&[0.4, -0.6, 1.2, 0.9, 0.1, -1.5]));
            let wp = g.param(store, w);
            let trunk = g.matmul(wp, x);
            let trunk = g.tanh(trunk);
            let children = g.gather_cols(&[(trunk, 2), (trunk, 0), (trunk, 2)]);
            let vp = g.param(store, v);
            let head1 = g.matmul(vp, children);
            let head2 = g.scale(trunk, 2.0);
            let seeds =
                vec![(head1, Matrix::from_vec(1, 3, vec![1.0; 3])), (head2, Matrix::from_vec(2, 3, vec![0.5; 6]))];
            g.backward_multi(seeds, store);
        };
        let mut g = Graph::new();
        for _ in 0..3 {
            pass(&mut g, &mut store);
        }
        let warm = g.pooled_buffers();
        for _ in 0..200 {
            pass(&mut g, &mut store);
        }
        assert_eq!(g.pooled_buffers(), warm, "the training tape's buffer pool grew across identical passes");
    }

    #[test]
    fn fused_lstm_gates_match_unfused_ops_within_path_contract() {
        let pre = |g: &mut Graph| {
            let zf = g.input(Matrix::from_vec(3, 2, vec![0.4, -1.2, 0.0, 2.5, -0.3, 0.9]));
            let zk1 = g.input(Matrix::from_vec(3, 2, vec![-0.7, 0.1, 1.8, -2.2, 0.6, 0.0]));
            let zr = g.input(Matrix::from_vec(3, 2, vec![1.1, -0.5, 0.2, -1.9, 3.0, -0.1]));
            let zk2 = g.input(Matrix::from_vec(3, 2, vec![0.0, 0.8, -1.4, 0.3, -2.0, 1.6]));
            (zf, zk1, zr, zk2)
        };
        // Unfused reference on a training tape (where lstm_gates falls back
        // to the four individual libm ops by construction).
        let mut train = Graph::new();
        let (zf, zk1, zr, zk2) = pre(&mut train);
        let (tf, tk1, tr, tk2) = train.lstm_gates(zf, zk1, zr, zk2);
        // Fused path on an inference tape.  On the scalar dispatch path the
        // sweep is the same libm formulas, so bits must match; on the AVX2
        // path it is the FMA rational approximation, bound by the f32
        // tier's documented < 1e-5 activation tolerance.
        let mut infer = Graph::inference();
        let (zf, zk1, zr, zk2) = pre(&mut infer);
        let (if_, ik1, ir, ik2) = infer.lstm_gates(zf, zk1, zr, zk2);
        for (t, i) in [(tf, if_), (tk1, ik1), (tr, ir), (tk2, ik2)] {
            match simd::active_path() {
                simd::DispatchPath::Scalar => {
                    assert_eq!(train.value(t), infer.value(i), "fused gate sweep diverged from per-element ops");
                }
                simd::DispatchPath::Avx2 => {
                    for (a, b) in train.value(t).data().iter().zip(infer.value(i).data().iter()) {
                        assert!((a - b).abs() < 1e-5, "fused AVX2 gate sweep off-tolerance: {a} vs {b}");
                    }
                }
            }
        }
        // Either way the fused sweep must be deterministic: a second
        // inference tape reproduces the first bit-for-bit.
        let mut infer2 = Graph::inference();
        let (zf, zk1, zr, zk2) = pre(&mut infer2);
        let (jf, jk1, jr, jk2) = infer2.lstm_gates(zf, zk1, zr, zk2);
        for (i, j) in [(if_, jf), (ik1, jk1), (ir, jr), (ik2, jk2)] {
            assert_eq!(infer.value(i), infer2.value(j), "fused gate sweep is nondeterministic");
        }
    }

    #[test]
    fn lstm_gates_backward_matches_individual_activations() {
        // The train-mode fallback must leave gradients exactly as the four
        // separate activation ops would.
        let (mut store, w, v) = two_params();
        let run = |store: &mut ParamStore, fused: bool| -> Matrix {
            store.zero_grad();
            let mut g = Graph::new();
            let x = g.input(Matrix::column(&[0.4, -0.6]));
            let wp = g.param(store, w);
            let z = g.matmul(wp, x);
            let (f, k1, r, k2) =
                if fused { g.lstm_gates(z, z, z, z) } else { (g.sigmoid(z), g.sigmoid(z), g.tanh(z), g.sigmoid(z)) };
            let fk = g.hadamard(f, k1);
            let rk = g.hadamard(r, k2);
            let sum = g.add(fk, rk);
            let vp = g.param(store, v);
            let y = g.matmul(vp, sum);
            g.backward(y, Matrix::from_vec(1, 1, vec![1.0]), store);
            store.grad(w).clone()
        };
        let unfused = run(&mut store, false);
        let fused = run(&mut store, true);
        assert_eq!(unfused, fused);
    }

    #[test]
    fn matmul_quant_tracks_f32_matmul_on_inference_tape() {
        let w = Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.25, 2.0, 0.75, -0.5]);
        let qw = crate::quant::QuantMatrix::quantize(&w);
        let mut g = Graph::inference();
        let x = g.input(Matrix::from_vec(3, 2, vec![1.0, -0.5, 0.5, 2.0, -1.5, 0.0]));
        let exact = {
            let wn = g.input(w.clone());
            g.matmul(wn, x)
        };
        let approx = g.matmul_quant(&qw, x);
        for (a, e) in g.value(approx).data().iter().zip(g.value(exact).data().iter()) {
            assert!((a - e).abs() < 0.05 * (1.0 + e.abs()), "quant {a} vs exact {e}");
        }
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn matmul_quant_on_training_tape_panics() {
        let qw = crate::quant::QuantMatrix::quantize(&Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut g = Graph::new();
        let x = g.input(Matrix::column(&[1.0, 2.0]));
        let _ = g.matmul_quant(&qw, x);
    }

    #[test]
    fn matmul_quant_pack_cache_reuses_activations_across_weights() {
        // Four weight matrices against the same activations (the LSTM gate
        // pattern) must give the same values as four independent quantized
        // matmuls — the pack cache changes cost, never results.
        let x_val = Matrix::from_vec(3, 5, (0..15).map(|i| (i as f32 * 0.37).sin()).collect());
        let ws: Vec<_> = (0..4)
            .map(|s| {
                crate::quant::QuantMatrix::quantize(&Matrix::from_vec(
                    2,
                    3,
                    (0..6).map(|i| ((i + s * 7) as f32 * 0.21).cos()).collect(),
                ))
            })
            .collect();
        let mut shared = Graph::inference();
        let x = shared.input(x_val.clone());
        let cached: Vec<Matrix> = ws
            .iter()
            .map(|w| {
                let n = shared.matmul_quant(w, x);
                shared.value(n).clone()
            })
            .collect();
        for (w, want) in ws.iter().zip(cached.iter()) {
            let mut fresh = Graph::inference();
            let x = fresh.input(x_val.clone());
            let got = fresh.matmul_quant(w, x);
            assert_eq!(fresh.value(got), want, "pack cache changed a quantized matmul result");
        }
    }

    #[test]
    fn approx_activations_track_exact_ops_closely() {
        let vals = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32 - 6.0) * 0.8).collect());
        let mut g = Graph::inference();
        let x = g.input(vals);
        let (exact_t, exact_s) = (g.tanh(x), g.sigmoid(x));
        let (fast_t, fast_s) = (g.tanh_approx(x), g.sigmoid_approx(x));
        for (f, e) in g.value(fast_t).data().iter().zip(g.value(exact_t).data()) {
            assert!((f - e).abs() < 1e-5, "tanh_approx {f} vs {e}");
        }
        for (f, e) in g.value(fast_s).data().iter().zip(g.value(exact_s).data()) {
            assert!((f - e).abs() < 1e-5, "sigmoid_approx {f} vs {e}");
        }
    }

    #[test]
    fn lstm_gates_approx_matches_fast_sweep_values() {
        let pre = Matrix::from_vec(2, 3, vec![0.4, -1.2, 0.0, 2.5, -0.3, 0.9]);
        let mut g = Graph::inference();
        let z = g.input(pre.clone());
        let (f, k1, r, k2) = g.lstm_gates_approx(z, z, z, z);
        for (node, want) in [
            (f, pre.data().iter().map(|&v| simd::sigmoid_fast(v)).collect::<Vec<_>>()),
            (k1, pre.data().iter().map(|&v| simd::sigmoid_fast(v)).collect()),
            (r, pre.data().iter().map(|&v| simd::tanh_fast(v)).collect()),
            (k2, pre.data().iter().map(|&v| simd::sigmoid_fast(v)).collect()),
        ] {
            assert_eq!(
                g.value(node).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "approx gate sweep diverged from the fast scalar activations"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn lstm_gates_approx_on_training_tape_panics() {
        let mut g = Graph::new();
        let z = g.input(Matrix::column(&[0.1, 0.2]));
        let _ = g.lstm_gates_approx(z, z, z, z);
    }

    #[test]
    fn reset_reuses_tape_for_identical_results() {
        let (mut store, w, v) = two_params();
        let mut g = Graph::new();
        let (h1, _) = two_head_forward(&mut g, &store, w, v);
        let first = g.value(h1).clone();
        g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
        let first_grad = store.grad(w).clone();

        for _ in 0..3 {
            g.reset();
            assert!(g.is_empty());
            store.zero_grad();
            let (h1, _) = two_head_forward(&mut g, &store, w, v);
            assert_eq!(g.value(h1), &first);
            g.backward(h1, Matrix::from_vec(1, 1, vec![1.0]), &mut store);
            assert_eq!(store.grad(w), &first_grad);
        }
    }
}
