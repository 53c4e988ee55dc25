//! The forward tape: every operation appends a node holding its computed
//! value and the [`Op`] needed to differentiate it.

use lip_tensor::Tensor;

use crate::op::Op;
use crate::{ParamId, ParamStore};

/// Handle to a node on a [`Graph`]'s tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Position of this node on the tape (tape order is topological order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One step in a [`SanitizerReport`]'s provenance chain: an ancestor of the
/// node that first produced a non-finite value.
#[derive(Debug, Clone)]
pub struct ProvenanceStep {
    /// Tape index of the ancestor.
    pub node: usize,
    /// Op variant name at that ancestor.
    pub op: &'static str,
    /// Output shape at that ancestor.
    pub shape: Vec<usize>,
    /// Whether the ancestor's own value was still finite.
    pub finite: bool,
    /// Distance from the offending node (1 = direct input).
    pub depth: usize,
}

/// A NaN/Inf *producer* caught by the opt-in sanitizer: a node whose output
/// is non-finite while every input was still finite. Downstream nodes that
/// merely inherit the poison are suppressed, so each report is an actual
/// eruption site.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Tape index of the offending node.
    pub node: usize,
    /// Op variant that produced the non-finite value.
    pub op: &'static str,
    /// Output shape of the offending node.
    pub shape: Vec<usize>,
    /// Ancestors of the offending node, nearest first (breadth-first,
    /// depth-limited).
    pub provenance: Vec<ProvenanceStep>,
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite value produced at node {} ({}, shape {:?})",
            self.node, self.op, self.shape
        )?;
        for step in &self.provenance {
            write!(
                f,
                "\n  <- input[depth {}] node {} ({}, shape {:?}, {})",
                step.depth,
                step.node,
                step.op,
                step.shape,
                if step.finite { "finite" } else { "non-finite" }
            )?;
        }
        Ok(())
    }
}

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
}

/// A single forward pass: a tape of computed nodes over a parameter store.
///
/// Build one `Graph` per training step (or inference call), chain ops through
/// [`Var`] handles, then call [`Graph::backward`] on the loss node.
pub struct Graph<'s> {
    store: &'s ParamStore,
    pub(crate) nodes: Vec<Node>,
    macs: u64,
    /// When true, every pushed value is scanned for NaN/Inf (the opt-in
    /// numerical sanitizer).
    sanitize: bool,
    /// Per-node poison flags, maintained only while `sanitize` is on.
    poisoned: Vec<bool>,
    reports: Vec<SanitizerReport>,
}

impl<'s> Graph<'s> {
    /// Fresh tape over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Graph {
            store,
            nodes: Vec::with_capacity(64),
            macs: 0,
            sanitize: false,
            poisoned: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Fresh tape with the numerical sanitizer enabled: every recorded node
    /// is checked for NaN/Inf, and the first node of each poison chain is
    /// reported with its op, index and input provenance. Costs one extra
    /// pass over each node's data; intended for debugging and `lip-analyze`.
    pub fn with_sanitizer(store: &'s ParamStore) -> Self {
        let mut g = Graph::new(store);
        g.sanitize = true;
        g
    }

    /// Whether the numerical sanitizer is active.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitize
    }

    /// Findings collected by the sanitizer so far (empty when disabled or
    /// when every recorded value was finite).
    pub fn sanitizer_reports(&self) -> &[SanitizerReport] {
        &self.reports
    }

    /// The parameter store this tape reads from.
    pub fn store(&self) -> &ParamStore {
        self.store
    }

    /// The recorded op at `v`.
    pub fn op(&self, v: Var) -> &Op {
        &self.nodes[v.0].op
    }

    /// The recorded op at tape position `index`.
    pub fn op_at(&self, index: usize) -> &Op {
        &self.nodes[index].op
    }

    /// Shape of the value at tape position `index`.
    pub fn shape_at(&self, index: usize) -> &[usize] {
        self.nodes[index].value.shape()
    }

    /// Handle to the node at tape position `index` (panics when out of
    /// range). Lets external analyses walk the tape by index.
    pub fn var(&self, index: usize) -> Var {
        assert!(index < self.nodes.len(), "node index {index} out of range");
        Var(index)
    }

    /// Multiply–accumulate operations recorded so far (matmuls dominate;
    /// elementwise ops count one MAC per element).
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Value computed at `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Shape of the value at `v`.
    pub fn shape(&self, v: Var) -> &[usize] {
        self.nodes[v.0].value.shape()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        // values may be strided views now; touching the last logical element
        // validates the view's bounds without requiring density
        #[cfg(debug_assertions)]
        if value.numel() > 0 {
            let last: Vec<usize> = value.shape().iter().map(|&d| d - 1).collect();
            let _ = value.at(&last);
        }
        if self.sanitize {
            self.sanitize_incoming(&value, &op);
        }
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Sanitizer hook, run before the node is appended: flag the node if its
    /// value is non-finite, and report it when it is a fresh producer (no
    /// poisoned input) rather than a downstream propagation.
    fn sanitize_incoming(&mut self, value: &Tensor, op: &Op) {
        let inherited = op.inputs().iter().any(|v| self.poisoned[v.0]);
        let bad = value.has_non_finite();
        if bad && !inherited {
            self.reports.push(SanitizerReport {
                node: self.nodes.len(),
                op: op.name(),
                shape: value.shape().to_vec(),
                provenance: self.provenance_of(op),
            });
        }
        self.poisoned.push(bad || inherited);
    }

    /// Breadth-first ancestor walk used for sanitizer reports, nearest
    /// inputs first, depth- and size-limited to keep reports readable.
    fn provenance_of(&self, op: &Op) -> Vec<ProvenanceStep> {
        const MAX_DEPTH: usize = 3;
        const MAX_STEPS: usize = 12;
        let mut steps = Vec::new();
        let mut frontier: Vec<usize> = op.inputs().iter().map(|v| v.0).collect();
        let mut depth = 1usize;
        while !frontier.is_empty() && depth <= MAX_DEPTH && steps.len() < MAX_STEPS {
            let mut next = Vec::new();
            for idx in frontier {
                if steps.len() >= MAX_STEPS {
                    break;
                }
                let node = &self.nodes[idx];
                steps.push(ProvenanceStep {
                    node: idx,
                    op: node.op.name(),
                    shape: node.value.shape().to_vec(),
                    finite: !node.value.has_non_finite(),
                    depth,
                });
                next.extend(node.op.inputs().iter().map(|v| v.0));
            }
            frontier = next;
            depth += 1;
        }
        steps
    }

    // ------------------------------------------------------------- leaves

    /// Insert a constant (no gradient flows into it... it still receives one
    /// internally, which is simply discarded).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Insert a parameter leaf by id; the value is an O(1) clone of the
    /// store's current tensor.
    pub fn param(&mut self, id: ParamId) -> Var {
        let value = self.store.value(id).clone();
        self.push(value, Op::Param(id))
    }

    // -------------------------------------------------------- arithmetic

    /// Elementwise `a + b` with broadcasting.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.macs += v.numel() as u64;
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise `a - b` with broadcasting.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.macs += v.numel() as u64;
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise `a * b` with broadcasting.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.macs += v.numel() as u64;
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise `a / b` with broadcasting.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.div(&self.nodes[b.0].value);
        self.macs += v.numel() as u64;
        self.push(v, Op::Div(a, b))
    }

    /// `a + s` for a scalar `s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.add_scalar(s);
        self.push(v, Op::AddScalar(a, s))
    }

    /// `a * s` for a scalar `s`.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.mul_scalar(s);
        self.push(v, Op::MulScalar(a, s))
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.neg();
        self.push(v, Op::Neg(a))
    }

    /// Batched matrix product (see [`Tensor::matmul`] for broadcasting).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        let v = va.matmul(vb);
        // MACs: product elements × inner dim
        let k = *va.shape().last().unwrap_or(&1);
        self.macs += (v.numel() * k) as u64;
        self.push(v, Op::MatMul(a, b))
    }

    // ------------------------------------------------------ shape surgery

    /// Reorder axes.
    pub fn permute(&mut self, a: Var, axes: &[usize]) -> Var {
        let v = self.nodes[a.0].value.permute(axes);
        self.push(v, Op::Permute(a, axes.to_vec()))
    }

    /// Swap two axes.
    pub fn transpose(&mut self, a: Var, d0: usize, d1: usize) -> Var {
        let mut axes: Vec<usize> = (0..self.nodes[a.0].value.rank()).collect();
        axes.swap(d0, d1);
        self.permute(a, &axes)
    }

    /// Reinterpret under a new shape.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.nodes[a.0].value.reshape(shape);
        self.push(v, Op::Reshape(a, shape.to_vec()))
    }

    /// Materialize a broadcast.
    pub fn broadcast_to(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.nodes[a.0].value.broadcast_to(shape);
        self.push(v, Op::BroadcastTo(a, shape.to_vec()))
    }

    /// Contiguous sub-range along an axis.
    pub fn slice_axis(&mut self, a: Var, axis: usize, start: usize, end: usize) -> Var {
        let v = self.nodes[a.0].value.slice_axis(axis, start, end);
        self.push(v, Op::SliceAxis(a, axis, start, end))
    }

    /// Zero-copy sliding windows along `axis`: the axis shrinks to the
    /// window count and a trailing `window` axis is appended (see
    /// [`Tensor::sliding_window`]). With `step < window` consecutive windows
    /// overlap — the overlapping-patch constructor used by patching.
    pub fn unfold(&mut self, a: Var, axis: usize, window: usize, step: usize) -> Var {
        let v = self.nodes[a.0].value.sliding_window(axis, window, step);
        self.push(v, Op::Unfold(a, axis, window, step))
    }

    /// Concatenate along an axis.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|p| &self.nodes[p.0].value).collect();
        let v = Tensor::concat(&tensors, axis);
        self.push(v, Op::Concat(parts.to_vec(), axis))
    }

    /// Embedding lookup: gather rows of `table` (axis 0) by index.
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        let v = self.nodes[table.0].value.gather_rows(indices);
        self.push(v, Op::GatherRows(table, indices.to_vec()))
    }

    // ------------------------------------------------------- nonlinearity

    /// Softmax over the last axis.
    pub fn softmax(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.softmax_lastdim();
        self.macs += 4 * v.numel() as u64;
        self.push(v, Op::Softmax(a))
    }

    /// Log-softmax over the last axis.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.log_softmax_lastdim();
        self.macs += 4 * v.numel() as u64;
        self.push(v, Op::LogSoftmax(a))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.relu();
        self.macs += v.numel() as u64;
        self.push(v, Op::Relu(a))
    }

    /// GELU (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.gelu();
        self.macs += 8 * v.numel() as u64;
        self.push(v, Op::Gelu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sigmoid();
        self.macs += 4 * v.numel() as u64;
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.tanh();
        self.macs += 4 * v.numel() as u64;
        self.push(v, Op::Tanh(a))
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sqrt();
        self.push(v, Op::Sqrt(a))
    }

    /// Elementwise exponent.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.exp();
        self.push(v, Op::Exp(a))
    }

    /// Elementwise natural log.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.ln();
        self.push(v, Op::Ln(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.square();
        self.macs += v.numel() as u64;
        self.push(v, Op::Square(a))
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.abs();
        self.push(v, Op::Abs(a))
    }

    /// Apply a precomputed inverted-dropout mask (already scaled by
    /// `1/(1-p)`). The caller owns mask generation so seeds stay explicit.
    pub fn dropout_mask(&mut self, a: Var, mask: Tensor) -> Var {
        let v = self.nodes[a.0].value.mul(&mask);
        self.push(v, Op::Dropout(a, mask))
    }

    // --------------------------------------------------------- reductions

    /// Sum of all elements (scalar node).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum();
        self.push(v, Op::Sum(a))
    }

    /// Mean of all elements (scalar node).
    pub fn mean(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.mean();
        self.push(v, Op::Mean(a))
    }

    /// Sum along `axis` (kept as size 1).
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let v = self.nodes[a.0].value.sum_axis(axis);
        self.push(v, Op::SumAxis(a, axis))
    }

    /// Mean along `axis` (kept as size 1).
    pub fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        let v = self.nodes[a.0].value.mean_axis(axis);
        self.push(v, Op::MeanAxis(a, axis))
    }

    // -------------------------------------------------------------- losses

    /// Mean squared error (scalar node).
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let vp = &self.nodes[pred.0].value;
        let vt = &self.nodes[target.0].value;
        assert_eq!(vp.shape(), vt.shape(), "mse_loss shape mismatch");
        let v = vp.sub(vt).square().mean();
        self.push(v, Op::MseLoss(pred, target))
    }

    /// Mean absolute error (scalar node).
    pub fn mae_loss(&mut self, pred: Var, target: Var) -> Var {
        let vp = &self.nodes[pred.0].value;
        let vt = &self.nodes[target.0].value;
        assert_eq!(vp.shape(), vt.shape(), "mae_loss shape mismatch");
        let v = vp.sub(vt).abs().mean();
        self.push(v, Op::MaeLoss(pred, target))
    }

    /// Smooth-L1 (Huber) loss with threshold `beta`, as in the paper's
    /// training objective (scalar node).
    pub fn smooth_l1_loss(&mut self, pred: Var, target: Var, beta: f32) -> Var {
        assert!(beta > 0.0, "smooth_l1 beta must be positive");
        let vp = &self.nodes[pred.0].value;
        let vt = &self.nodes[target.0].value;
        assert_eq!(vp.shape(), vt.shape(), "smooth_l1 shape mismatch");
        let per = vp.zip(vt, |a, b| {
            let e = (a - b).abs();
            if e < beta {
                0.5 * e * e / beta
            } else {
                e - 0.5 * beta
            }
        });
        self.push(per.mean(), Op::SmoothL1(pred, target, beta))
    }

    /// Mean cross-entropy of `[rows, classes]` logits against integer labels
    /// (scalar node). Used row-wise and column-wise for the paper's symmetric
    /// contrastive loss.
    pub fn cross_entropy_rows(&mut self, logits: Var, labels: &[usize]) -> Var {
        let vl = &self.nodes[logits.0].value;
        assert_eq!(vl.rank(), 2, "cross_entropy expects [rows, classes] logits");
        assert_eq!(vl.shape()[0], labels.len(), "one label per logits row");
        let ls = vl.log_softmax_lastdim();
        let width = vl.shape()[1];
        let nll: f32 = labels
            .iter()
            .enumerate()
            .map(|(row, &y)| {
                assert!(y < width, "label {y} out of {width} classes");
                -ls.data()[row * width + y]
            })
            .sum::<f32>()
            / labels.len() as f32;
        self.macs += 5 * vl.numel() as u64;
        self.push(Tensor::scalar(nll), Op::CrossEntropyRows(logits, labels.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_pinpoints_producer_with_provenance() {
        let store = ParamStore::new();
        let mut g = Graph::with_sanitizer(&store);
        let x = g.constant(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let y = g.ln(x); // ln(-1) = NaN: the eruption site
        let _z = g.add(y, y); // inherits the poison, must not re-report
        let reports = g.sanitizer_reports();
        assert_eq!(reports.len(), 1, "one producer, one report");
        let r = &reports[0];
        assert_eq!(r.node, y.index());
        assert_eq!(r.op, "Ln");
        assert_eq!(r.shape, vec![2]);
        assert_eq!(r.provenance[0].node, x.index());
        assert_eq!(r.provenance[0].op, "Leaf");
        assert!(r.provenance[0].finite);
        assert_eq!(r.provenance[0].depth, 1);
    }

    #[test]
    fn sanitizer_clean_graph_reports_nothing() {
        let store = ParamStore::new();
        let mut g = Graph::with_sanitizer(&store);
        let x = g.constant(Tensor::ones(&[3]));
        let y = g.exp(x);
        let _ = g.mean(y);
        assert!(g.sanitizer_reports().is_empty());
    }

    #[test]
    fn sanitizer_off_by_default() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        assert!(!g.sanitizer_enabled());
        let x = g.constant(Tensor::from_vec(vec![-1.0], &[1]));
        let _ = g.ln(x);
        assert!(g.sanitizer_reports().is_empty());
    }

    #[test]
    fn reshape_records_target_shape() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::ones(&[2, 3]));
        let y = g.reshape(x, &[3, 2]);
        match g.op(y) {
            Op::Reshape(_, target) => assert_eq!(target, &[3, 2]),
            other => panic!("expected Reshape, got {}", other.name()),
        }
    }

    #[test]
    fn add_scalar_records_immediate() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::ones(&[2]));
        let y = g.add_scalar(x, 1e-5);
        match g.op(y) {
            Op::AddScalar(_, s) => assert_eq!(s.to_bits(), 1e-5f32.to_bits()),
            other => panic!("expected AddScalar, got {}", other.name()),
        }
    }
}
