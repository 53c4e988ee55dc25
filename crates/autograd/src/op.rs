//! The operation set recorded on the tape, and each op's adjoint (backward)
//! rule. Every rule receives the upstream gradient plus the recorded input /
//! output values and returns a gradient contribution per input.

use lip_tensor::{gelu_grad_scalar, Tensor};

use crate::graph::Var;
use crate::ParamId;

/// A recorded forward operation. Inputs are earlier nodes on the tape, so
/// node order is already a topological order.
#[derive(Debug, Clone)]
pub enum Op {
    /// Constant leaf (inputs, targets, masks). Receives no gradient.
    Leaf,
    /// Trainable-parameter leaf.
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    AddScalar(Var, f32),
    MulScalar(Var, f32),
    Neg(Var),
    MatMul(Var, Var),
    Permute(Var, Vec<usize>),
    /// Reinterpretation under the recorded target shape.
    Reshape(Var, Vec<usize>),
    /// Materialized broadcast to the recorded target shape.
    BroadcastTo(Var, Vec<usize>),
    /// Softmax over the last axis.
    Softmax(Var),
    /// Log-softmax over the last axis.
    LogSoftmax(Var),
    Relu(Var),
    Gelu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Sqrt(Var),
    Exp(Var),
    Ln(Var),
    Square(Var),
    Abs(Var),
    /// Multiply by a precomputed inverted-dropout mask (mask already carries
    /// the 1/(1-p) scale).
    Dropout(Var, Tensor),
    Sum(Var),
    Mean(Var),
    SumAxis(Var, usize),
    MeanAxis(Var, usize),
    Concat(Vec<Var>, usize),
    SliceAxis(Var, usize, usize, usize),
    /// Zero-copy sliding windows along `axis`: `(input, axis, window, step)`.
    /// The axis shrinks to the window count and a trailing `window` axis is
    /// appended ([`Tensor::sliding_window`] semantics). Windows overlap when
    /// `step < window`, so the adjoint scatter-**adds**.
    Unfold(Var, usize, usize, usize),
    /// Row gather along axis 0 (embedding lookup).
    GatherRows(Var, Vec<usize>),
    /// Mean squared error between prediction and target (scalar output).
    MseLoss(Var, Var),
    /// Mean absolute error (scalar output).
    MaeLoss(Var, Var),
    /// Smooth-L1 / Huber loss with threshold `beta` (scalar output).
    SmoothL1(Var, Var, f32),
    /// Mean cross-entropy of row-wise logits against integer labels.
    CrossEntropyRows(Var, Vec<usize>),
}

impl Op {
    /// Variant name, for diagnostics and the static analyzer's plan/parity
    /// comparisons.
    pub fn name(&self) -> &'static str {
        use Op::*;
        match self {
            Leaf => "Leaf",
            Param(_) => "Param",
            Add(..) => "Add",
            Sub(..) => "Sub",
            Mul(..) => "Mul",
            Div(..) => "Div",
            AddScalar(..) => "AddScalar",
            MulScalar(..) => "MulScalar",
            Neg(_) => "Neg",
            MatMul(..) => "MatMul",
            Permute(..) => "Permute",
            Reshape(..) => "Reshape",
            BroadcastTo(..) => "BroadcastTo",
            Softmax(_) => "Softmax",
            LogSoftmax(_) => "LogSoftmax",
            Relu(_) => "Relu",
            Gelu(_) => "Gelu",
            Sigmoid(_) => "Sigmoid",
            Tanh(_) => "Tanh",
            Sqrt(_) => "Sqrt",
            Exp(_) => "Exp",
            Ln(_) => "Ln",
            Square(_) => "Square",
            Abs(_) => "Abs",
            Dropout(..) => "Dropout",
            Sum(_) => "Sum",
            Mean(_) => "Mean",
            SumAxis(..) => "SumAxis",
            MeanAxis(..) => "MeanAxis",
            Concat(..) => "Concat",
            SliceAxis(..) => "SliceAxis",
            Unfold(..) => "Unfold",
            GatherRows(..) => "GatherRows",
            MseLoss(..) => "MseLoss",
            MaeLoss(..) => "MaeLoss",
            SmoothL1(..) => "SmoothL1",
            CrossEntropyRows(..) => "CrossEntropyRows",
        }
    }

    /// Input nodes of this op, in order.
    pub fn inputs(&self) -> Vec<Var> {
        use Op::*;
        match self {
            Leaf | Param(_) => vec![],
            Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | MatMul(a, b) | MseLoss(a, b)
            | MaeLoss(a, b) => vec![*a, *b],
            SmoothL1(a, b, _) => vec![*a, *b],
            AddScalar(a, _) | MulScalar(a, _) | Neg(a) | Permute(a, _) | Reshape(a, _)
            | BroadcastTo(a, _) | Softmax(a) | LogSoftmax(a) | Relu(a) | Gelu(a) | Sigmoid(a)
            | Tanh(a) | Sqrt(a) | Exp(a) | Ln(a) | Square(a) | Abs(a) | Dropout(a, _)
            | Sum(a) | Mean(a) | SumAxis(a, _) | MeanAxis(a, _) | SliceAxis(a, _, _, _)
            | Unfold(a, _, _, _) | GatherRows(a, _) | CrossEntropyRows(a, _) => vec![*a],
            Concat(parts, _) => parts.clone(),
        }
    }

    /// Gradient contributions to each input given the upstream gradient
    /// `grad`, the input values (`value_of`) and this node's output `out`.
    pub fn backward(
        &self,
        grad: &Tensor,
        out: &Tensor,
        value_of: &dyn Fn(Var) -> Tensor,
    ) -> Vec<(Var, Tensor)> {
        use Op::*;
        match self {
            Leaf | Param(_) => vec![],

            Add(a, b) => {
                let va = value_of(*a);
                let vb = value_of(*b);
                vec![
                    (*a, grad.reduce_to_shape(va.shape())),
                    (*b, grad.reduce_to_shape(vb.shape())),
                ]
            }
            Sub(a, b) => {
                let va = value_of(*a);
                let vb = value_of(*b);
                vec![
                    (*a, grad.reduce_to_shape(va.shape())),
                    (*b, grad.neg().reduce_to_shape(vb.shape())),
                ]
            }
            Mul(a, b) => {
                let va = value_of(*a);
                let vb = value_of(*b);
                vec![
                    (*a, grad.mul(&vb).reduce_to_shape(va.shape())),
                    (*b, grad.mul(&va).reduce_to_shape(vb.shape())),
                ]
            }
            Div(a, b) => {
                let va = value_of(*a);
                let vb = value_of(*b);
                let da = grad.div(&vb).reduce_to_shape(va.shape());
                let db = grad
                    .mul(&va)
                    .div(&vb.square())
                    .neg()
                    .reduce_to_shape(vb.shape());
                vec![(*a, da), (*b, db)]
            }
            AddScalar(a, _) => vec![(*a, grad.clone())],
            MulScalar(a, s) => vec![(*a, grad.mul_scalar(*s))],
            Neg(a) => vec![(*a, grad.neg())],

            MatMul(a, b) => {
                let va = value_of(*a);
                let vb = value_of(*b);
                // Batched adjoints; reduce over broadcast batch axes.
                let (va2, vb2) = (promote_mat(&va), promote_mat(&vb));
                let g2 = promote_grad(grad, va.rank() == 1, vb.rank() == 1);
                let da = g2.matmul(&vb2.t()).reduce_to_shape(va2.shape());
                let db = va2.t().matmul(&g2).reduce_to_shape(vb2.shape());
                vec![
                    (*a, da.reshape(va.shape())),
                    (*b, db.reshape(vb.shape())),
                ]
            }

            Permute(a, axes) => {
                let mut inverse = vec![0usize; axes.len()];
                for (i, &ax) in axes.iter().enumerate() {
                    inverse[ax] = i;
                }
                vec![(*a, grad.permute(&inverse))]
            }
            Reshape(a, _) => {
                let va = value_of(*a);
                vec![(*a, grad.reshape(va.shape()))]
            }
            BroadcastTo(a, _) => {
                let va = value_of(*a);
                vec![(*a, grad.reduce_to_shape(va.shape()))]
            }

            Softmax(a) => {
                // ds = s ⊙ (g − Σ_j g_j s_j) per row
                let rank = out.rank();
                let dot = grad.mul(out).sum_axis(rank - 1);
                vec![(*a, out.mul(&grad.sub(&dot)))]
            }
            LogSoftmax(a) => {
                let va = value_of(*a);
                let rank = out.rank();
                let s = va.softmax_lastdim();
                let gsum = grad.sum_axis(rank - 1);
                vec![(*a, grad.sub(&s.mul(&gsum)))]
            }
            Relu(a) => {
                let va = value_of(*a);
                vec![(*a, grad.zip(&va, |g, x| if x > 0.0 { g } else { 0.0 }))]
            }
            Gelu(a) => {
                let va = value_of(*a);
                vec![(*a, grad.zip(&va, |g, x| g * gelu_grad_scalar(x)))]
            }
            Sigmoid(a) => vec![(*a, grad.zip(out, |g, s| g * s * (1.0 - s)))],
            Tanh(a) => vec![(*a, grad.zip(out, |g, t| g * (1.0 - t * t)))],
            Sqrt(a) => vec![(*a, grad.zip(out, |g, s| g * 0.5 / s))],
            Exp(a) => vec![(*a, grad.mul(out))],
            Ln(a) => {
                let va = value_of(*a);
                vec![(*a, grad.div(&va))]
            }
            Square(a) => {
                let va = value_of(*a);
                vec![(*a, grad.mul(&va).mul_scalar(2.0))]
            }
            Abs(a) => {
                let va = value_of(*a);
                vec![(*a, grad.zip(&va, |g, x| g * sign(x)))]
            }
            Dropout(a, mask) => vec![(*a, grad.mul(mask))],

            Sum(a) => {
                let va = value_of(*a);
                vec![(*a, Tensor::full(va.shape(), grad.item()))]
            }
            Mean(a) => {
                let va = value_of(*a);
                let scale = grad.item() / va.numel() as f32;
                vec![(*a, Tensor::full(va.shape(), scale))]
            }
            SumAxis(a, _) => {
                let va = value_of(*a);
                vec![(*a, grad.broadcast_to(va.shape()))]
            }
            MeanAxis(a, axis) => {
                let va = value_of(*a);
                let len = va.shape()[*axis] as f32;
                vec![(*a, grad.mul_scalar(1.0 / len).broadcast_to(va.shape()))]
            }

            Concat(parts, axis) => {
                let mut offset = 0usize;
                let mut grads = Vec::with_capacity(parts.len());
                for &p in parts {
                    let vp = value_of(p);
                    let width = vp.shape()[*axis];
                    grads.push((p, grad.slice_axis(*axis, offset, offset + width)));
                    offset += width;
                }
                grads
            }
            SliceAxis(a, axis, start, end) => {
                let va = value_of(*a);
                vec![(*a, scatter_slice(grad, va.shape(), *axis, *start, *end))]
            }
            Unfold(a, axis, window, step) => {
                let va = value_of(*a);
                vec![(*a, scatter_windows(grad, va.shape(), *axis, *window, *step))]
            }
            GatherRows(a, indices) => {
                let va = value_of(*a);
                let row = va.numel() / va.shape()[0];
                let mut acc = Tensor::zeros(va.shape());
                let g = grad.contiguous();
                {
                    let gd = g.data();
                    let dst = acc.data_mut();
                    for (pos, &idx) in indices.iter().enumerate() {
                        let src = &gd[pos * row..(pos + 1) * row];
                        let tgt = &mut dst[idx * row..(idx + 1) * row];
                        for (t, &s) in tgt.iter_mut().zip(src) {
                            *t += s;
                        }
                    }
                }
                vec![(*a, acc)]
            }

            MseLoss(p, t) => {
                let vp = value_of(*p);
                let vt = value_of(*t);
                let scale = 2.0 * grad.item() / vp.numel() as f32;
                let d = vp.sub(&vt).mul_scalar(scale);
                vec![(*p, d.clone()), (*t, d.neg())]
            }
            MaeLoss(p, t) => {
                let vp = value_of(*p);
                let vt = value_of(*t);
                let scale = grad.item() / vp.numel() as f32;
                let d = vp.zip(&vt, |a, b| sign(a - b) * scale);
                vec![(*p, d.clone()), (*t, d.neg())]
            }
            SmoothL1(p, t, beta) => {
                let vp = value_of(*p);
                let vt = value_of(*t);
                let scale = grad.item() / vp.numel() as f32;
                let beta = *beta;
                let d = vp.zip(&vt, |a, b| {
                    let e = a - b;
                    if e.abs() < beta {
                        e / beta * scale
                    } else {
                        sign(e) * scale
                    }
                });
                vec![(*p, d.clone()), (*t, d.neg())]
            }
            CrossEntropyRows(logits, labels) => {
                let vl = value_of(*logits);
                let b = labels.len() as f32;
                let mut d = vl.softmax_lastdim();
                let width = *vl.shape().last().expect("logits rank >= 1");
                {
                    let dm = d.data_mut();
                    for (row, &y) in labels.iter().enumerate() {
                        dm[row * width + y] -= 1.0;
                    }
                }
                vec![(*logits, d.mul_scalar(grad.item() / b))]
            }
        }
    }
}

#[inline]
fn sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Embed `grad` (the gradient of a slice) into a zero tensor of the original
/// shape at `start..end` along `axis` — the adjoint of `slice_axis`.
/// `grad` may arrive as any view; the flat index arithmetic wants density.
fn scatter_slice(grad: &Tensor, shape: &[usize], axis: usize, start: usize, end: usize) -> Tensor {
    let (outer, len, inner) = lip_tensor::shape::split_at_axis(shape, axis);
    let width = end - start;
    let mut out = Tensor::zeros(shape);
    let g = grad.contiguous();
    {
        let gd = g.data();
        let dst = out.data_mut();
        for o in 0..outer {
            let src = &gd[o * width * inner..(o + 1) * width * inner];
            let base = o * len * inner + start * inner;
            dst[base..base + width * inner].copy_from_slice(src);
        }
    }
    out
}

/// Scatter-add the gradient of a [`Tensor::sliding_window`] view back into
/// the input shape — the adjoint of `Unfold`. Overlapping windows (`step <
/// window`) contribute additively to the shared input positions; the serial
/// window-major accumulation order keeps the result deterministic.
fn scatter_windows(
    grad: &Tensor,
    shape: &[usize],
    axis: usize,
    window: usize,
    step: usize,
) -> Tensor {
    let (outer, len, inner) = lip_tensor::shape::split_at_axis(shape, axis);
    let n = (len - window) / step + 1;
    let mut out = Tensor::zeros(shape);
    let g = grad.contiguous();
    {
        // grad is [outer.., n, inner.., window] row-major
        let gd = g.data();
        let dst = out.data_mut();
        let mut gi = 0usize;
        for o in 0..outer {
            for j in 0..n {
                for i in 0..inner {
                    for p in 0..window {
                        dst[(o * len + j * step + p) * inner + i] += gd[gi];
                        gi += 1;
                    }
                }
            }
        }
        debug_assert_eq!(gi, gd.len(), "unfold grad size mismatch");
    }
    out
}

/// View a 1-d operand as a matrix so matmul adjoints are uniform.
fn promote_mat(t: &Tensor) -> Tensor {
    if t.rank() == 1 {
        t.reshape(&[1, t.shape()[0]])
    } else {
        t.clone()
    }
}

/// Restore the axes [`Tensor::matmul`] squeezed for 1-d operands, so the
/// upstream grad is shaped `[batch.., m, n]` like the promoted product.
fn promote_grad(grad: &Tensor, lhs_was_vec: bool, rhs_was_vec: bool) -> Tensor {
    let mut shape = grad.shape().to_vec();
    if rhs_was_vec {
        shape.push(1); // restore the n axis
    }
    if lhs_was_vec {
        shape.insert(shape.len() - 1, 1); // restore the m axis
    }
    grad.reshape(&shape)
}
