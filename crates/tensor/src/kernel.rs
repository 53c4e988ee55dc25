//! Storage-level compute cores shared by the `Tensor` methods and the
//! arena executor in `lip-exec`.
//!
//! Each function here writes into a caller-provided output slice instead of
//! allocating, and reads operands through [`ViewRef`] — a borrowed
//! (storage, offset, shape, strides) quadruple — so the same code path runs
//! whether the bytes live in a `Tensor`'s `Arc` storage or in a preallocated
//! arena. The `Tensor` wrappers in `elementwise.rs` / `matmul.rs` /
//! `reduce.rs` / `tensor.rs` delegate here, which is what makes the executor
//! byte-identical to the tape by construction: there is exactly one
//! implementation of every kernel, with the same chunking, the same
//! accumulation order, and the same `lip-par` fan-out. The elementwise
//! table — [`Unary`], [`Binary`] and [`AxisReduce`], applied by
//! [`unary_into`], [`binary_into`] and [`axis_reduce_into`] — is the one
//! definition of each per-element expression, the `1 / len` mean scale
//! included.
//!
//! Every kernel short-circuits on a zero-numel output, so empty views never
//! reach the chunk-size arithmetic or the density `debug_assert!`s.
//!
//! The matmul core ([`matmul_packed_into`]) is register-tiled: up to
//! [`MATMUL_TILE_M`] rows of one batch matrix run against an
//! [`MATMUL_TILE_N`]-column rhs panel at a time, in a fixed-size 4 × 8
//! accumulator array fed by one rhs row load per k step. The lhs is read
//! through arbitrary strides, and the rhs needs only unit-stride rows
//! ([`matmul_rows_dense`]) — so packing is the exception, not the rule.
//! The per-element accumulation order (and with it the `lip-par`
//! bit-identity contract) is documented on the function itself.
//!
//! The strided walks here step [`Odometer2`] once per element.
//! `Tensor::reduce_to_shape`, the broadcast adjoint behind every weight
//! gradient, steps it one innermost run at a time instead
//! ([`Odometer2::next_run`]): with unit innermost strides on both sides a
//! run is one slice add, and the add order per accumulator element is
//! still the row-major source order.

use lip_par::{par_chunks_mut, ELEMWISE_CHUNK, MATMUL_CHUNK_MACS};

use crate::shape::{
    broadcast_shapes, broadcast_strides, is_row_major, numel, split_at_axis, Odometer2,
};

/// A borrowed strided view over raw storage: everything a kernel needs to
/// read one operand, with no ownership and no refcount traffic.
#[derive(Clone, Copy)]
pub struct ViewRef<'a> {
    /// Backing storage; logical element `idx` lives at `data[offset + idx·strides]`.
    pub data: &'a [f32],
    /// Flat offset of the view's first logical element.
    pub offset: usize,
    /// Logical extents per axis.
    pub shape: &'a [usize],
    /// Storage stride per axis, in elements.
    pub strides: &'a [usize],
}

impl ViewRef<'_> {
    /// Logical element count (the product of `shape`).
    pub fn numel(&self) -> usize {
        numel(self.shape)
    }

    /// Whether the view is dense row-major (readable as one flat slice).
    pub fn is_contiguous(&self) -> bool {
        is_row_major(self.shape, self.strides)
    }

    /// Dense row-major slice of a contiguous view (`&[]` when empty).
    fn contiguous_slice(&self) -> &[f32] {
        debug_assert!(self.is_contiguous());
        let n = self.numel();
        if n == 0 {
            return &[];
        }
        &self.data[self.offset..self.offset + n]
    }
}

/// `out[i] = f(src[i])` in logical row-major order.
pub(crate) fn map_into(src: ViewRef<'_>, out: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(out.len(), src.numel());
    if out.is_empty() {
        return;
    }
    if src.is_contiguous() {
        let s = src.contiguous_slice();
        par_chunks_mut(out, ELEMWISE_CHUNK, |_, start, dst| {
            let len = dst.len();
            for (d, &v) in dst.iter_mut().zip(&s[start..start + len]) {
                *d = f(v);
            }
        });
    } else {
        let raw = src.data;
        let base = src.offset;
        let zero = vec![0usize; src.shape.len()];
        par_chunks_mut(out, ELEMWISE_CHUNK, |_, start, dst| {
            let odo = Odometer2::starting_at(src.shape, src.strides.to_vec(), zero.clone(), start);
            for (d, (a, _)) in dst.iter_mut().zip(odo) {
                *d = f(raw[base + a]);
            }
        });
    }
}

/// Pack `src` into dense row-major order (the `contiguous()` gather).
pub fn gather_into(src: ViewRef<'_>, out: &mut [f32]) {
    map_into(src, out, |v| v);
}

/// The shape a broadcasting elementwise op on `a` and `b` writes
/// ([`binary_into`], `Tensor::zip`): the other operand's shape when one
/// side is a single element (the rhs checked first), else the broadcast of
/// both. Panics when the shapes do not broadcast.
pub fn zip_shape(a: ViewRef<'_>, b: ViewRef<'_>) -> Vec<usize> {
    // zip_into's equal-shape and suffix walks write the broadcast shape
    // too; only a one-element operand keeps the other operand's rank
    if b.numel() == 1 {
        a.shape.to_vec()
    } else if a.numel() == 1 {
        b.shape.to_vec()
    } else {
        broadcast_shapes(a.shape, b.shape).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// `out[i] = f(a[i], b[i])` under broadcasting, into `out` of
/// `out_shape` — the operands' [`zip_shape`]. Which walk runs decides
/// nothing about the values: every walk computes each output element
/// identically.
pub(crate) fn zip_into(
    a: ViewRef<'_>,
    b: ViewRef<'_>,
    out_shape: &[usize],
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    debug_assert_eq!(out.len(), numel(out_shape));
    if out.is_empty() {
        return;
    }
    // Fast path 1: identical shapes, both dense.
    if a.shape == b.shape && a.is_contiguous() && b.is_contiguous() {
        let (a_data, b_data) = (a.contiguous_slice(), b.contiguous_slice());
        par_chunks_mut(out, ELEMWISE_CHUNK, |_, start, dst| {
            let aa = &a_data[start..start + dst.len()];
            let bb = &b_data[start..start + dst.len()];
            for ((d, &x), &y) in dst.iter_mut().zip(aa).zip(bb) {
                *d = f(x, y);
            }
        });
        return;
    }
    // Fast path 2: one side is a scalar.
    if b.numel() == 1 {
        let y = b.data[b.offset];
        return map_into(a, out, |x| f(x, y));
    }
    if a.numel() == 1 {
        let x = a.data[a.offset];
        return map_into(b, out, |y| f(x, y));
    }
    // Fast path 3: b's shape is a trailing suffix of a's (bias pattern),
    // both dense.
    if b.shape.len() <= a.shape.len()
        && a.shape[a.shape.len() - b.shape.len()..] == *b.shape
        && a.is_contiguous()
        && b.is_contiguous()
    {
        let block = b.numel();
        debug_assert!(
            block > 0 && numel(a.shape).is_multiple_of(block),
            "suffix block {block} does not tile {:?}",
            a.shape
        );
        let (a_data, b_data) = (a.contiguous_slice(), b.contiguous_slice());
        // chunks hold whole suffix blocks so the modular index never splits
        // inside a block
        let chunk = (ELEMWISE_CHUNK / block).max(1) * block;
        par_chunks_mut(out, chunk, |_, start, dst| {
            let aa = &a_data[start..start + dst.len()];
            for (db, ab) in dst.chunks_mut(block).zip(aa.chunks(block)) {
                for ((d, &x), &y) in db.iter_mut().zip(ab).zip(b_data.iter()) {
                    *d = f(x, y);
                }
            }
        });
        return;
    }
    // General strided broadcast over the operands' actual strides: each
    // chunk re-seats the odometer at its start offset and walks its own
    // linear range of the logical output space.
    let sa = broadcast_strides(a.shape, a.strides, out_shape);
    let sb = broadcast_strides(b.shape, b.strides, out_shape);
    let (a_raw, b_raw) = (a.data, b.data);
    let (a_base, b_base) = (a.offset, b.offset);
    par_chunks_mut(out, ELEMWISE_CHUNK, |_, start, dst| {
        let odo = Odometer2::starting_at(out_shape, sa.clone(), sb.clone(), start);
        for (d, (x, y)) in dst.iter_mut().zip(odo) {
            debug_assert!(
                a_base + x < a_raw.len() && b_base + y < b_raw.len(),
                "broadcast odometer left the operand buffers"
            );
            *d = f(a_raw[a_base + x], b_raw[b_base + y]);
        }
    });
}

/// A unary elementwise function. [`unary_into`] holds the one definition
/// of each per-element expression: the `Tensor` method of the same name
/// (and through it the tape) and the arena executor both call it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unary {
    /// `v + s`.
    AddScalar(f32),
    /// `v * s`.
    MulScalar(f32),
    /// `-v`.
    Neg,
    /// `max(v, 0)`.
    Relu,
    /// GELU, tanh approximation.
    Gelu,
    /// `1 / (1 + e^-v)`.
    Sigmoid,
    /// `tanh v`.
    Tanh,
    /// `√v`.
    Sqrt,
    /// `e^v`.
    Exp,
    /// `ln v`.
    Ln,
    /// `v * v`.
    Square,
    /// `|v|`.
    Abs,
}

/// `out[i] = f(src[i])` in logical row-major order.
pub fn unary_into(src: ViewRef<'_>, out: &mut [f32], f: Unary) {
    match f {
        Unary::AddScalar(s) => map_into(src, out, |v| v + s),
        Unary::MulScalar(s) => map_into(src, out, |v| v * s),
        Unary::Neg => map_into(src, out, |v| -v),
        Unary::Relu => map_into(src, out, |v| v.max(0.0)),
        Unary::Gelu => map_into(src, out, gelu),
        Unary::Sigmoid => map_into(src, out, |v| 1.0 / (1.0 + (-v).exp())),
        Unary::Tanh => map_into(src, out, f32::tanh),
        Unary::Sqrt => map_into(src, out, f32::sqrt),
        Unary::Exp => map_into(src, out, f32::exp),
        Unary::Ln => map_into(src, out, f32::ln),
        Unary::Square => map_into(src, out, |v| v * v),
        Unary::Abs => map_into(src, out, f32::abs),
    }
}

/// `√(2/π)`, the scale of the GELU approximation.
pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// The tanh-approximated GELU (accurate to ~1e-3 of the exact erf form).
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

/// A broadcasting binary elementwise function; [`binary_into`] defines
/// each, as [`unary_into`] does the unary ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binary {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
}

/// `out[i] = f(a[i], b[i])` under broadcasting, into `out` of
/// `out_shape`, the operands' [`zip_shape`].
pub fn binary_into(
    a: ViewRef<'_>,
    b: ViewRef<'_>,
    out_shape: &[usize],
    out: &mut [f32],
    f: Binary,
) {
    match f {
        Binary::Add => zip_into(a, b, out_shape, out, |x, y| x + y),
        Binary::Sub => zip_into(a, b, out_shape, out, |x, y| x - y),
        Binary::Mul => zip_into(a, b, out_shape, out, |x, y| x * y),
        Binary::Div => zip_into(a, b, out_shape, out, |x, y| x / y),
    }
}

/// An axis reduction that keeps the reduced axis as size 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisReduce {
    /// The sum along the axis.
    Sum,
    /// The sum along the axis, times `1 / len`.
    Mean,
}

/// Reduce dense row-major `data` of `shape` along `axis` into `out`, the
/// reduced axis kept as size 1. Each output element accumulates in serial
/// order at any thread count.
pub fn axis_reduce_into(
    data: &[f32],
    shape: &[usize],
    axis: usize,
    f: AxisReduce,
    out: &mut [f32],
) {
    axis_accumulate_into(data, shape, axis, 0.0, |acc, v| acc + v, out);
    if f == AxisReduce::Mean {
        let scale = 1.0 / shape[axis] as f32;
        for v in out.iter_mut() {
            *v *= scale;
        }
    }
}

/// Column-tile width of the register-blocked matmul micro-kernel: each
/// inner loop accumulates this many output columns in a fixed-size array,
/// which rustc autovectorizes (one broadcast load of `a`, one dense 8-lane
/// load of `b`, one vector multiply-add — no stride generality, no
/// reassociation).
pub const MATMUL_TILE_N: usize = 8;

/// Row-tile height of the matmul micro-kernel: up to this many rows of one
/// batch matrix run against each [`MATMUL_TILE_N`]-column rhs panel
/// together, so each rhs row load feeds `MATMUL_TILE_M × MATMUL_TILE_N`
/// register accumulators.
pub const MATMUL_TILE_M: usize = 4;

/// Can a view's innermost rows be streamed densely by the matmul
/// micro-kernel? True when the last axis is unit-stride (or trivially
/// short): outer axes may be arbitrarily strided or broadcast, only row
/// interiors must be dense. Operands failing this must be packed before
/// the kernel runs.
pub fn matmul_rows_dense(shape: &[usize], strides: &[usize]) -> bool {
    let r = shape.len();
    r >= 2 && (shape[r - 1] <= 1 || strides[r - 1] == 1)
}

/// Batched tiled matmul over strided rank ≥ 2 operands (leading axes
/// broadcast): `out[.., i, j] = Σ_p a[.., i, p] · b[.., p, j]`.
///
/// The lhs is read through its own strides — a transposed, sliced,
/// broadcast, or overlapping-window (`sliding_window`) lhs never has to be
/// packed. The rhs only needs dense *rows* ([`matmul_rows_dense`]); its
/// batch and row axes may be strided, so a shared weight matrix or a
/// permuted-but-row-dense value tensor is likewise read in place. Each
/// rhs panel is therefore packed (by the caller) at most once per call and
/// reused across the whole batch/row extent here, instead of the old
/// materialize-everything-per-call pipeline.
///
/// Tiling: work is row-partitioned exactly like before (chunk size a pure
/// function of `(k, n)` — the `lip-par` bit-identity contract), and inside
/// a chunk the column-tile loop is outermost so one `k ×`
/// [`MATMUL_TILE_N`] rhs panel stays cache-hot across every row of the
/// chunk while the accumulators live in registers. Rows go
/// [`MATMUL_TILE_M`] at a time when that many are left in both the chunk
/// and the current batch matrix; the rows left over, and the column tail
/// narrower than [`MATMUL_TILE_N`], go one row at a time.
///
/// Bit-identity: every output element is still produced by the exact
/// per-element accumulation of the original i-k-j kernel — from `+0.0`,
/// `p` strictly increasing, zero-lhs terms skipped, one f32 add per
/// surviving term — so results are byte-identical to the pre-tiling kernel
/// at any thread count. The zero skip cannot flip a sign bit (an
/// accumulator that starts at `+0.0` never becomes `-0.0` under
/// round-to-nearest adds); it is observable only when the rhs holds
/// `±inf` or `NaN`, since `0 · inf` is `NaN`, so a row tile keeps it per
/// row.
pub fn matmul_packed_into(a: ViewRef<'_>, b: ViewRef<'_>, out: &mut [f32]) {
    let (ar, br) = (a.shape.len(), b.shape.len());
    assert!(ar >= 2 && br >= 2, "matmul_packed_into wants rank >= 2 operands");
    let (m, ka) = (a.shape[ar - 2], a.shape[ar - 1]);
    let (kb, n) = (b.shape[br - 2], b.shape[br - 1]);
    debug_assert_eq!(ka, kb, "inner dims diverged from matmul_shapes");
    let k = ka;
    assert!(
        matmul_rows_dense(b.shape, b.strides),
        "matmul rhs rows must be unit-stride (shape {:?}, strides {:?}); pack first",
        b.shape,
        b.strides
    );
    let (a_rs, a_cs) = (a.strides[ar - 2], a.strides[ar - 1]);
    let b_rs = b.strides[br - 2];

    let batch_shape = broadcast_shapes(&a.shape[..ar - 2], &b.shape[..br - 2])
        .unwrap_or_else(|e| panic!("matmul batch axes: {e}"));
    let batches = numel(&batch_shape);
    debug_assert_eq!(out.len(), batches * m * n);
    if out.is_empty() {
        return;
    }

    // Flat element offset of each batch's matrix, through the operands'
    // actual strides (0 on broadcast axes).
    let sa = broadcast_strides(&a.shape[..ar - 2], &a.strides[..ar - 2], &batch_shape);
    let sb = broadcast_strides(&b.shape[..br - 2], &b.strides[..br - 2], &batch_shape);
    let offsets: Vec<(usize, usize)> = Odometer2::new(&batch_shape, sa, sb).collect();
    debug_assert_eq!(offsets.len(), batches);

    let (a_data, b_data) = (a.data, b.data);
    let (a_base, b_base) = (a.offset, b.offset);
    // Partition over flattened output rows (batches * m of them),
    // ~MATMUL_CHUNK_MACS multiply-accumulates per chunk. Row count per
    // chunk depends only on (k, n), so the split is a pure function of
    // the problem shape.
    let rows_per_chunk = (MATMUL_CHUNK_MACS / (k * n).max(1)).max(1);
    par_chunks_mut(out, rows_per_chunk * n, |_, start, dst| {
        let row0 = start / n;
        let rows = dst.len() / n;
        // Column tiles outermost: the k × MATMUL_TILE_N rhs panel at j0 is
        // reused across every row of the chunk before moving right.
        let mut j0 = 0usize;
        while j0 < n {
            let w = (n - j0).min(MATMUL_TILE_N);
            let mut ri = 0usize;
            while ri < rows {
                let row = row0 + ri;
                let (bi, i) = (row / m, row % m);
                let (oa, ob) = offsets[bi];
                let a_row = a_base + oa + i * a_rs;
                let b_mat = b_base + ob;
                if w == MATMUL_TILE_N && ri + MATMUL_TILE_M <= rows && i + MATMUL_TILE_M <= m {
                    // full tile: MATMUL_TILE_M rows of one batch matrix share
                    // each rhs row load; every row keeps its own zero-skip
                    let mut acc = [[0.0f32; MATMUL_TILE_N]; MATMUL_TILE_M];
                    for p in 0..k {
                        let b_row = b_mat + p * b_rs + j0;
                        let brow = &b_data[b_row..b_row + MATMUL_TILE_N];
                        let a_col = a_row + p * a_cs;
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let av = a_data[a_col + r * a_rs];
                            if av == 0.0 {
                                continue;
                            }
                            for (au, &bv) in acc_r.iter_mut().zip(brow) {
                                *au += av * bv;
                            }
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        let o0 = (ri + r) * n + j0;
                        dst[o0..o0 + MATMUL_TILE_N].copy_from_slice(acc_r);
                    }
                    ri += MATMUL_TILE_M;
                    continue;
                }
                // one row: the rows left over at the end of a batch matrix
                // or a chunk, and the column tail
                let o = &mut dst[ri * n + j0..ri * n + j0 + w];
                if w == MATMUL_TILE_N {
                    // full-width tile: fixed-size accumulator array, no
                    // stride generality — rustc turns the u-loop into one
                    // vector multiply-add
                    let mut acc = [0.0f32; MATMUL_TILE_N];
                    for p in 0..k {
                        let av = a_data[a_row + p * a_cs];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &b_data[b_mat + p * b_rs + j0..b_mat + p * b_rs + j0 + MATMUL_TILE_N];
                        for (au, &bv) in acc.iter_mut().zip(brow) {
                            *au += av * bv;
                        }
                    }
                    o.copy_from_slice(&acc);
                } else {
                    // remainder columns (< MATMUL_TILE_N): same accumulation
                    // order, scalar tail
                    let mut acc = [0.0f32; MATMUL_TILE_N];
                    for p in 0..k {
                        let av = a_data[a_row + p * a_cs];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &b_data[b_mat + p * b_rs + j0..b_mat + p * b_rs + j0 + w];
                        for (au, &bv) in acc[..w].iter_mut().zip(brow) {
                            *au += av * bv;
                        }
                    }
                    o.copy_from_slice(&acc[..w]);
                }
                ri += 1;
            }
            j0 += w;
        }
    });
}

/// Axis reduction over dense row-major `data` of `shape`:
/// `out[o, i] = fold over l of data[o, l, i]` in the implicit
/// `(outer, len, inner)` split at `axis`. Fills `out` with `init` itself.
/// The `l` accumulation order per output element matches the serial loop
/// exactly; parallelism only splits the disjoint output regions.
pub(crate) fn axis_accumulate_into(
    data: &[f32],
    shape: &[usize],
    axis: usize,
    init: f32,
    accumulate: impl Fn(f32, f32) -> f32 + Sync,
    out: &mut [f32],
) {
    let (outer, len, inner) = split_at_axis(shape, axis);
    debug_assert_eq!(out.len(), outer * inner);
    out.fill(init);
    if out.is_empty() {
        return;
    }
    if outer > 1 {
        // chunk over whole outer rows so each window owns `[o0..o1) × inner`
        let rows = (ELEMWISE_CHUNK / (len * inner).max(1)).max(1);
        par_chunks_mut(out, rows * inner, |_, start, dst| {
            let o0 = start / inner;
            for (oi, drow) in dst.chunks_mut(inner).enumerate() {
                let o = o0 + oi;
                for l in 0..len {
                    let base = (o * len + l) * inner;
                    for (d, &v) in drow.iter_mut().zip(&data[base..base + inner]) {
                        *d = accumulate(*d, v);
                    }
                }
            }
        });
    } else {
        // single outer row: split the inner axis instead
        par_chunks_mut(out, ELEMWISE_CHUNK, |_, start, dst| {
            let width = dst.len();
            for l in 0..len {
                let base = l * inner + start;
                for (d, &v) in dst.iter_mut().zip(&data[base..base + width]) {
                    *d = accumulate(*d, v);
                }
            }
        });
    }
}

/// Numerically stable softmax over rows of width `width` in dense `data`.
pub fn softmax_lastdim_into(data: &[f32], width: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    assert!(width > 0, "softmax over an empty last axis");
    debug_assert_eq!(out.len() % width, 0);
    let rows = (ELEMWISE_CHUNK / width).max(1);
    par_chunks_mut(out, rows * width, |_, start, dst| {
        let src = &data[start..start + dst.len()];
        for (drow, row) in dst.chunks_exact_mut(width).zip(src.chunks_exact(width)) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (d, &v) in drow.iter_mut().zip(row) {
                let e = (v - m).exp();
                sum += e;
                *d = e;
            }
            let inv = 1.0 / sum;
            for d in drow.iter_mut() {
                *d *= inv;
            }
        }
    });
}

/// Numerically stable log-softmax over rows of width `width` in dense `data`.
pub fn log_softmax_lastdim_into(data: &[f32], width: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    assert!(width > 0, "log_softmax over an empty last axis");
    debug_assert_eq!(out.len() % width, 0);
    let rows = (ELEMWISE_CHUNK / width).max(1);
    par_chunks_mut(out, rows * width, |_, start, dst| {
        let src = &data[start..start + dst.len()];
        for (drow, row) in dst.chunks_exact_mut(width).zip(src.chunks_exact(width)) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for (d, &v) in drow.iter_mut().zip(row) {
                *d = v - lse;
            }
        }
    });
}

/// Interleave dense row-major `parts` (each paired with its length along the
/// concat axis) into `out`, where every part shares `(outer, inner)` with the
/// output's `split_at_axis` view.
pub fn concat_packed_into(parts: &[(&[f32], usize)], outer: usize, inner: usize, out: &mut [f32]) {
    let mut pos = 0usize;
    for o in 0..outer {
        for &(data, len) in parts {
            let take = len * inner;
            let base = o * take;
            out[pos..pos + take].copy_from_slice(&data[base..base + take]);
            pos += take;
        }
    }
    debug_assert_eq!(pos, out.len());
}

/// Copy `indices`-selected rows of a dense `[rows, row_len]`-strided table
/// into `out`.
pub fn gather_rows_into(
    table: &[f32],
    rows: usize,
    row_len: usize,
    indices: &[usize],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), indices.len() * row_len);
    for (j, &i) in indices.iter().enumerate() {
        assert!(i < rows, "gather index {i} out of {rows}");
        out[j * row_len..(j + 1) * row_len].copy_from_slice(&table[i * row_len..(i + 1) * row_len]);
    }
}
