//! Arena execution: bind a [`CompiledModel`] to a concrete batch size and
//! run forward passes with one flat allocation and no tape.
//!
//! The arena is `[ params | pooled slots | per-step scratch ]`:
//!
//! * the **parameter segment** is written once at bind time and never freed;
//! * each **slot** is sized to the max over every owner the scheduler pooled
//!   into it (`slot_sizes` candidates evaluated at `B`);
//! * **scratch** is the max over steps of what that one step needs to pack
//!   non-contiguous operands for kernels requiring dense input. The tiled
//!   matmul reads its lhs through arbitrary strides and its rhs through any
//!   row-dense layout, so only a rhs with non-unit row stride (the
//!   attention K-transpose) still packs; softmax / reductions / concat pack
//!   as before. Packing gathers in logical order, so when it happens the
//!   bytes equal the tape's `contiguous()` copy.
//!
//! Every step writes through `write_out`, which splits the arena into
//! `left | output | right` disjoint borrows. The scheduler guarantees an
//! output slot is never also an operand of its own step (allocation happens
//! before frees), so the split never panics — [`BoundModel::assert_no_aliasing`]
//! re-checks that invariant over the bound ranges.
//!
//! Kernels are the exact `lip_tensor::kernel` entry points `Graph` recording
//! uses, with the same per-element expressions (`v * s`, `a + b`, …), so a
//! bound run is byte-identical to tape inference at any thread budget.
//!
//! Fused steps (see `lip_analyze::schedule`) carry a `post: Vec<MapFn>`
//! chain applied per element at store time — `apply_post` threads the value
//! through the same scalar expressions the separate passes would have used,
//! preserving byte parity while eliminating whole-tensor round trips.

use lip_analyze::{eval_shape, NodeAttr, Storage};
use lip_data::window::Batch;
use lip_tensor::kernel::{self, ViewRef};
use lip_tensor::shape::{contiguous_strides, is_row_major, numel, view_strides};
use lip_tensor::{gelu_scalar, Tensor};

use crate::compile::CompiledModel;

/// A half-open element span `[start, end)` in the arena.
type Span = (usize, usize);

/// A resolved operand: concrete shape and strides plus its absolute offset
/// and owning storage span in the arena. `range` is what liveness and the
/// split-borrow reason about; `offset` is where logical element 0 lives.
#[derive(Debug, Clone)]
struct Desc {
    shape: Vec<usize>,
    strides: Vec<usize>,
    offset: usize,
    range: Span,
}

impl Desc {
    fn dense(shape: Vec<usize>, start: usize) -> Desc {
        let n = numel(&shape);
        Desc {
            strides: contiguous_strides(&shape),
            offset: start,
            range: (start, start + n),
            shape,
        }
    }

    fn is_contiguous(&self) -> bool {
        is_row_major(&self.shape, &self.strides)
    }

    /// Are the innermost rows unit-stride (what the tiled matmul kernel
    /// needs from its rhs)? Mirrors `kernel::matmul_rows_dense`.
    fn rows_dense(&self) -> bool {
        let r = self.shape.len();
        r >= 2 && (self.shape[r - 1] <= 1 || self.strides[r - 1] == 1)
    }
}

/// An operand of a kernel that requires dense row-major input. When `src`
/// is already contiguous, `dense == src`; otherwise `dense` names a scratch
/// span the step packs (logical-order gather) before computing.
#[derive(Debug, Clone)]
struct PackedOperand {
    src: Desc,
    dense: Desc,
    packed: bool,
}

#[derive(Debug, Clone, Copy)]
enum MapFn {
    AddScalar(f32),
    MulScalar(f32),
    Neg,
    Relu,
    Gelu,
    Sigmoid,
    Tanh,
    Sqrt,
    Exp,
    Ln,
    Square,
    Abs,
}

impl MapFn {
    /// Lower a scheduled elementwise op (a map head or a fused stage) to
    /// its executor function. The per-element expressions live in
    /// [`apply_map`] / [`run_map`].
    fn from_stage(op: &str, attr: &NodeAttr) -> MapFn {
        match (op, attr) {
            ("AddScalar", NodeAttr::Scalar(s)) => MapFn::AddScalar(*s),
            ("MulScalar", NodeAttr::Scalar(s)) => MapFn::MulScalar(*s),
            ("Neg", _) => MapFn::Neg,
            ("Relu", _) => MapFn::Relu,
            ("Gelu", _) => MapFn::Gelu,
            ("Sigmoid", _) => MapFn::Sigmoid,
            ("Tanh", _) => MapFn::Tanh,
            ("Sqrt", _) => MapFn::Sqrt,
            ("Exp", _) => MapFn::Exp,
            ("Ln", _) => MapFn::Ln,
            ("Square", _) => MapFn::Square,
            ("Abs", _) => MapFn::Abs,
            (op, attr) => panic!("{op} with attr {attr:?} is not an elementwise stage"),
        }
    }
}

/// One elementwise stage, exactly as the tape's separate pass would compute
/// it (`run_map` uses the same expressions) — fused chains apply these per
/// element at store time, so fused bytes equal unfused bytes.
fn apply_map(f: MapFn, v: f32) -> f32 {
    match f {
        MapFn::AddScalar(s) => v + s,
        MapFn::MulScalar(s) => v * s,
        MapFn::Neg => -v,
        MapFn::Relu => v.max(0.0),
        MapFn::Gelu => gelu_scalar(v),
        MapFn::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        MapFn::Tanh => v.tanh(),
        MapFn::Sqrt => v.sqrt(),
        MapFn::Exp => v.exp(),
        MapFn::Ln => v.ln(),
        MapFn::Square => v * v,
        MapFn::Abs => v.abs(),
    }
}

/// Thread `v` through a fused stage chain in order.
fn apply_post(mut v: f32, post: &[MapFn]) -> f32 {
    for &f in post {
        v = apply_map(f, v);
    }
    v
}

#[derive(Debug, Clone, Copy)]
enum ZipFn {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug)]
enum BoundStep {
    /// Views, params: resolved entirely at bind time.
    Nop,
    LoadX { dst: Desc },
    LoadCovariate { dst: Desc },
    /// A `Reshape` whose input strides do not admit the target shape.
    Materialize { src: Desc, dst: Desc },
    Map { src: Desc, f: MapFn, post: Vec<MapFn>, dst: Desc },
    Zip { a: Desc, b: Desc, f: ZipFn, post: Vec<MapFn>, dst: Desc },
    /// `a` is read through its strides (never packed); `b` packs into
    /// scratch only when its rows are not unit-stride. `post` is the fused
    /// elementwise chain applied per element at store time.
    MatMul { a: Desc, b: PackedOperand, post: Vec<MapFn>, dst: Desc },
    Softmax { src: PackedOperand, width: usize, log: bool, dst: Desc },
    Reduce { src: PackedOperand, axis: usize, mean_scale: Option<f32>, dst: Desc },
    Concat { parts: Vec<PackedOperand>, axis: usize, outer: usize, inner: usize, dst: Desc },
    GatherRows { table: Desc, channel: usize, dst: Desc },
}

struct Exec {
    step: BoundStep,
    /// Full physical spans of slots dead after this step (poison targets).
    dies: Vec<(usize, usize)>,
}

/// A [`CompiledModel`] laid out for one concrete batch size: the arena is
/// allocated, every operand's offset and strides are resolved, and
/// [`BoundModel::run`] is a straight walk over the step list.
pub struct BoundModel {
    arena: Vec<f32>,
    steps: Vec<Exec>,
    pred: Desc,
    params_end: usize,
    /// End of the pooled-slot segment (scratch begins here). The shadow
    /// checker uses it to tell slot writes (allocation events, must hit
    /// non-live storage) from scratch writes (freely reused every step).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    slots_end: usize,
    explicit: bool,
    batch_size: usize,
}

impl CompiledModel {
    /// Evaluate the symbolic arena layout at batch size `b` and allocate it.
    pub fn bind(&self, b: usize) -> BoundModel {
        assert!(b > 0, "batch size must be positive");
        let sched = &self.schedule;
        let params_end = self.params.len();

        let mut slot_span = Vec::with_capacity(sched.slot_sizes.len());
        let mut cur = params_end;
        for cands in &sched.slot_sizes {
            let size = cands.iter().map(|d| d.eval(b)).max().unwrap_or(0);
            slot_span.push((cur, cur + size));
            cur += size;
        }
        let slots_end = cur;
        let mut scratch_peak = 0usize;

        let mut descs: Vec<Option<Desc>> = vec![None; sched.pred + 1];
        let mut steps = Vec::with_capacity(sched.steps.len());
        let mut gather_channel = 0usize;

        for step in &sched.steps {
            let shape = eval_shape(&step.shape, b);
            let inputs: Vec<Desc> = step
                .inputs
                .iter()
                .map(|&i| descs[i].clone().expect("input scheduled before use"))
                .collect();
            let post: Vec<MapFn> =
                step.fused.iter().map(|f| MapFn::from_stage(f.op, &f.attr)).collect();
            let slot_start = || match step.storage {
                Storage::Slot(id) | Storage::ViewOrSlot(id) => slot_span[id].0,
                ref other => panic!("op {} stored as {other:?} owns no slot", step.op),
            };
            let mut scratch = slots_end;
            let mut pack = |d: &Desc| -> PackedOperand {
                if d.is_contiguous() {
                    PackedOperand { src: d.clone(), dense: d.clone(), packed: false }
                } else {
                    let dense = Desc::dense(d.shape.clone(), scratch);
                    scratch = dense.range.1;
                    PackedOperand { src: d.clone(), dense, packed: true }
                }
            };

            let (desc, bound) = match step.op {
                "Param" => {
                    let k = match step.storage {
                        Storage::Param(k) => k,
                        ref other => panic!("Param stored as {other:?}"),
                    };
                    let (start, end) = self.param_ranges[k];
                    debug_assert_eq!(end - start, numel(&shape));
                    (Desc::dense(shape, start), BoundStep::Nop)
                }
                "Leaf" => {
                    let dst = Desc::dense(shape, slot_start());
                    let load = match step.attr {
                        NodeAttr::Label("x") => BoundStep::LoadX { dst: dst.clone() },
                        NodeAttr::Label("covariate") => {
                            BoundStep::LoadCovariate { dst: dst.clone() }
                        }
                        ref other => panic!("leaf with no runtime source: {other:?}"),
                    };
                    (dst, load)
                }
                "Permute" => {
                    let axes = match &step.attr {
                        NodeAttr::Axes(a) => a,
                        other => panic!("Permute without axes: {other:?}"),
                    };
                    let src = &inputs[0];
                    let strides: Vec<usize> = axes.iter().map(|&a| src.strides[a]).collect();
                    debug_assert_eq!(
                        shape,
                        axes.iter().map(|&a| src.shape[a]).collect::<Vec<_>>()
                    );
                    let d = Desc { shape, strides, offset: src.offset, range: src.range };
                    (d, BoundStep::Nop)
                }
                "SliceAxis" => {
                    let (axis, start) = match step.attr {
                        NodeAttr::Slice { axis, start, .. } => (axis, start),
                        ref other => panic!("SliceAxis without range: {other:?}"),
                    };
                    let src = &inputs[0];
                    let d = Desc {
                        shape,
                        strides: src.strides.clone(),
                        offset: src.offset + start * src.strides[axis],
                        range: src.range,
                    };
                    (d, BoundStep::Nop)
                }
                "Reshape" => {
                    let src = &inputs[0];
                    match view_strides(&src.shape, &src.strides, &shape) {
                        Some(strides) => {
                            let d = Desc {
                                shape,
                                strides,
                                offset: src.offset,
                                range: src.range,
                            };
                            (d, BoundStep::Nop)
                        }
                        None => {
                            let dst = Desc::dense(shape, slot_start());
                            (dst.clone(), BoundStep::Materialize { src: src.clone(), dst })
                        }
                    }
                }
                "AddScalar" | "MulScalar" | "Neg" | "Relu" | "Gelu" | "Sigmoid" | "Tanh"
                | "Sqrt" | "Exp" | "Ln" | "Square" | "Abs" => {
                    let f = MapFn::from_stage(step.op, &step.attr);
                    let dst = Desc::dense(shape, slot_start());
                    (dst.clone(), BoundStep::Map { src: inputs[0].clone(), f, post, dst })
                }
                "Add" | "Sub" | "Mul" | "Div" => {
                    let f = match step.op {
                        "Add" => ZipFn::Add,
                        "Sub" => ZipFn::Sub,
                        "Mul" => ZipFn::Mul,
                        _ => ZipFn::Div,
                    };
                    let dst = Desc::dense(shape, slot_start());
                    let bound = BoundStep::Zip {
                        a: inputs[0].clone(),
                        b: inputs[1].clone(),
                        f,
                        post,
                        dst: dst.clone(),
                    };
                    (dst, bound)
                }
                "MatMul" => {
                    // the tiled kernel reads the lhs through its strides;
                    // the rhs packs only when its rows are not unit-stride
                    // (the attention K-transpose) — everything else is read
                    // in place
                    let a = inputs[0].clone();
                    let b = if inputs[1].rows_dense() {
                        PackedOperand {
                            src: inputs[1].clone(),
                            dense: inputs[1].clone(),
                            packed: false,
                        }
                    } else {
                        pack(&inputs[1])
                    };
                    let dst = Desc::dense(shape, slot_start());
                    (dst.clone(), BoundStep::MatMul { a, b, post, dst })
                }
                "Softmax" | "LogSoftmax" => {
                    let src = pack(&inputs[0]);
                    let width = *shape.last().expect("softmax on a scalar");
                    let dst = Desc::dense(shape, slot_start());
                    let bound = BoundStep::Softmax {
                        src,
                        width,
                        log: step.op == "LogSoftmax",
                        dst: dst.clone(),
                    };
                    (dst, bound)
                }
                "SumAxis" | "MeanAxis" => {
                    let axis = match step.attr {
                        NodeAttr::Axis(a) => a,
                        ref other => panic!("{} without axis: {other:?}", step.op),
                    };
                    let src = pack(&inputs[0]);
                    // same expression as Tensor::mean_axis applies to the sum
                    let mean_scale = (step.op == "MeanAxis")
                        .then(|| 1.0 / (src.src.shape[axis] as f32));
                    let dst = Desc::dense(shape, slot_start());
                    let bound =
                        BoundStep::Reduce { src, axis, mean_scale, dst: dst.clone() };
                    (dst, bound)
                }
                "Concat" => {
                    let axis = match step.attr {
                        NodeAttr::Axis(a) => a,
                        ref other => panic!("Concat without axis: {other:?}"),
                    };
                    let parts: Vec<PackedOperand> = inputs.iter().map(&mut pack).collect();
                    let outer: usize = shape[..axis].iter().product();
                    let inner: usize = shape[axis + 1..].iter().product();
                    let dst = Desc::dense(shape, slot_start());
                    let bound =
                        BoundStep::Concat { parts, axis, outer, inner, dst: dst.clone() };
                    (dst, bound)
                }
                "GatherRows" => {
                    let table = inputs[0].clone();
                    debug_assert_eq!(table.shape.len(), 2, "embedding table must be rank 2");
                    let dst = Desc::dense(shape, slot_start());
                    let bound = BoundStep::GatherRows {
                        table,
                        channel: gather_channel,
                        dst: dst.clone(),
                    };
                    gather_channel += 1;
                    (dst, bound)
                }
                other => panic!("op {other} escaped compile-time support checks"),
            };
            scratch_peak = scratch_peak.max(scratch - slots_end);
            descs[step.node] = Some(desc);
            steps.push(Exec {
                step: bound,
                dies: step.dies_after.iter().map(|&id| slot_span[id]).collect(),
            });
        }

        let pred = descs[sched.pred].clone().expect("pred scheduled");
        let mut arena = vec![0.0f32; slots_end + scratch_peak];
        arena[..params_end].copy_from_slice(&self.params);
        BoundModel {
            arena,
            steps,
            pred,
            params_end,
            slots_end,
            explicit: self.explicit,
            batch_size: b,
        }
    }
}

/// Split the arena into `left | out | right` so a step can write its output
/// while reading operands from either side. Liveness guarantees operand
/// spans never straddle the output span.
fn write_out<R>(
    arena: &mut [f32],
    out: (usize, usize),
    f: impl FnOnce(&Reader<'_>, &mut [f32]) -> R,
) -> R {
    let (left, rest) = arena.split_at_mut(out.0);
    let (dst, right) = rest.split_at_mut(out.1 - out.0);
    let reader = Reader { left, right, right_base: out.1 };
    f(&reader, dst)
}

struct Reader<'a> {
    left: &'a [f32],
    right: &'a [f32],
    right_base: usize,
}

impl Reader<'_> {
    fn view<'s>(&'s self, d: &'s Desc) -> ViewRef<'s> {
        if d.range.1 <= self.left.len() {
            ViewRef { data: self.left, offset: d.offset, shape: &d.shape, strides: &d.strides }
        } else {
            assert!(
                d.range.0 >= self.right_base,
                "executor aliasing: input span {:?} overlaps the output",
                d.range
            );
            ViewRef {
                data: self.right,
                offset: d.offset - self.right_base,
                shape: &d.shape,
                strides: &d.strides,
            }
        }
    }

    fn dense<'s>(&'s self, d: &'s Desc) -> &'s [f32] {
        debug_assert!(d.is_contiguous(), "dense() on strided desc {d:?}");
        let n = numel(&d.shape);
        if d.range.1 <= self.left.len() {
            &self.left[d.offset..d.offset + n]
        } else {
            assert!(
                d.range.0 >= self.right_base,
                "executor aliasing: input span {:?} overlaps the output",
                d.range
            );
            let o = d.offset - self.right_base;
            &self.right[o..o + n]
        }
    }
}

fn run_map(src: ViewRef<'_>, out: &mut [f32], f: MapFn, post: &[MapFn]) {
    // per-element expressions match the Tensor wrappers exactly; the
    // no-post fast path keeps the hot monomorphized closures branch-free
    if post.is_empty() {
        match f {
            MapFn::AddScalar(s) => kernel::map_into(src, out, |v| v + s),
            MapFn::MulScalar(s) => kernel::map_into(src, out, |v| v * s),
            MapFn::Neg => kernel::map_into(src, out, |v| -v),
            MapFn::Relu => kernel::map_into(src, out, |v| v.max(0.0)),
            MapFn::Gelu => kernel::map_into(src, out, gelu_scalar),
            MapFn::Sigmoid => kernel::map_into(src, out, |v| 1.0 / (1.0 + (-v).exp())),
            MapFn::Tanh => kernel::map_into(src, out, f32::tanh),
            MapFn::Sqrt => kernel::map_into(src, out, f32::sqrt),
            MapFn::Exp => kernel::map_into(src, out, f32::exp),
            MapFn::Ln => kernel::map_into(src, out, f32::ln),
            MapFn::Square => kernel::map_into(src, out, |v| v * v),
            MapFn::Abs => kernel::map_into(src, out, f32::abs),
        }
    } else {
        kernel::map_into(src, out, |v| apply_post(apply_map(f, v), post));
    }
}

fn run_zip(
    a: ViewRef<'_>,
    b: ViewRef<'_>,
    out_shape: &[usize],
    out: &mut [f32],
    f: ZipFn,
    post: &[MapFn],
) {
    if post.is_empty() {
        match f {
            ZipFn::Add => kernel::zip_into(a, b, out_shape, out, |x, y| x + y),
            ZipFn::Sub => kernel::zip_into(a, b, out_shape, out, |x, y| x - y),
            ZipFn::Mul => kernel::zip_into(a, b, out_shape, out, |x, y| x * y),
            ZipFn::Div => kernel::zip_into(a, b, out_shape, out, |x, y| x / y),
        }
    } else {
        match f {
            ZipFn::Add => kernel::zip_into(a, b, out_shape, out, |x, y| apply_post(x + y, post)),
            ZipFn::Sub => kernel::zip_into(a, b, out_shape, out, |x, y| apply_post(x - y, post)),
            ZipFn::Mul => kernel::zip_into(a, b, out_shape, out, |x, y| apply_post(x * y, post)),
            ZipFn::Div => kernel::zip_into(a, b, out_shape, out, |x, y| apply_post(x / y, post)),
        }
    }
}

fn load_batch_tensor(arena: &mut [f32], src: &Tensor, dst: &Desc, what: &str) {
    assert_eq!(
        src.shape(),
        &dst.shape[..],
        "batch {what} shape does not match the compiled plan"
    );
    write_out(arena, dst.range, |_, out| kernel::gather_into(src.view_ref(), out));
}

fn pack_operand(arena: &mut [f32], p: &PackedOperand) {
    if p.packed {
        write_out(arena, p.dense.range, |r, out| kernel::gather_into(r.view(&p.src), out));
    }
}

impl BoundModel {
    /// Batch size this binding was laid out for.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Total bytes of the single arena allocation (params + slots + scratch).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<f32>()
    }

    /// Forward pass: returns the `[B, L, c]` prediction.
    pub fn run(&mut self, batch: &Batch) -> Tensor {
        self.run_inner(batch, None)
    }

    /// Forward pass that fills every slot with `poison` the moment liveness
    /// declares it dead (and pre-fills all non-parameter storage before the
    /// first step). Output bytes must equal [`BoundModel::run`]'s — the
    /// arena-safety property test drives this.
    pub fn run_with_poison(&mut self, batch: &Batch, poison: f32) -> Tensor {
        self.run_inner(batch, Some(poison))
    }

    fn run_inner(&mut self, batch: &Batch, poison: Option<f32>) -> Tensor {
        let arena = &mut self.arena;
        if let Some(p) = poison {
            arena[self.params_end..].fill(p);
        }
        for exec in &self.steps {
            match &exec.step {
                BoundStep::Nop => {}
                BoundStep::LoadX { dst } => load_batch_tensor(arena, &batch.x, dst, "x"),
                BoundStep::LoadCovariate { dst } => {
                    let src = if self.explicit {
                        batch
                            .cov_numerical
                            .as_ref()
                            .expect("compiled for explicit covariates; batch has none")
                    } else {
                        &batch.time_feats
                    };
                    load_batch_tensor(arena, src, dst, "covariate");
                }
                BoundStep::Materialize { src, dst } => {
                    write_out(arena, dst.range, |r, out| kernel::gather_into(r.view(src), out));
                }
                BoundStep::Map { src, f, post, dst } => {
                    write_out(arena, dst.range, |r, out| run_map(r.view(src), out, *f, post));
                }
                BoundStep::Zip { a, b, f, post, dst } => {
                    write_out(arena, dst.range, |r, out| {
                        run_zip(r.view(a), r.view(b), &dst.shape, out, *f, post)
                    });
                }
                BoundStep::MatMul { a, b, post, dst } => {
                    pack_operand(arena, b);
                    write_out(arena, dst.range, |r, out| {
                        let (av, bv) = (r.view(a), r.view(&b.dense));
                        if post.is_empty() {
                            kernel::matmul_packed_into(av, bv, out, |v| v);
                        } else {
                            kernel::matmul_packed_into(av, bv, out, |v| apply_post(v, post));
                        }
                    });
                }
                BoundStep::Softmax { src, width, log, dst } => {
                    pack_operand(arena, src);
                    write_out(arena, dst.range, |r, out| {
                        let data = r.dense(&src.dense);
                        if *log {
                            kernel::log_softmax_lastdim_into(data, *width, out);
                        } else {
                            kernel::softmax_lastdim_into(data, *width, out);
                        }
                    });
                }
                BoundStep::Reduce { src, axis, mean_scale, dst } => {
                    pack_operand(arena, src);
                    write_out(arena, dst.range, |r, out| {
                        kernel::axis_accumulate_into(
                            r.dense(&src.dense),
                            &src.dense.shape,
                            *axis,
                            0.0,
                            |acc, v| acc + v,
                            out,
                        );
                        if let Some(s) = mean_scale {
                            for v in out.iter_mut() {
                                *v *= s;
                            }
                        }
                    });
                }
                BoundStep::Concat { parts, axis, outer, inner, dst } => {
                    for p in parts {
                        pack_operand(arena, p);
                    }
                    write_out(arena, dst.range, |r, out| {
                        let packed: Vec<(&[f32], usize)> = parts
                            .iter()
                            .map(|p| (r.dense(&p.dense), p.dense.shape[*axis]))
                            .collect();
                        kernel::concat_packed_into(&packed, *outer, *inner, out);
                    });
                }
                BoundStep::GatherRows { table, channel, dst } => {
                    let chans = batch
                        .cov_categorical
                        .as_ref()
                        .expect("compiled for categorical covariates; batch has none");
                    let indices = &chans[*channel];
                    assert_eq!(
                        indices.len(),
                        dst.shape[0],
                        "categorical channel {channel}: index count does not match the plan"
                    );
                    write_out(arena, dst.range, |r, out| {
                        kernel::gather_rows_into(
                            r.dense(table),
                            table.shape[0],
                            table.shape[1],
                            indices,
                            out,
                        )
                    });
                }
            }
            if let Some(p) = poison {
                for &(s, e) in &exec.dies {
                    arena[s..e].fill(p);
                }
            }
        }
        let d = &self.pred;
        let mut out = vec![0.0f32; numel(&d.shape)];
        kernel::gather_into(
            ViewRef { data: arena, offset: d.offset, shape: &d.shape, strides: &d.strides },
            &mut out,
        );
        Tensor::from_vec(out, &d.shape)
    }

    /// Re-verify the scheduler's no-aliasing invariant over the *bound*
    /// ranges: no step writes a span it also reads (including in-place-prone
    /// cases like a materializing `Reshape` whose input dies at the same
    /// step). The split-borrow in `write_out` would panic at run time; this
    /// makes the property checkable without running a batch.
    pub fn assert_no_aliasing(&self) {
        fn disjoint(a: Span, b: Span) -> bool {
            a.1 <= b.0 || b.1 <= a.0
        }
        let check = |out: Span, reads: &[Span]| {
            for &r in reads {
                assert!(disjoint(out, r), "write span {out:?} aliases read span {r:?}");
            }
        };
        let packs = |check: &dyn Fn(Span, &[Span]), p: &PackedOperand| {
            if p.packed {
                check(p.dense.range, &[p.src.range]);
            }
        };
        for exec in &self.steps {
            match &exec.step {
                BoundStep::Nop | BoundStep::LoadX { .. } | BoundStep::LoadCovariate { .. } => {}
                BoundStep::Materialize { src, dst } => check(dst.range, &[src.range]),
                BoundStep::Map { src, dst, .. } => check(dst.range, &[src.range]),
                BoundStep::Zip { a, b, dst, .. } => check(dst.range, &[a.range, b.range]),
                BoundStep::MatMul { a, b, dst, .. } => {
                    packs(&check, b);
                    check(dst.range, &[a.range, b.dense.range]);
                }
                BoundStep::Softmax { src, dst, .. } | BoundStep::Reduce { src, dst, .. } => {
                    packs(&check, src);
                    check(dst.range, &[src.dense.range]);
                }
                BoundStep::Concat { parts, dst, .. } => {
                    for p in parts {
                        packs(&check, p);
                        check(dst.range, &[p.dense.range]);
                    }
                }
                BoundStep::GatherRows { table, dst, .. } => check(dst.range, &[table.range]),
            }
        }
    }
}

/// Per-element arena state tracked by the dynamic shadow-writes checker.
#[cfg(debug_assertions)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shadow {
    /// Never written since bind (or since its slot was last freed and the
    /// new owner has not written yet — the checker distinguishes via Dead).
    Undef,
    /// Holds a value some later step may read.
    Live,
    /// Freed by `dies_after`; reading it is use-after-free.
    Dead,
}

#[cfg(debug_assertions)]
impl BoundModel {
    /// Dynamic shadow-writes checker (debug builds only): replay the bound
    /// step list over a per-element shadow arena — `Undef | Live | Dead` —
    /// and validate at this concrete `B`
    /// exactly the claims `lip_analyze::verify_schedule` proves symbolically
    /// for all `B`:
    ///
    /// * every element a step reads is **live** (def-before-use, no
    ///   use-after-free) — parameters are live from bind time;
    /// * every **slot** write lands on non-live storage (the pool never
    ///   clobbers a live value; scratch, by contrast, is freely reused);
    /// * no step's write span overlaps one of its read spans;
    /// * the prediction is fully live when the walk ends.
    ///
    /// Returns one message per violation; the differential tests assert the
    /// result is empty for every compiled variant, tying the static verifier
    /// to the bytes the executor actually touches.
    pub fn shadow_check(&self) -> Vec<String> {
        let mut shadow = vec![Shadow::Undef; self.arena.len()];
        shadow[..self.params_end].fill(Shadow::Live);
        let mut violations = Vec::new();

        for (k, exec) in self.steps.iter().enumerate() {
            // (reads, write) spans per sub-action, in execution order:
            // packs gather strided operands into scratch before the kernel.
            let mut actions: Vec<(Vec<Span>, Option<Span>)> = Vec::new();
            let pack = |actions: &mut Vec<_>, p: &PackedOperand| {
                if p.packed {
                    actions.push((vec![p.src.range], Some(p.dense.range)));
                }
            };
            match &exec.step {
                BoundStep::Nop => {}
                BoundStep::LoadX { dst } | BoundStep::LoadCovariate { dst } => {
                    actions.push((vec![], Some(dst.range)));
                }
                BoundStep::Materialize { src, dst } => {
                    actions.push((vec![src.range], Some(dst.range)));
                }
                BoundStep::Map { src, dst, .. } => {
                    actions.push((vec![src.range], Some(dst.range)));
                }
                BoundStep::Zip { a, b, dst, .. } => {
                    actions.push((vec![a.range, b.range], Some(dst.range)));
                }
                BoundStep::MatMul { a, b, dst, .. } => {
                    pack(&mut actions, b);
                    actions.push((vec![a.range, b.dense.range], Some(dst.range)));
                }
                BoundStep::Softmax { src, dst, .. } | BoundStep::Reduce { src, dst, .. } => {
                    pack(&mut actions, src);
                    actions.push((vec![src.dense.range], Some(dst.range)));
                }
                BoundStep::Concat { parts, dst, .. } => {
                    let mut reads = Vec::with_capacity(parts.len());
                    for p in parts {
                        pack(&mut actions, p);
                        reads.push(p.dense.range);
                    }
                    actions.push((reads, Some(dst.range)));
                }
                BoundStep::GatherRows { table, dst, .. } => {
                    actions.push((vec![table.range], Some(dst.range)));
                }
            }

            for (reads, write) in actions {
                for &(s, e) in &reads {
                    if let Some(i) = (s..e).find(|&i| shadow[i] != Shadow::Live) {
                        violations.push(format!(
                            "step {k}: reads [{s}, {e}) but element {i} is {:?}",
                            shadow[i]
                        ));
                    }
                    if let Some((ws, we)) = write {
                        if s < we && ws < e {
                            violations.push(format!(
                                "step {k}: read span [{s}, {e}) overlaps write span [{ws}, {we})"
                            ));
                        }
                    }
                }
                if let Some((ws, we)) = write {
                    if ws < self.params_end {
                        violations.push(format!(
                            "step {k}: write span [{ws}, {we}) clobbers the parameter segment"
                        ));
                    } else if we <= self.slots_end {
                        // slot write = the pool handing this span to a new
                        // value: nothing in it may still be live
                        if let Some(i) = (ws..we).find(|&i| shadow[i] == Shadow::Live) {
                            violations.push(format!(
                                "step {k}: slot write [{ws}, {we}) clobbers live element {i}"
                            ));
                        }
                    }
                    shadow[ws..we].fill(Shadow::Live);
                }
            }

            // Mark dying spans dead. No double-free rule here: a pooled span
            // recycled between two view-only `Reshape` owners is freed twice
            // without an intervening write, which is legitimate — double-free
            // detection needs slot identity and generations, and lives in the
            // static verifier (`lip_analyze::verify_schedule`).
            for &(s, e) in &exec.dies {
                shadow[s..e].fill(Shadow::Dead);
            }
        }

        let (ps, pe) = self.pred.range;
        if let Some(i) = (ps..pe).find(|&i| shadow[i] != Shadow::Live) {
            violations.push(format!(
                "prediction span [{ps}, {pe}) has non-live element {i}: {:?}",
                shadow[i]
            ));
        }
        violations
    }
}
