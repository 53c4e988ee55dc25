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
//! `bind` reads the typed `Kernel` compile lowered each step to (no op
//! name, no `NodeAttr`) and the shape and inputs of the step's plan node,
//! and resolves its operands into a `BoundStep`. Each bound step lists its
//! arena reads and writes once, in `BoundStep::effects`;
//! [`BoundModel::assert_no_aliasing`] and [`BoundModel::shadow_check`]
//! both walk that list.
//!
//! Every step writes through `write_out`, which splits the arena into
//! `left | output | right` disjoint borrows. The scheduler guarantees an
//! output slot is never also an operand of its own step (allocation happens
//! before frees), so the split never panics — [`BoundModel::assert_no_aliasing`]
//! re-checks that invariant over the bound ranges.
//!
//! Kernels are the exact `lip_tensor::kernel` entry points `Graph` recording
//! uses: Map, Zip and Reduce steps call the elementwise table
//! (`unary_into`, `binary_into`, `axis_reduce_into`) the `Tensor` methods
//! call, so a bound run is byte-identical to tape inference at any thread
//! budget by construction. Each bound step is one plan node: one kernel
//! pass writing one plan value.

use lip_analyze::{eval_shape, PlanVar, Storage};
use lip_data::window::Batch;
use lip_tensor::kernel::{self, AxisReduce, Binary, Unary, ViewRef};
use lip_tensor::shape::{contiguous_strides, is_row_major, numel, view_strides};
use lip_tensor::Tensor;

use crate::compile::{CompiledModel, Kernel, Source};

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

    /// A view of this operand's storage with a new layout.
    fn view(&self, shape: Vec<usize>, strides: Vec<usize>, offset: usize) -> Desc {
        Desc { shape, strides, offset, range: self.range }
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

/// A step's kernel with every operand resolved to an arena [`Desc`].
#[derive(Debug)]
enum BoundOp {
    /// Views, params: resolved entirely at bind time.
    Nop,
    Load(Source),
    /// A `Reshape` whose input strides do not admit the target shape.
    Materialize { src: Desc },
    Map { src: Desc, f: Unary },
    Zip { a: Desc, b: Desc, f: Binary },
    /// `a` is read through its strides (never packed); `b` packs into
    /// scratch only when its rows are not unit-stride.
    MatMul { a: Desc, b: PackedOperand },
    Softmax { src: PackedOperand, width: usize, log: bool },
    Reduce { src: PackedOperand, axis: usize, f: AxisReduce },
    Concat { parts: Vec<PackedOperand>, axis: usize, outer: usize, inner: usize },
    GatherRows { table: Desc, channel: usize },
}

/// One step of a bound program.
#[derive(Debug)]
struct BoundStep {
    op: BoundOp,
    /// The step's value: the span it writes, or for a `Nop` the view or
    /// parameter it names.
    out: Desc,
    /// Full physical spans of slots dead after this step (poison targets).
    dies: Vec<Span>,
}

impl BoundStep {
    /// Every arena access of this step as `(spans read, span written)`, in
    /// execution order: each operand pack before the kernel that reads it.
    /// Views and parameters access nothing.
    fn effects(&self) -> Vec<(Vec<Span>, Span)> {
        let mut effects = Vec::new();
        let mut pack = |p: &PackedOperand| {
            if p.packed {
                effects.push((vec![p.src.range], p.dense.range));
            }
            p.dense.range
        };
        let reads = match &self.op {
            BoundOp::Nop => return effects,
            BoundOp::Load(_) => vec![],
            BoundOp::Materialize { src } | BoundOp::Map { src, .. } => vec![src.range],
            BoundOp::Zip { a, b, .. } => vec![a.range, b.range],
            BoundOp::MatMul { a, b, .. } => vec![a.range, pack(b)],
            BoundOp::Softmax { src, .. } | BoundOp::Reduce { src, .. } => vec![pack(src)],
            BoundOp::Concat { parts, .. } => parts.iter().map(&mut pack).collect(),
            BoundOp::GatherRows { table, .. } => vec![table.range],
        };
        effects.push((reads, self.out.range));
        effects
    }
}

/// A [`CompiledModel`] laid out for one concrete batch size: the arena is
/// allocated, every operand's offset and strides are resolved, and
/// [`BoundModel::run`] is a straight walk over the step list.
pub struct BoundModel {
    arena: Vec<f32>,
    steps: Vec<BoundStep>,
    pred: Desc,
    params_end: usize,
    /// End of the pooled-slot segment (scratch begins here). The shadow
    /// checker uses it to tell slot writes (allocation events, must hit
    /// non-live storage) from scratch writes (freely reused every step).
    slots_end: usize,
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

        for (step, lowered) in sched.steps.iter().zip(&self.kernels) {
            let node = &self.plan.tape.nodes()[step.node];
            let shape = eval_shape(&node.shape, b);
            let inputs: Vec<Desc> = node
                .inputs
                .iter()
                .map(|&PlanVar(i)| descs[i].clone().expect("input scheduled before use"))
                .collect();
            let mut scratch = slots_end;
            // `d` as a kernel operand, packed into scratch unless the
            // kernel can read it in place
            let mut pack = |d: &Desc, in_place: bool| -> PackedOperand {
                let dense = if in_place {
                    d.clone()
                } else {
                    let dense = Desc::dense(d.shape.clone(), scratch);
                    scratch = dense.range.1;
                    dense
                };
                PackedOperand { src: d.clone(), dense, packed: !in_place }
            };

            // a view or a parameter names its value; every other kernel
            // writes a fresh one into the step's slot
            let (view, op) = match lowered {
                Kernel::Param(k) => {
                    let (start, end) = self.param_ranges[*k];
                    debug_assert_eq!(end - start, numel(&shape));
                    (Some(Desc::dense(shape.clone(), start)), BoundOp::Nop)
                }
                Kernel::Permute(axes) => {
                    let src = &inputs[0];
                    let strides: Vec<usize> = axes.iter().map(|&a| src.strides[a]).collect();
                    debug_assert_eq!(
                        shape,
                        axes.iter().map(|&a| src.shape[a]).collect::<Vec<_>>()
                    );
                    (Some(src.view(shape.clone(), strides, src.offset)), BoundOp::Nop)
                }
                Kernel::Slice { axis, start } => {
                    let src = &inputs[0];
                    let offset = src.offset + start * src.strides[*axis];
                    (Some(src.view(shape.clone(), src.strides.clone(), offset)), BoundOp::Nop)
                }
                Kernel::Reshape => {
                    let src = &inputs[0];
                    match view_strides(&src.shape, &src.strides, &shape) {
                        Some(strides) => {
                            (Some(src.view(shape.clone(), strides, src.offset)), BoundOp::Nop)
                        }
                        None => (None, BoundOp::Materialize { src: src.clone() }),
                    }
                }
                Kernel::Load(source) => (None, BoundOp::Load(*source)),
                Kernel::Map(f) => (None, BoundOp::Map { src: inputs[0].clone(), f: *f }),
                Kernel::Zip(f) => {
                    let (a, b) = (inputs[0].clone(), inputs[1].clone());
                    (None, BoundOp::Zip { a, b, f: *f })
                }
                Kernel::MatMul => {
                    // the tiled kernel reads the lhs through its strides;
                    // the rhs packs only when its rows are not unit-stride
                    // (the attention K-transpose) — everything else is read
                    // in place
                    let rhs = &inputs[1];
                    let b = pack(rhs, kernel::matmul_rows_dense(&rhs.shape, &rhs.strides));
                    (None, BoundOp::MatMul { a: inputs[0].clone(), b })
                }
                Kernel::Softmax { log } => {
                    let width = *shape.last().expect("softmax on a scalar");
                    let src = pack(&inputs[0], inputs[0].is_contiguous());
                    (None, BoundOp::Softmax { src, width, log: *log })
                }
                Kernel::Reduce { axis, f } => {
                    let src = pack(&inputs[0], inputs[0].is_contiguous());
                    (None, BoundOp::Reduce { src, axis: *axis, f: *f })
                }
                Kernel::Concat { axis } => {
                    let parts = inputs.iter().map(|d| pack(d, d.is_contiguous())).collect();
                    let outer: usize = shape[..*axis].iter().product();
                    let inner: usize = shape[axis + 1..].iter().product();
                    (None, BoundOp::Concat { parts, axis: *axis, outer, inner })
                }
                Kernel::GatherRows { channel } => {
                    let table = inputs[0].clone();
                    debug_assert_eq!(table.shape.len(), 2, "embedding table must be rank 2");
                    (None, BoundOp::GatherRows { table, channel: *channel })
                }
            };
            let out = view.unwrap_or_else(|| match step.storage {
                Storage::Slot(id) | Storage::ViewOrSlot(id) => Desc::dense(shape, slot_span[id].0),
                ref other => panic!("node {} stored as {other:?} owns no slot", step.node),
            });
            scratch_peak = scratch_peak.max(scratch - slots_end);
            descs[step.node] = Some(out.clone());
            steps.push(BoundStep {
                op,
                out,
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
        let (data, offset) = if d.range.1 <= self.left.len() {
            (self.left, d.offset)
        } else {
            assert!(
                d.range.0 >= self.right_base,
                "executor aliasing: input span {:?} overlaps the output",
                d.range
            );
            (self.right, d.offset - self.right_base)
        };
        ViewRef { data, offset, shape: &d.shape, strides: &d.strides }
    }

    fn dense<'s>(&'s self, d: &'s Desc) -> &'s [f32] {
        debug_assert!(d.is_contiguous(), "dense() on strided desc {d:?}");
        let v = self.view(d);
        &v.data[v.offset..v.offset + numel(&d.shape)]
    }
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
        for step in &self.steps {
            let dst = &step.out;
            match &step.op {
                BoundOp::Nop => {}
                BoundOp::Load(source) => {
                    let src = match source {
                        Source::X => &batch.x,
                        Source::TimeFeats => &batch.time_feats,
                        Source::CovNumerical => batch
                            .cov_numerical
                            .as_ref()
                            .expect("compiled for explicit covariates; batch has none"),
                    };
                    assert_eq!(
                        src.shape(),
                        &dst.shape[..],
                        "batch {source:?} shape does not match the compiled plan"
                    );
                    write_out(arena, dst.range, |_, out| kernel::gather_into(src.view_ref(), out));
                }
                BoundOp::Materialize { src } => {
                    write_out(arena, dst.range, |r, out| kernel::gather_into(r.view(src), out));
                }
                BoundOp::Map { src, f } => {
                    write_out(arena, dst.range, |r, out| kernel::unary_into(r.view(src), out, *f));
                }
                BoundOp::Zip { a, b, f } => {
                    write_out(arena, dst.range, |r, out| {
                        kernel::binary_into(r.view(a), r.view(b), &dst.shape, out, *f)
                    });
                }
                BoundOp::MatMul { a, b } => {
                    pack_operand(arena, b);
                    write_out(arena, dst.range, |r, out| {
                        kernel::matmul_packed_into(r.view(a), r.view(&b.dense), out)
                    });
                }
                BoundOp::Softmax { src, width, log } => {
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
                BoundOp::Reduce { src, axis, f } => {
                    pack_operand(arena, src);
                    write_out(arena, dst.range, |r, out| {
                        let data = r.dense(&src.dense);
                        kernel::axis_reduce_into(data, &src.dense.shape, *axis, *f, out)
                    });
                }
                BoundOp::Concat { parts, axis, outer, inner } => {
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
                BoundOp::GatherRows { table, channel } => {
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
                for &(s, e) in &step.dies {
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
        for step in &self.steps {
            for (reads, w) in step.effects() {
                for r in reads {
                    assert!(r.1 <= w.0 || w.1 <= r.0, "write span {w:?} aliases read span {r:?}");
                }
            }
        }
    }
}

/// Per-element arena state tracked by the dynamic shadow-writes checker.
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

impl BoundModel {
    /// Dynamic shadow-writes checker: replay the bound step list over a
    /// per-element shadow arena — `Undef | Live | Dead` — and validate at
    /// this concrete `B` exactly the claims `lip_analyze::verify_schedule`
    /// proves symbolically for all `B`:
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

        for (k, step) in self.steps.iter().enumerate() {
            for (reads, (ws, we)) in step.effects() {
                for (s, e) in reads {
                    if let Some(i) = (s..e).find(|&i| shadow[i] != Shadow::Live) {
                        violations.push(format!(
                            "step {k}: reads [{s}, {e}) but element {i} is {:?}",
                            shadow[i]
                        ));
                    }
                    if s < we && ws < e {
                        violations.push(format!(
                            "step {k}: read span [{s}, {e}) overlaps write span [{ws}, {we})"
                        ));
                    }
                }
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

            // Mark dying spans dead. No double-free rule here: a pooled span
            // recycled between two view-only `Reshape` owners is freed twice
            // without an intervening write, which is legitimate — double-free
            // detection needs slot identity and generations, and lives in the
            // static verifier (`lip_analyze::verify_schedule`).
            for &(s, e) in &step.dies {
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
