//! The forward plan, lifted from the model's own tape.
//!
//! [`plan_forward_loss`] and [`plan_contrastive`] record the model on
//! synthetic batches of two consecutive sizes and lift the pair into one
//! plan whose every axis is affine in a symbolic batch size `B`:
//!
//! * the two recordings must agree on every node's op, wiring and
//!   attributes, so nothing but sizes depends on the batch;
//! * each dim is fitted as `per_batch·B + fixed` with non-negative
//!   coefficients, leaves are labelled by the batch tensor they alias, and
//!   every attribute the executor applies is read off the recorded op;
//! * the shared rule table ([`crate::infer`]) re-derives each lifted
//!   node's shape from its lifted inputs — checking the fit for every `B`
//!   without a third recording — and sums the MAC plan as a polynomial in
//!   `B`.
//!
//! The model is written once, in `lipformer`; the plan is whatever it
//! records. Configurations are checked first by [`validate_config`], so a
//! bad one is a typed error with the failing field named, not a panic in
//! the model constructor.

use lip_autograd::{Graph, Op, ParamId, ParamStore, Var};
use lip_data::window::Batch;
use lip_data::CovariateSpec;
use lipformer::analysis::forward_loss;
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig, WeaklySupervised};

use crate::harness::synthetic_batch;
use crate::infer::{infer_node, recorded_sizes};
use crate::sym::{shape_to_string, SymDim, SymPoly, SymShape};

/// Handle to a node of a [`SymTape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanVar(pub usize);

/// One planned node: the op the runtime will record, its symbolic shape,
/// its tape inputs, and whatever compile-time attribute the op carries —
/// together enough for `lip-exec` to execute the plan without a tape.
#[derive(Debug, Clone)]
pub struct SymNode {
    /// Op variant name, exactly as `lip_autograd::Op::name` reports it.
    pub op: &'static str,
    /// Symbolic output shape.
    pub shape: SymShape,
    /// Tape inputs, in the operand order the runtime op uses.
    pub inputs: Vec<PlanVar>,
    /// Compile-time operand the op closes over (scalar, axes, …).
    pub attr: NodeAttr,
}

/// The compile-time attribute of a planned node: everything an executor
/// needs beyond inputs and shapes, read off the recorded `Op` (scalars
/// bit for bit), plus the batch tensor a leaf aliases.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeAttr {
    /// Nothing beyond inputs and the output shape.
    None,
    /// `AddScalar` / `MulScalar` immediate — bit-exact as the runtime applies it.
    Scalar(f32),
    /// `Permute` axis order.
    Axes(Vec<usize>),
    /// `SumAxis` / `MeanAxis` / `Concat` axis.
    Axis(usize),
    /// `SliceAxis` range.
    Slice {
        /// Axis being sliced.
        axis: usize,
        /// First kept index along `axis`.
        start: usize,
        /// One past the last kept index along `axis`.
        end: usize,
    },
    /// `Leaf` role: the batch field this input aliases (`"x"`,
    /// `"time_feats"`, `"cov_numerical"`, `"y"`, or the generic `"leaf"`).
    Label(&'static str),
    /// `GatherRows`: the categorical covariate channel it reads.
    Channel(usize),
}

/// A configuration error, or a model whose recordings do not lift to one
/// plan, annotated with where it was found.
#[derive(Debug, Clone)]
pub struct PlanError {
    /// `"config"` for [`validate_config`], `"lift"` for the trace lift.
    pub stage: String,
    /// What went wrong.
    pub message: String,
}

impl PlanError {
    pub(crate) fn new(stage: &str, message: impl Into<String>) -> Self {
        PlanError {
            stage: stage.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan rejected at {}: {}", self.stage, self.message)
    }
}

impl std::error::Error for PlanError {}

/// A lifted tape: the planned nodes in tape order, the MAC plan as a
/// polynomial in the batch size, and the parameter each `Param` node reads.
#[derive(Debug, Default)]
pub struct SymTape {
    nodes: Vec<SymNode>,
    macs: SymPoly,
    params: Vec<Option<ParamId>>,
}

impl SymTape {
    /// Planned nodes, in tape order.
    pub fn nodes(&self) -> &[SymNode] {
        &self.nodes
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been planned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The multiply–accumulate plan as a polynomial in the batch size.
    pub fn macs(&self) -> &SymPoly {
        &self.macs
    }

    /// Symbolic shape at `v`.
    pub fn shape(&self, v: PlanVar) -> &SymShape {
        &self.nodes[v.0].shape
    }

    /// The model parameter a `Param` node reads; `None` for any other op.
    pub fn param(&self, v: PlanVar) -> Option<ParamId> {
        self.params[v.0]
    }
}

/// [`LiPFormerConfig::check_for`] as a [`PlanError`] at stage `"config"`:
/// a caller holding only a configuration and a spec rejects what the model
/// constructor would assert on before any model is constructed.
pub fn validate_config(config: &LiPFormerConfig, spec: &CovariateSpec) -> Result<(), PlanError> {
    config.check_for(spec).map_err(|m| PlanError::new("config", m))
}

/// A planned forward + loss pass.
#[derive(Debug)]
pub struct ForwardPlan {
    /// The full symbolic tape.
    pub tape: SymTape,
    /// Prediction node `[B, L, c]`.
    pub pred: PlanVar,
    /// Scalar Smooth-L1 loss node.
    pub loss: PlanVar,
}

/// A planned contrastive pre-training pass.
#[derive(Debug)]
pub struct ContrastivePlan {
    /// The full symbolic tape.
    pub tape: SymTape,
    /// Scalar symmetric-CE loss node.
    pub loss: PlanVar,
}

/// Lift the complete `LiPFormer::forward` + Smooth-L1 graph (the tape
/// `Trainer::fit` differentiates) from `model`, recorded at `B = 1` and
/// `B = 2`. `spec` must be the covariate spec the model was built with;
/// `training` records the dropout nodes the trainer's tape has when
/// `dropout > 0`.
pub fn plan_forward_loss(
    model: &LiPFormer,
    spec: &CovariateSpec,
    training: bool,
) -> Result<ForwardPlan, PlanError> {
    let beta = model.config().smooth_l1_beta;
    let (tape, outputs) = trace(model, spec, 1, |g, batch| {
        let (pred, loss) = forward_loss(g, model, batch, beta, training, 0);
        vec![pred, loss]
    })?;
    Ok(ForwardPlan {
        tape,
        pred: outputs[0],
        loss: outputs[1],
    })
}

/// Lift the symmetric contrastive pre-training graph
/// (`WeakEnriching::contrastive_loss`) from `model`, recorded at `B = 2`
/// and `B = 3` — the loss needs at least two pairs.
pub fn plan_contrastive(
    model: &LiPFormer,
    spec: &CovariateSpec,
) -> Result<ContrastivePlan, PlanError> {
    if !model.has_enriching() {
        return Err(PlanError::new(
            "config",
            "the contrastive graph needs the weak-enriching module",
        ));
    }
    let (tape, outputs) = trace(model, spec, 2, |g, batch| {
        vec![model.contrastive_loss(g, batch)]
    })?;
    Ok(ContrastivePlan {
        tape,
        loss: outputs[0],
    })
}

/// Record one graph of `model` on synthetic batches of size `b` and `b + 1`
/// and lift the pair. `record` appends the graph and returns its output
/// nodes.
fn trace(
    model: &LiPFormer,
    spec: &CovariateSpec,
    b: usize,
    record: impl Fn(&mut Graph<'_>, &Batch) -> Vec<Var>,
) -> Result<(SymTape, Vec<PlanVar>), PlanError> {
    let config = model.config();
    validate_config(config, spec)?;
    let batches = [b, b + 1].map(|n| synthetic_batch(config, spec, n));
    // each tape is read and dropped before the next is recorded, so only
    // one recording's activations are alive at a time
    let [(lo, lo_out), (hi, hi_out)] = batches.each_ref().map(|batch| {
        let mut g = Graph::new(model.store());
        let outputs = record(&mut g, batch);
        (Recording::new(&g, batch), outputs)
    });
    if lo_out != hi_out {
        let m = format!(
            "the graph's outputs moved between B = {b} and B = {}",
            b + 1
        );
        return Err(PlanError::new("lift", m));
    }
    let tape = lift(model.store(), &[lo, hi])?;
    Ok((tape, lo_out.iter().map(|v| PlanVar(v.index())).collect()))
}

/// One recorded node as the lift reads it: its op, its output shape and,
/// for a leaf, the label of the batch tensor it aliases.
struct Traced {
    op: Op,
    shape: Vec<usize>,
    label: Option<&'static str>,
}

/// What the lift reads off one recording: its batch size, its nodes, its
/// MAC counter, and the categorical channels its `GatherRows` nodes must
/// read, in order: the k-th gather reads channel k, and its plan node
/// records that channel.
struct Recording<'a> {
    b: usize,
    nodes: Vec<Traced>,
    macs: u64,
    categorical: &'a [Vec<usize>],
}

impl<'a> Recording<'a> {
    /// Read `g`, recorded on `batch`, labelling each leaf by the batch field
    /// it aliases: whichever covariate input the model chose is on the tape.
    fn new(g: &Graph<'_>, batch: &'a Batch) -> Self {
        let mut sources = vec![
            (batch.x.storage_ptr(), "x"),
            (batch.y.storage_ptr(), "y"),
            (batch.time_feats.storage_ptr(), "time_feats"),
        ];
        sources.extend(batch.cov_numerical.as_ref().map(|t| (t.storage_ptr(), "cov_numerical")));
        let categorical = batch.cov_categorical.as_deref().unwrap_or(&[]);
        Self::read(g, batch.x.shape()[0], &sources, categorical)
    }

    /// Read `g`, recorded at batch size `b`; a leaf whose storage is one of
    /// `sources` gets that label, any other leaf `"leaf"`.
    fn read(
        g: &Graph<'_>,
        b: usize,
        sources: &[(usize, &'static str)],
        categorical: &'a [Vec<usize>],
    ) -> Self {
        let nodes = (0..g.len())
            .map(|i| {
                let op = g.op_at(i).clone();
                let label = matches!(op, Op::Leaf).then(|| {
                    let ptr = g.value(g.var(i)).storage_ptr();
                    sources
                        .iter()
                        .find(|&&(p, _)| p == ptr)
                        .map_or("leaf", |&(_, l)| l)
                });
                Traced {
                    op,
                    shape: g.shape_at(i).to_vec(),
                    label,
                }
            })
            .collect();
        Recording {
            b,
            nodes,
            macs: g.macs(),
            categorical,
        }
    }
}

/// Fit `d(B) = per_batch·B + fixed` through `d(b) = at_b` and
/// `d(b + 1) = next`; `None` when a coefficient would be negative.
fn lift_dim(at_b: usize, next: usize, b: usize) -> Option<SymDim> {
    let per_batch = next.checked_sub(at_b)?;
    let fixed = at_b.checked_sub(per_batch * b)?;
    Some(SymDim { per_batch, fixed })
}

fn lift_dims(at_b: &[usize], next: &[usize], b: usize) -> Result<SymShape, String> {
    let lifted: Option<SymShape> = at_b
        .iter()
        .zip(next)
        .map(|(&d, &n)| lift_dim(d, n, b))
        .collect();
    match lifted {
        Some(shape) if at_b.len() == next.len() => Ok(shape),
        _ => Err(format!(
            "{at_b:?} at B = {b} and {next:?} at B = {} have no affine lift with \
             non-negative coefficients",
            b + 1
        )),
    }
}

/// The compile-time attribute the executor reads off a recorded op.
fn node_attr(op: &Op) -> NodeAttr {
    match op {
        Op::AddScalar(_, s) | Op::MulScalar(_, s) => NodeAttr::Scalar(*s),
        Op::Permute(_, axes) => NodeAttr::Axes(axes.clone()),
        Op::SumAxis(_, axis) | Op::MeanAxis(_, axis) | Op::Concat(_, axis) => NodeAttr::Axis(*axis),
        Op::SliceAxis(_, axis, start, end) => NodeAttr::Slice {
            axis: *axis,
            start: *start,
            end: *end,
        },
        _ => NodeAttr::None,
    }
}

/// True when two recordings of one op agree on everything it records
/// besides its inputs and its batch-dependent sizes — scalars bit for bit.
fn same_attrs(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (Op::SmoothL1(_, _, x), Op::SmoothL1(_, _, y)) => x.to_bits() == y.to_bits(),
        (Op::Param(x), Op::Param(y)) => x == y,
        (Op::Unfold(_, x0, x1, x2), Op::Unfold(_, y0, y1, y2)) => (x0, x1, x2) == (y0, y1, y2),
        _ => match (node_attr(a), node_attr(b)) {
            (NodeAttr::Scalar(x), NodeAttr::Scalar(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        },
    }
}

/// Lift two recordings of one graph, at batch sizes `b` and `b + 1`, into
/// a [`SymTape`] (see the module docs for what is checked).
fn lift(store: &ParamStore, runs: &[Recording<'_>; 2]) -> Result<SymTape, PlanError> {
    let [lo, hi] = runs;
    let (b, n) = (lo.b, lo.nodes.len());
    if hi.nodes.len() != n {
        let m = format!(
            "{n} nodes recorded at B = {b} but {} at B = {}",
            hi.nodes.len(),
            hi.b
        );
        return Err(PlanError::new("lift", m));
    }
    let mut tape = SymTape {
        nodes: Vec::with_capacity(n),
        macs: SymPoly::zero(),
        params: Vec::with_capacity(n),
    };
    let mut gathers = 0usize;
    for (i, (at_lo, at_hi)) in lo.nodes.iter().zip(&hi.nodes).enumerate() {
        let (op, other) = (&at_lo.op, &at_hi.op);
        let name = op.name();
        let fail = |m: String| PlanError::new("lift", format!("node {i} ({name}): {m}"));
        if other.name() != name || op.inputs() != other.inputs() || !same_attrs(op, other) {
            return Err(fail(format!(
                "op, wiring or attributes differ at B = {}",
                hi.b
            )));
        }
        let shape = lift_dims(&at_lo.shape, &at_hi.shape, b).map_err(&fail)?;
        let sized = lift_dims(
            &recorded_sizes(op, &at_lo.shape),
            &recorded_sizes(other, &at_hi.shape),
            b,
        )
        .map_err(&fail)?;
        let nodes = &tape.nodes;
        let (derived, macs) =
            infer_node(op, &|v| nodes[v.index()].shape.clone(), &sized, store).map_err(&fail)?;
        if derived != shape {
            return Err(fail(format!(
                "the rules derive {} but the recordings lift to {}",
                shape_to_string(&derived),
                shape_to_string(&shape)
            )));
        }
        tape.macs.add_assign(&macs);
        let attr = match op {
            Op::Leaf => match (at_lo.label, at_hi.label) {
                (Some(label), Some(other)) if label == other => NodeAttr::Label(label),
                _ => {
                    return Err(fail(format!(
                        "aliases another batch tensor at B = {}",
                        hi.b
                    )))
                }
            },
            Op::GatherRows(..) => {
                // the executor feeds the k-th gather from categorical channel k
                for (run, recorded) in runs.iter().zip([op, other]) {
                    let channel = run.categorical.get(gathers);
                    if !matches!(recorded, Op::GatherRows(_, ix) if channel == Some(ix)) {
                        return Err(fail(format!(
                            "does not read categorical channel {gathers} at B = {}",
                            run.b
                        )));
                    }
                }
                gathers += 1;
                NodeAttr::Channel(gathers - 1)
            }
            _ => node_attr(op),
        };
        tape.params.push(match op {
            Op::Param(id) => Some(*id),
            _ => None,
        });
        tape.nodes.push(SymNode {
            op: name,
            shape,
            inputs: op.inputs().iter().map(|v| PlanVar(v.index())).collect(),
            attr,
        });
    }
    for run in runs {
        let planned = tape.macs.eval(run.b as u64);
        if planned != run.macs {
            let m = format!("MAC plan {} is {planned} at B = {}", tape.macs, run.b);
            return Err(PlanError::new(
                "lift",
                format!("{m}, the tape counted {}", run.macs),
            ));
        }
    }
    Ok(tape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::eval_shape;
    use lip_tensor::Tensor;
    use lipformer::{ExtractKind, ProjKind};

    fn implicit_spec() -> CovariateSpec {
        CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        }
    }

    fn plan(config: &LiPFormerConfig, spec: &CovariateSpec, training: bool) -> ForwardPlan {
        let model = LiPFormer::new(config.clone(), spec, 0);
        plan_forward_loss(&model, spec, training).unwrap()
    }

    #[test]
    fn forward_plan_shapes_and_scale() {
        let config = LiPFormerConfig::small(48, 24, 3);
        let plan = plan(&config, &implicit_spec(), false);
        assert_eq!(eval_shape(plan.tape.shape(plan.pred), 5), vec![5, 24, 3]);
        assert!(plan.tape.shape(plan.loss).is_empty(), "loss is scalar");
        // MACs grow linearly in B for the forward pass (no B² term without
        // the contrastive logits)
        let m1 = plan.tape.macs().eval(1);
        let m2 = plan.tape.macs().eval(2);
        assert_eq!(m2, 2 * m1, "forward MACs must be linear in batch size");
        assert!(m1 > 0);
    }

    #[test]
    fn contrastive_plan_is_quadratic_in_batch() {
        let config = LiPFormerConfig::small(48, 24, 2);
        let spec = implicit_spec();
        let model = LiPFormer::new(config, &spec, 0);
        let plan = plan_contrastive(&model, &spec).unwrap();
        assert!(plan.tape.shape(plan.loss).is_empty());
        let m2 = plan.tape.macs().eval(2);
        let m4 = plan.tape.macs().eval(4);
        // quadratic logits terms: doubling B more than doubles the cost
        assert!(
            m4 > 2 * m2,
            "contrastive MACs must be superlinear: {m2} vs {m4}"
        );
    }

    #[test]
    fn off_by_one_patch_len_rejected_statically() {
        let mut config = LiPFormerConfig::small(48, 24, 2);
        config.patch_len += 1; // 48 % 7 != 0
        let err = validate_config(&config, &implicit_spec()).unwrap_err();
        assert_eq!(err.stage, "config");
        assert!(err.message.contains("evenly divide"), "{}", err.message);
    }

    #[test]
    fn explicit_covariates_add_embedding_nodes() {
        let config = LiPFormerConfig::small(48, 24, 2);
        let spec = CovariateSpec {
            numerical: 9,
            cardinalities: vec![2],
            time_features: 4,
        };
        let plan = plan(&config, &spec, false);
        let ops: Vec<&str> = plan.tape.nodes().iter().map(|n| n.op).collect();
        assert!(ops.contains(&"GatherRows"), "embedding lookup planned");
        assert!(ops.contains(&"Concat"), "covariate concat planned");
    }

    #[test]
    fn training_mode_plans_dropout() {
        let config = LiPFormerConfig::small(48, 24, 2);
        let eval_plan = plan(&config, &implicit_spec(), false);
        let train_plan = plan(&config, &implicit_spec(), true);
        let dropouts =
            |p: &ForwardPlan| p.tape.nodes().iter().filter(|n| n.op == "Dropout").count();
        assert_eq!(dropouts(&eval_plan), 0);
        assert_eq!(dropouts(&train_plan), 2, "backbone has two dropout sites");
    }

    #[test]
    fn every_registered_composition_plans() {
        for (label, stages) in lipformer::registered_compositions() {
            let config = LiPFormerConfig::small(48, 24, 3).with_stages(stages);
            let model = LiPFormer::new(config, &implicit_spec(), 0);
            for training in [false, true] {
                let plan = plan_forward_loss(&model, &implicit_spec(), training)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    eval_shape(plan.tape.shape(plan.pred), 4),
                    vec![4, 24, 3],
                    "{label}"
                );
                assert!(plan.tape.shape(plan.loss).is_empty(), "{label}");
                let m1 = plan.tape.macs().eval(1);
                assert_eq!(plan.tape.macs().eval(2), 2 * m1, "{label}: linear in B");
            }
        }
    }

    #[test]
    fn transformer_extraction_plans_dropout_per_layer() {
        let config = LiPFormerConfig::small(48, 24, 2).with_stages(lipformer::StageSpec {
            representation: lipformer::ReprKind::MeanStd,
            extraction: ExtractKind::PatchTst,
            projection: ProjKind::FlattenLinear,
            depth: 2,
        });
        let eval_plan = plan(&config, &implicit_spec(), false);
        let train_plan = plan(&config, &implicit_spec(), true);
        let dropouts =
            |p: &ForwardPlan| p.tape.nodes().iter().filter(|n| n.op == "Dropout").count();
        assert_eq!(dropouts(&eval_plan), 0);
        assert_eq!(
            dropouts(&train_plan),
            4,
            "two dropout sites per encoder layer"
        );
        // the flatten head plans no horizon trim
        assert!(
            !eval_plan.tape.nodes().iter().any(|n| {
                n.op == "SliceAxis" && matches!(n.attr, NodeAttr::Slice { axis: 1, .. })
            }),
            "flatten head should not slice the horizon"
        );
    }

    #[test]
    fn zero_stage_depth_rejected_statically() {
        let mut config = LiPFormerConfig::small(48, 24, 2);
        config.stages.depth = 0;
        let err = validate_config(&config, &implicit_spec()).unwrap_err();
        assert_eq!(err.stage, "config");
        assert!(err.message.contains("depth"), "{}", err.message);
    }

    #[test]
    fn validate_and_validate_config_reject_the_same_configs() {
        // configurations that once passed `validate()` but failed here
        let mut headless = LiPFormerConfig::small(48, 24, 2);
        (headless.hidden, headless.heads) = (0, 0);
        let mut no_encoder = LiPFormerConfig::small(48, 24, 2);
        no_encoder.encoder_hidden = 0;
        for config in [headless, no_encoder] {
            let err = validate_config(&config, &implicit_spec()).unwrap_err();
            assert_eq!(err.stage, "config");
            let panic = std::panic::catch_unwind(|| config.validate()).unwrap_err();
            assert_eq!(panic.downcast_ref::<String>(), Some(&err.message));
        }
    }

    #[test]
    fn hostile_specs_rejected_statically() {
        let config = LiPFormerConfig::small(48, 24, 2);
        let no_channel = CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 0,
        };
        let zero_card = CovariateSpec {
            numerical: 2,
            cardinalities: vec![0],
            time_features: 4,
        };
        let categories_only = CovariateSpec {
            numerical: 0,
            cardinalities: vec![5],
            time_features: 4,
        };
        for spec in [&no_channel, &zero_card, &categories_only] {
            let err = validate_config(&config, spec).unwrap_err();
            assert_eq!(err.stage, "config", "{spec:?}: {err}");
        }
        let mut no_embed = config.clone();
        no_embed.categorical_embed = 0;
        let categorical = CovariateSpec {
            numerical: 2,
            cardinalities: vec![5],
            time_features: 4,
        };
        let err = validate_config(&no_embed, &categorical).unwrap_err();
        assert!(err.message.contains("categorical_embed"), "{err}");
        assert!(validate_config(&no_embed, &implicit_spec()).is_ok());
    }

    /// Lift a hand-built graph recorded by `record` at B = 1 and B = 2.
    fn lift_pair(record: impl Fn(&mut Graph<'_>, usize)) -> Result<SymTape, PlanError> {
        let store = ParamStore::new();
        let runs = [1, 2].map(|b| {
            let mut g = Graph::new(&store);
            record(&mut g, b);
            Recording::read(&g, b, &[], &[])
        });
        lift(&store, &runs)
    }

    fn leaf(g: &mut Graph<'_>, shape: &[usize]) -> Var {
        g.constant(Tensor::ones(shape))
    }

    #[test]
    fn lift_of_an_affine_graph_is_symbolic() {
        let tape = lift_pair(|g, b| {
            let x = leaf(g, &[b, 3]);
            let w = leaf(g, &[3, 4]);
            let y = g.matmul(x, w);
            g.add_scalar(y, 0.5);
        })
        .unwrap();
        assert_eq!(
            tape.nodes()[2].shape,
            vec![SymDim::batch(), SymDim::fixed(4)]
        );
        assert_eq!(tape.nodes()[3].attr, NodeAttr::Scalar(0.5));
        assert_eq!(tape.nodes()[0].attr, NodeAttr::Label("leaf"));
        assert_eq!(tape.macs().eval(7), 7 * 12);
    }

    #[test]
    fn lift_rejects_recordings_that_differ_in_op() {
        let err = lift_pair(|g, b| {
            let x = leaf(g, &[b, 3]);
            if b == 1 {
                g.relu(x);
            } else {
                g.exp(x);
            }
        })
        .unwrap_err();
        assert_eq!(err.stage, "lift");
        assert!(err.message.contains("node 1"), "{err}");
    }

    #[test]
    fn lift_rejects_recordings_that_differ_in_wiring() {
        let err = lift_pair(|g, b| {
            let x = leaf(g, &[b, 3]);
            let y = leaf(g, &[b, 3]);
            if b == 1 {
                g.sub(x, y);
            } else {
                g.sub(y, x);
            }
        })
        .unwrap_err();
        assert!(err.message.contains("node 2 (Sub)"), "{err}");
    }

    #[test]
    fn lift_rejects_recordings_that_differ_in_attribute() {
        let err = lift_pair(|g, b| {
            let x = leaf(g, &[b, 3]);
            g.add_scalar(x, b as f32);
        })
        .unwrap_err();
        assert!(err.message.contains("node 1 (AddScalar)"), "{err}");
    }

    #[test]
    fn lift_rejects_a_quadratic_dim() {
        // [B²]: 1 at B = 1, 4 at B = 2 — the affine fit needs fixed = -2
        let err = lift_pair(|g, b| {
            leaf(g, &[b * b]);
        })
        .unwrap_err();
        assert!(err.message.contains("no affine lift"), "{err}");
    }

    #[test]
    fn rule_table_rejects_a_lift_that_only_fits_two_batch_sizes() {
        // max(B, 2) lifts to the constant 2, and [2] + [B] broadcasts at
        // both recorded sizes — but not for B = 3, which the rules catch
        let err = lift_pair(|g, b| {
            let a = leaf(g, &[b.max(2)]);
            let c = leaf(g, &[b]);
            g.add(a, c);
        })
        .unwrap_err();
        assert!(err.message.contains("node 2 (Add)"), "{err}");
        assert!(err.message.contains("cannot broadcast"), "{err}");
    }
}
