//! Compilation: lifted plan → verified, lowered, parameter-laden
//! [`CompiledModel`].
//!
//! The plan is lifted from the very model being compiled
//! (`lip_analyze::plan_forward_loss` records it at `B = 1` and `B = 2` and
//! checks the lift for every `B`), so the executor applies exactly the
//! scalars, axes, slice bounds, leaf sources and gather channels the model
//! recorded. Compilation then schedules the plan, proves the schedule
//! sound statically, lowers every step once to a typed `Kernel` (an op it
//! cannot lower is a [`CompileError::Unsupported`]), and packs the model's
//! parameters in step order. Each step names its plan node, which holds
//! its op, attribute, shape and inputs; the compiled model keeps the plan.

use lip_analyze::{
    plan_forward_loss, verify_schedule, ForwardPlan, InferenceSchedule, NodeAttr, PlanError,
    PlanVar, Step, Storage, SymNode,
};
use lip_data::CovariateSpec;
use lip_tensor::kernel::{AxisReduce, Binary, Unary};
use lipformer::{Forecaster, LiPFormer};

/// Why a model could not be compiled.
#[derive(Debug)]
pub enum CompileError {
    /// The plan lift or the scheduler rejected the model.
    Plan(PlanError),
    /// The model or plan uses something the executor cannot lower.
    Unsupported(String),
    /// The static verifier (`lip_analyze::verify_schedule`) found the
    /// schedule unsound — each string is one `[class] message` finding.
    Invariant(Vec<String>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Plan(e) => write!(f, "compile: {e}"),
            CompileError::Unsupported(m) => write!(f, "compile: unsupported: {m}"),
            CompileError::Invariant(findings) => {
                write!(f, "compile: schedule failed static verification: {}", findings.join("; "))
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<PlanError> for CompileError {
    fn from(e: PlanError) -> Self {
        CompileError::Plan(e)
    }
}

/// The batch field a `Load` step copies into the arena: the one its plan
/// leaf aliases on the model's own tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    X,
    TimeFeats,
    CovNumerical,
}

/// What one schedule step runs, lowered once at compile time from its op
/// name and `NodeAttr`; `bind` matches only on this.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    /// Entry `k` of the parameter segment (a view, never written).
    Param(usize),
    Load(Source),
    Permute(Vec<usize>),
    Slice { axis: usize, start: usize },
    /// A view when the input's strides admit the shape, else a gather.
    Reshape,
    Map(Unary),
    Zip(Binary),
    MatMul,
    Softmax { log: bool },
    Reduce { axis: usize, f: AxisReduce },
    Concat { axis: usize },
    /// Embedding lookup for categorical covariate channel `channel`.
    GatherRows { channel: usize },
}

/// The kernel-table entry behind a unary op.
fn unary(op: &str, attr: &NodeAttr) -> Option<Unary> {
    Some(match (op, attr) {
        ("AddScalar", NodeAttr::Scalar(s)) => Unary::AddScalar(*s),
        ("MulScalar", NodeAttr::Scalar(s)) => Unary::MulScalar(*s),
        ("Neg", _) => Unary::Neg,
        ("Relu", _) => Unary::Relu,
        ("Gelu", _) => Unary::Gelu,
        ("Sigmoid", _) => Unary::Sigmoid,
        ("Tanh", _) => Unary::Tanh,
        ("Sqrt", _) => Unary::Sqrt,
        ("Exp", _) => Unary::Exp,
        ("Ln", _) => Unary::Ln,
        ("Square", _) => Unary::Square,
        ("Abs", _) => Unary::Abs,
        _ => return None,
    })
}

/// Lower one schedule step, whose op and attribute live on its plan
/// `node`: the only place the executor reads an op name or a `NodeAttr`,
/// and the one place it refuses an op it cannot run.
pub(crate) fn lower(node: &SymNode, step: &Step) -> Result<Kernel, CompileError> {
    Ok(match (node.op, &node.attr, step.storage) {
        ("Param", _, Storage::Param(k)) => Kernel::Param(k),
        ("Leaf", NodeAttr::Label("x"), _) => Kernel::Load(Source::X),
        ("Leaf", NodeAttr::Label("time_feats"), _) => Kernel::Load(Source::TimeFeats),
        ("Leaf", NodeAttr::Label("cov_numerical"), _) => Kernel::Load(Source::CovNumerical),
        ("Permute", NodeAttr::Axes(axes), _) => Kernel::Permute(axes.clone()),
        ("SliceAxis", &NodeAttr::Slice { axis, start, .. }, _) => Kernel::Slice { axis, start },
        ("Reshape", ..) => Kernel::Reshape,
        ("Add", ..) => Kernel::Zip(Binary::Add),
        ("Sub", ..) => Kernel::Zip(Binary::Sub),
        ("Mul", ..) => Kernel::Zip(Binary::Mul),
        ("Div", ..) => Kernel::Zip(Binary::Div),
        ("MatMul", ..) => Kernel::MatMul,
        ("Softmax", ..) => Kernel::Softmax { log: false },
        ("LogSoftmax", ..) => Kernel::Softmax { log: true },
        ("SumAxis", &NodeAttr::Axis(axis), _) => Kernel::Reduce { axis, f: AxisReduce::Sum },
        ("MeanAxis", &NodeAttr::Axis(axis), _) => Kernel::Reduce { axis, f: AxisReduce::Mean },
        ("Concat", &NodeAttr::Axis(axis), _) => Kernel::Concat { axis },
        ("GatherRows", &NodeAttr::Channel(channel), _) => Kernel::GatherRows { channel },
        (op, attr, storage) => Kernel::Map(unary(op, attr).ok_or_else(|| {
            CompileError::Unsupported(format!(
                "op {op} at node {} ({attr:?}, stored as {storage:?}) has no executor lowering",
                step.node
            ))
        })?),
    })
}

/// A verified inference program plus the parameter data it closes over.
/// Shapes stay symbolic in the batch size: call [`CompiledModel::bind`] to
/// lay out the arena for a concrete `B`.
pub struct CompiledModel {
    /// The lifted plan: each step's op, shape and inputs live on its node.
    pub(crate) plan: ForwardPlan,
    pub(crate) schedule: InferenceSchedule,
    /// Each schedule step, lowered.
    pub(crate) kernels: Vec<Kernel>,
    /// Parameter segment of the arena, packed in step order.
    pub(crate) params: Vec<f32>,
    /// Element span of each parameter in the packed segment.
    pub(crate) param_ranges: Vec<(usize, usize)>,
}

/// Compile `model` for tapeless inference under `spec` (the same covariate
/// spec the model was constructed with): one kernel pass per kept plan
/// node.
pub fn compile_inference(
    model: &LiPFormer,
    spec: &CovariateSpec,
) -> Result<CompiledModel, CompileError> {
    if !model.has_enriching() {
        return Err(CompileError::Unsupported(
            "model has no enriching module; the executor runs the covariate guide".into(),
        ));
    }
    let plan = plan_forward_loss(model, spec, false)?;
    let schedule = InferenceSchedule::build(&plan)?;

    // Static verification: prove def-before-use, slot liveness, symbolic
    // arena bounds (all B >= 1) and the parameter order before trusting the
    // schedule with an arena. A bad scheduler change is a typed error here,
    // not a runtime abort in lip-serve.
    let findings = verify_schedule(&plan, &schedule);
    if !findings.is_empty() {
        return Err(CompileError::Invariant(
            findings.iter().map(|f| f.to_string()).collect(),
        ));
    }

    // Lower every step once, and pack the parameters in step (= tape)
    // order: the plan names the model parameter behind every Param node
    // the schedule references.
    let mut kernels = Vec::with_capacity(schedule.steps.len());
    let mut params = Vec::new();
    let mut param_ranges = Vec::with_capacity(schedule.params);
    for step in &schedule.steps {
        kernels.push(lower(&plan.tape.nodes()[step.node], step)?);
        if let Storage::Param(_) = step.storage {
            let Some(id) = plan.tape.param(PlanVar(step.node)) else {
                return Err(CompileError::Invariant(vec![format!(
                    "[arena-bounds] node {} is packed as a parameter but is no Param node",
                    step.node
                )]));
            };
            let value = model.store().value(id).contiguous();
            let start = params.len();
            params.extend_from_slice(value.data());
            param_ranges.push((start, params.len()));
        }
    }

    Ok(CompiledModel {
        plan,
        schedule,
        kernels,
        params,
        param_ranges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(
        op: &'static str,
        attr: NodeAttr,
        storage: Storage,
    ) -> Result<Kernel, CompileError> {
        let node = SymNode { op, shape: vec![], inputs: vec![], attr };
        lower(&node, &Step { node: 7, storage, dies_after: vec![] })
    }

    #[test]
    fn unlowerable_steps_are_unsupported_naming_op_and_node() {
        for (op, attr, storage) in [
            ("Dropout", NodeAttr::None, Storage::Slot(0)),
            ("Permute", NodeAttr::None, Storage::View),
            ("Param", NodeAttr::None, Storage::Slot(0)),
            ("Leaf", NodeAttr::Label("y"), Storage::Slot(0)),
            ("GatherRows", NodeAttr::None, Storage::Slot(0)),
        ] {
            match lowered(op, attr, storage) {
                Err(CompileError::Unsupported(m)) => {
                    assert!(m.contains(op) && m.contains("node 7"), "{m}")
                }
                other => panic!("{op}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowering_fixes_leaf_sources_post_chains_and_gather_channels() {
        let lower_ok = |op, attr| lowered(op, attr, Storage::Slot(0)).unwrap();
        // a leaf loads the batch field the lift saw it alias
        assert_eq!(lower_ok("Leaf", NodeAttr::Label("x")), Kernel::Load(Source::X));
        let time_feats = NodeAttr::Label("time_feats");
        assert_eq!(lower_ok("Leaf", time_feats), Kernel::Load(Source::TimeFeats));
        let cov = NodeAttr::Label("cov_numerical");
        assert_eq!(lower_ok("Leaf", cov), Kernel::Load(Source::CovNumerical));
        // the attention scale after a MatMul is a step of its own
        let scale = lower_ok("MulScalar", NodeAttr::Scalar(0.5));
        assert_eq!(scale, Kernel::Map(Unary::MulScalar(0.5)));
        // a gather reads the channel its plan node records
        let gather = lower_ok("GatherRows", NodeAttr::Channel(1));
        assert_eq!(gather, Kernel::GatherRows { channel: 1 });
    }
}
