//! Compilation: lifted plan → verified, lowered, parameter-laden
//! [`CompiledModel`].
//!
//! The plan is lifted from the very model being compiled
//! (`lip_analyze::plan_forward_loss` records it at `B = 1` and `B = 2` and
//! checks the lift for every `B`), so the executor applies exactly the
//! scalars, axes, slice bounds and gather channels the model recorded.
//! Compilation then schedules the plan, proves the schedule sound
//! statically, lowers every step once to a typed `Kernel` (an op it
//! cannot lower is a [`CompileError::Unsupported`]), and packs the model's
//! parameters in step order.

use lip_analyze::{
    plan_forward_loss, verify_schedule, InferenceSchedule, NodeAttr, PlanError, PlanVar, Step,
    Storage,
};
use lip_data::CovariateSpec;
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig};

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

/// The batch tensor a `Load` step copies into the arena. The covariate
/// leaf reads explicit covariates or implicit temporal features
/// (`WeakEnriching::covariate_input`), fixed by the spec at lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    X,
    TimeFeats,
    CovNumerical,
}

/// A unary elementwise function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MapFn {
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

/// A broadcasting binary function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZipFn {
    Add,
    Sub,
    Mul,
    Div,
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
    Map(MapFn),
    Zip(ZipFn),
    MatMul,
    Softmax { log: bool },
    Reduce { axis: usize, mean: bool },
    Concat { axis: usize },
    /// Embedding lookup for categorical covariate channel `channel`.
    GatherRows { channel: usize },
}

fn map_fn(op: &str, attr: &NodeAttr) -> Option<MapFn> {
    Some(match (op, attr) {
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
        _ => return None,
    })
}

/// Lower one schedule step: the only place the executor reads an op name
/// or a `NodeAttr`. `explicit` picks the covariate leaf's source;
/// `gathers` counts the `GatherRows` steps lowered so far, which are the
/// categorical channels in tape order.
pub(crate) fn lower(
    step: &Step,
    explicit: bool,
    gathers: &mut usize,
) -> Result<Kernel, CompileError> {
    Ok(match (step.op, &step.attr, step.storage) {
        ("Param", _, Storage::Param(k)) => Kernel::Param(k),
        ("Leaf", NodeAttr::Label("x"), _) => Kernel::Load(Source::X),
        ("Leaf", NodeAttr::Label("covariate"), _) if explicit => Kernel::Load(Source::CovNumerical),
        ("Leaf", NodeAttr::Label("covariate"), _) => Kernel::Load(Source::TimeFeats),
        ("Permute", NodeAttr::Axes(axes), _) => Kernel::Permute(axes.clone()),
        ("SliceAxis", &NodeAttr::Slice { axis, start, .. }, _) => Kernel::Slice { axis, start },
        ("Reshape", ..) => Kernel::Reshape,
        ("Add", ..) => Kernel::Zip(ZipFn::Add),
        ("Sub", ..) => Kernel::Zip(ZipFn::Sub),
        ("Mul", ..) => Kernel::Zip(ZipFn::Mul),
        ("Div", ..) => Kernel::Zip(ZipFn::Div),
        ("MatMul", ..) => Kernel::MatMul,
        ("Softmax", ..) => Kernel::Softmax { log: false },
        ("LogSoftmax", ..) => Kernel::Softmax { log: true },
        ("SumAxis", &NodeAttr::Axis(axis), _) => Kernel::Reduce { axis, mean: false },
        ("MeanAxis", &NodeAttr::Axis(axis), _) => Kernel::Reduce { axis, mean: true },
        ("Concat", &NodeAttr::Axis(axis), _) => Kernel::Concat { axis },
        ("GatherRows", ..) => {
            *gathers += 1;
            Kernel::GatherRows { channel: *gathers - 1 }
        }
        (op, attr, storage) => Kernel::Map(map_fn(op, attr).ok_or_else(|| {
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
    pub(crate) schedule: InferenceSchedule,
    /// Each schedule step, lowered.
    pub(crate) kernels: Vec<Kernel>,
    /// Parameter segment of the arena, packed in step order.
    pub(crate) params: Vec<f32>,
    /// Element span of each parameter in the packed segment.
    pub(crate) param_ranges: Vec<(usize, usize)>,
    config: LiPFormerConfig,
}

impl CompiledModel {
    /// The configuration this program was compiled from.
    pub fn config(&self) -> &LiPFormerConfig {
        &self.config
    }

    /// The liveness schedule driving the arena layout.
    pub fn schedule(&self) -> &InferenceSchedule {
        &self.schedule
    }

    /// Elements in the packed parameter segment.
    pub fn param_elems(&self) -> usize {
        self.params.len()
    }
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
    let config = model.config().clone();
    let plan = plan_forward_loss(model, spec, false)?;
    let schedule = InferenceSchedule::build(&plan)?;

    // Static verification: prove def-before-use, slot liveness and symbolic
    // arena bounds (all B >= 1) before trusting the schedule with an arena.
    // A bad scheduler change is a typed error here, not a runtime abort in
    // lip-serve.
    let findings = verify_schedule(&plan, &schedule);
    if !findings.is_empty() {
        return Err(CompileError::Invariant(
            findings.iter().map(|f| f.to_string()).collect(),
        ));
    }

    // Lower every step once, and pack the parameters in step (= tape)
    // order: the plan names the model parameter behind every Param node
    // the schedule references.
    let mut gathers = 0;
    let mut kernels = Vec::with_capacity(schedule.steps.len());
    let mut params = Vec::new();
    let mut param_ranges = Vec::with_capacity(schedule.params);
    for step in &schedule.steps {
        kernels.push(lower(step, spec.has_explicit(), &mut gathers)?);
        if let Storage::Param(k) = step.storage {
            if k != param_ranges.len() {
                return Err(CompileError::Invariant(vec![format!(
                    "[arena-bounds] parameter {k} packed out of step order (expected {})",
                    param_ranges.len()
                )]));
            }
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
        schedule,
        kernels,
        params,
        param_ranges,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(op: &'static str, attr: NodeAttr, storage: Storage) -> Step {
        let (shape, inputs, dies_after) = (vec![], vec![], vec![]);
        Step { node: 7, op, shape, inputs, attr, storage, dies_after }
    }

    #[test]
    fn unlowerable_steps_are_unsupported_naming_op_and_node() {
        for (step, op) in [
            (step("Dropout", NodeAttr::None, Storage::Slot(0)), "Dropout"),
            (step("Permute", NodeAttr::None, Storage::View), "Permute"),
            (step("Param", NodeAttr::None, Storage::Slot(0)), "Param"),
            (step("Leaf", NodeAttr::Label("y"), Storage::Slot(0)), "Leaf"),
        ] {
            match lower(&step, false, &mut 0) {
                Err(CompileError::Unsupported(m)) => {
                    assert!(m.contains(op) && m.contains("node 7"), "{m}")
                }
                other => panic!("{op}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowering_fixes_leaf_sources_post_chains_and_gather_channels() {
        let covariate = step("Leaf", NodeAttr::Label("covariate"), Storage::Slot(0));
        let lowered = |step: &Step, explicit| lower(step, explicit, &mut 0).unwrap();
        assert_eq!(lowered(&covariate, false), Kernel::Load(Source::TimeFeats));
        assert_eq!(lowered(&covariate, true), Kernel::Load(Source::CovNumerical));
        // the attention scale after a MatMul is a step of its own
        let scale = step("MulScalar", NodeAttr::Scalar(0.5), Storage::Slot(0));
        assert_eq!(lowered(&scale, false), Kernel::Map(MapFn::MulScalar(0.5)));
        let (mut gathers, gather) = (0, step("GatherRows", NodeAttr::None, Storage::Slot(0)));
        let channels: Vec<Kernel> =
            (0..2).map(|_| lower(&gather, true, &mut gathers).unwrap()).collect();
        let expect = [Kernel::GatherRows { channel: 0 }, Kernel::GatherRows { channel: 1 }];
        assert_eq!(channels, expect);
    }
}
