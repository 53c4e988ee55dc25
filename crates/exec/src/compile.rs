//! Compilation: lifted plan → verified, parameter-laden [`CompiledModel`].
//!
//! The plan is lifted from the very model being compiled
//! (`lip_analyze::plan_forward_loss` records it at `B = 1` and `B = 2` and
//! checks the lift for every `B`), so the executor applies exactly the
//! scalars, axes, slice bounds and gather channels the model recorded.
//! Compilation then schedules the plan, proves the schedule sound
//! statically, rejects any op the executor cannot lower, and packs the
//! model's parameters in step order.

use lip_analyze::{
    plan_forward_loss, verify_schedule, InferenceSchedule, NodeAttr, PlanError, PlanVar, Storage,
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

/// Ops the executor can lower. Everything the inference schedule can emit
/// must appear here; anything else is rejected at compile time, not at run
/// time.
const SUPPORTED: &[&str] = &[
    "Leaf", "Param", "Add", "Sub", "Mul", "Div", "AddScalar", "MulScalar", "Neg", "MatMul",
    "Permute", "Reshape", "SliceAxis", "Concat", "GatherRows", "Softmax", "LogSoftmax", "Relu",
    "Gelu", "Sigmoid", "Tanh", "Sqrt", "Exp", "Ln", "Square", "Abs", "SumAxis", "MeanAxis",
];

/// A verified inference program plus the parameter data it closes over.
/// Shapes stay symbolic in the batch size: call [`CompiledModel::bind`] to
/// lay out the arena for a concrete `B`.
pub struct CompiledModel {
    pub(crate) schedule: InferenceSchedule,
    /// Parameter segment of the arena, packed in step order.
    pub(crate) params: Vec<f32>,
    /// Element span of each parameter in the packed segment.
    pub(crate) param_ranges: Vec<(usize, usize)>,
    /// Whether the covariate leaf reads explicit covariates or implicit
    /// temporal features at run time (`WeakEnriching::covariate_input`).
    pub(crate) explicit: bool,
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
/// spec the model was constructed with). Elementwise chains are fused (see
/// `lip_analyze::schedule`); use [`compile_inference_unfused`] to get the
/// one-pass-per-op program for differential testing.
pub fn compile_inference(
    model: &LiPFormer,
    spec: &CovariateSpec,
) -> Result<CompiledModel, CompileError> {
    compile_with(model, spec, true)
}

/// [`compile_inference`] with elementwise fusion disabled — every scheduled
/// op runs as its own arena pass. Exists so tests can prove fused execution
/// byte-identical to the unfused program.
pub fn compile_inference_unfused(
    model: &LiPFormer,
    spec: &CovariateSpec,
) -> Result<CompiledModel, CompileError> {
    compile_with(model, spec, false)
}

fn compile_with(
    model: &LiPFormer,
    spec: &CovariateSpec,
    fuse: bool,
) -> Result<CompiledModel, CompileError> {
    if !model.has_enriching() {
        return Err(CompileError::Unsupported(
            "model has no enriching module; the executor runs the covariate guide".into(),
        ));
    }
    let config = model.config().clone();
    let plan = plan_forward_loss(model, spec, false)?;
    let schedule = if fuse {
        InferenceSchedule::build(&plan)?
    } else {
        InferenceSchedule::build_unfused(&plan)?
    };

    // Static verification: prove def-before-use, slot liveness, symbolic
    // arena bounds (all B >= 1), and fusion legality before trusting the
    // schedule with an arena. A bad scheduler change is a typed error here,
    // not a runtime abort in lip-serve.
    let findings = verify_schedule(&plan, &schedule);
    if !findings.is_empty() {
        return Err(CompileError::Invariant(
            findings.iter().map(|f| f.to_string()).collect(),
        ));
    }

    for step in &schedule.steps {
        if !SUPPORTED.contains(&step.op) {
            return Err(CompileError::Unsupported(format!(
                "op {} at node {} has no executor lowering",
                step.op, step.node
            )));
        }
        for f in &step.fused {
            if !SUPPORTED.contains(&f.op) {
                return Err(CompileError::Unsupported(format!(
                    "fused stage {} at node {} has no executor lowering",
                    f.op, f.node
                )));
            }
        }
        if step.op == "Leaf" {
            match step.attr {
                NodeAttr::Label("x") | NodeAttr::Label("covariate") => {}
                ref other => {
                    return Err(CompileError::Unsupported(format!(
                        "leaf at node {} has no runtime source ({other:?})",
                        step.node
                    )));
                }
            }
        }
    }

    // Parameters, packed in step (= tape) order: the plan names the model
    // parameter behind every Param node the schedule references.
    let mut params = Vec::new();
    let mut param_ranges = Vec::with_capacity(schedule.params);
    for step in &schedule.steps {
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
        params,
        param_ranges,
        explicit: spec.has_explicit(),
        config,
    })
}
