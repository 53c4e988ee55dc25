//! `lip-analyze` — static analysis for recorded LiPFormer graphs.
//!
//! Three layers, each usable on its own:
//!
//! * **Symbolic shape inference** ([`sym`], [`rules`], [`plan`]): shape
//!   transfer functions for every tape op over dimensions affine in a
//!   symbolic batch size `B`, and a planner that lifts the entire
//!   LiPFormer forward + loss and contrastive graphs from two recordings of
//!   the model itself, checked for every `B` by the same rules, yielding
//!   the shape and MAC plan (a polynomial in `B`). Inconsistent
//!   configurations are rejected by [`validate_config`] before any model is
//!   built.
//! * **Tape validation and lints** ([`infer`], [`lint`]): re-derive every
//!   recorded node's shape and the MAC total from the rules and diff them
//!   against the tape, then hunt structural smells — dead parameters,
//!   detached subgraphs, silent rank-promoting broadcasts, reused dropout
//!   masks.
//! * **The harness** ([`harness`]): one call that validates the
//!   configuration, lifts both plans, records (with the NaN/Inf sanitizer
//!   armed), validates and lints — the engine behind the `lip-analyze`
//!   binary and the `scripts/verify.sh` gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod infer;
pub mod lint;
pub mod plan;
pub mod rules;
pub mod schedule;
pub mod sym;
pub mod verify;

pub use harness::{check_model, synthetic_batch, CheckReport};
pub use infer::{validate_graph, TapeSummary, Violation};
pub use lint::{lint_graphs, LintFinding, LintKind};
pub use plan::{
    plan_contrastive, plan_forward_loss, validate_config, ContrastivePlan, ForwardPlan,
    NodeAttr, PlanError, PlanVar, SymNode, SymTape,
};
pub use schedule::{InferenceSchedule, Step, Storage};
pub use sym::{eval_shape, fixed_shape, shape_to_string, SymDim, SymPoly, SymShape};
pub use verify::{
    audit_kernel_source, check_chunk_ranges, verify_partition_bounded, verify_partition_symbolic,
    verify_schedule, CheckClass, VerifyFinding,
};
