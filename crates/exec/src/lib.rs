//! # lip-exec
//!
//! A plan-compiled inference executor for LiPFormer: compile the forward
//! plan (`lip-analyze`, lifted from the model's own tape) once, then run
//! forward passes with **zero tape construction and zero refcount
//! traffic** — every intermediate lives in one flat `Vec<f32>` arena whose
//! layout is derived from the schedule's liveness analysis.
//!
//! The pipeline is:
//!
//! 1. [`compile_inference`] — lift the forward graph from two recordings of
//!    the very model being compiled (checked for every `B` by the shared
//!    shape rules), schedule it (DCE, liveness, slot pooling), verify the
//!    schedule statically, lower each step once to a typed kernel (an op
//!    with no lowering is a [`CompileError::Unsupported`]), and pack the
//!    model's parameters into the arena's parameter segment. The result is
//!    a [`CompiledModel`] whose shapes are affine in the batch size `B`:
//!    one compilation serves every `B`. Each schedule step names its plan
//!    node, which alone holds the step's op, shape, inputs and attribute;
//!    the compiled model keeps the plan.
//! 2. [`CompiledModel::bind`] — evaluate the symbolic arena layout at a
//!    concrete `B`: size the single allocation, resolve every typed
//!    kernel's views, strides, scratch packing and liveness spans into a
//!    [`BoundModel`]. Bind reads no op name.
//! 3. [`BoundModel::run`] — execute the step list against a batch. Kernels
//!    are the *same* `lip_tensor::kernel` entry points the tape uses, and
//!    elementwise and axis-mean steps apply its one elementwise table, as
//!    the `Tensor` methods do, so outputs are byte-identical to
//!    `Graph`-recorded inference at any `lip-par` thread budget by
//!    construction (the differential tests enforce this).
//!
//! The arena-safety contract — a buffer is never read after the schedule
//! declares it dead — is tested by poisoning dead slots after every step
//! ([`BoundModel::run_with_poison`]) and asserting unchanged output bytes.
//!
//! Every kept plan node is one step and one kernel pass, so every
//! intermediate the tape would hold is a value in the arena. There is no
//! elementwise fusion: folding attention's `MatMul → MulScalar` scale into
//! the matmul's store loop left the arena the same size and measured slower
//! than running the scale as its own pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod run;

pub use compile::{compile_inference, CompileError, CompiledModel};
pub use run::BoundModel;
