//! # lip-baselines
//!
//! The comparison models of the LiPFormer evaluation (paper §IV-A3 and
//! Table XII), reimplemented on this workspace's tensor/autograd substrate so
//! every accuracy and efficiency comparison is apples-to-apples:
//!
//! | Model | Family | Faithfulness notes |
//! |---|---|---|
//! | [`DLinear`] | linear | moving-average trend/seasonal decomposition + two linear heads (exact) |
//! | [`PatchTst`] | patch Transformer | RevIN, patching, learned PE, pre-LN encoder stack (exact at reduced width) |
//! | [`VanillaTransformer`] | point-wise Transformer | sinusoidal PE, post-LN encoder, O(T²) attention (exact) |
//! | [`Tide`] | dense MLP | residual encoder/decoder + temporal decoder with future covariates |
//! | [`ITransformer`] | inverted Transformer | variate tokens, attention across channels |
//! | [`TimeMixer`] | MLP mixer | multi-scale decomposable mixing, per-scale predictors (simplified) |
//! | [`Fgnn`] | spectral graph | frequency-domain channel mixing via explicit DFT matrices (simplified FourierGNN) |
//! | [`Informer`] | efficient Transformer | conv distillation between layers; dense attention stands in for ProbSparse (documented) |
//! | [`Autoformer`] | decomposition Transformer | series-decomposition blocks around attention; dense attention stands in for auto-correlation (documented) |
//!
//! All models implement [`lipformer::Forecaster`], train under the same
//! [`lipformer::Trainer`], and accept the same batches.

#![forbid(unsafe_code)]

pub mod autoformer;
pub mod common;
pub mod dlinear;
pub mod fgnn;
pub mod informer;
pub mod itransformer;
pub mod patchtst;
pub mod tide;
pub mod timemixer;
pub mod transformer;

pub use autoformer::Autoformer;
pub use dlinear::DLinear;
pub use fgnn::Fgnn;
pub use informer::Informer;
pub use itransformer::ITransformer;
pub use patchtst::PatchTst;
pub use tide::Tide;
pub use timemixer::TimeMixer;
pub use transformer::VanillaTransformer;
