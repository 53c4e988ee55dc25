//! # lipformer
//!
//! A from-scratch Rust reproduction of **LiPFormer** — *Towards Lightweight
//! Time Series Forecasting: a Patch-wise Transformer with Weak Data
//! Enriching* (ICDE 2025).
//!
//! The model has two halves:
//!
//! 1. **Base Predictor** (paper §III-C1) — a lightweight patch-wise
//!    Transformer that *eliminates* Positional Encoding, Layer Normalization
//!    and Feed-Forward Networks, replacing them with:
//!    * instance (last-value) normalization against distribution shift,
//!    * channel-independent patching,
//!    * **Cross-Patch attention** over lagged global trend sequences,
//!    * **Inter-Patch attention** over patch tokens,
//!    * two single-layer MLP heads.
//! 2. **Weak data enriching** (paper §III-B, §III-C2) — a CLIP-style dual
//!    encoder (Covariate Encoder + Target Encoder) pre-trained with a
//!    symmetric contrastive loss to align future weak labels (explicit
//!    weather/grid forecasts or implicit temporal features) with target
//!    sequences; at prediction time the frozen Covariate Encoder guides the
//!    Base Predictor through a learned Vector Mapping (Eq. 8).
//!
//! ## Quick start
//!
//! ```
//! use lip_data::{generate, DatasetName, GeneratorConfig};
//! use lip_data::pipeline::prepare;
//! use lipformer::{LiPFormer, LiPFormerConfig, TrainConfig, Trainer};
//!
//! let ds = generate(DatasetName::ETTh1, GeneratorConfig::test(7));
//! let prep = prepare(&ds, 96, 24);
//! let config = LiPFormerConfig::small(96, 24, prep.channels);
//! let mut model = LiPFormer::new(config, &prep.spec, 7);
//! let mut trainer = Trainer::new(TrainConfig { epochs: 1, pretrain_epochs: 1, ..TrainConfig::fast() });
//! trainer.pretrain(&mut model, &prep.train);
//! let report = trainer.fit(&mut model, &prep.train, &prep.val);
//! assert!(report.best_val_loss.is_finite());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod contrastive;
pub mod covariate_encoder;
pub mod cross_patch;
pub mod forecaster;
pub mod inter_patch;
pub mod metrics;
pub mod model;
pub mod patching;
pub mod plugin;
pub mod revin;
pub mod stages;
pub mod target_encoder;
pub mod trainer;

pub use config::{ExtractKind, LiPFormerConfig, ProjKind, ReprKind, StageSpec};
pub use contrastive::WeakEnriching;
pub use covariate_encoder::CovariateEncoder;
pub use forecaster::{Forecaster, WeaklySupervised};
pub use metrics::{mae, mse, ForecastMetrics};
pub use model::{ComposedForecaster, LiPFormer};
pub use stages::{registered_compositions, Extraction, Projection, Representation};
pub use plugin::WithCovariateEncoder;
pub use target_encoder::TargetEncoder;
pub use trainer::{TrainConfig, TrainReport, Trainer};
