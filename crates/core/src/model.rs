//! The full **LiPFormer** model: a stage composition (representation →
//! extraction → projection) plus optional weak-data enriching (Eq. 8:
//! `Ŷ = Ŷ_base + MLP(F_PreTrain)`).
//!
//! [`ComposedForecaster`] is the general form; [`LiPFormer`] is the same
//! type, whose default `stages` config is the paper's canonical composition
//! (byte-identical to the pre-decomposition monolith — golden-hash pinned).

use lip_autograd::{Graph, ParamStore, Var};
use lip_data::window::Batch;
use lip_data::CovariateSpec;
use lip_tensor::Tensor;
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;

use crate::config::LiPFormerConfig;
use crate::contrastive::WeakEnriching;
use crate::forecaster::{Forecaster, WeaklySupervised};
use crate::stages::{build_stages, Extraction, Projection, Representation};

/// A forecaster assembled from swappable pipeline stages (paper Fig. 1 is
/// the canonical composition). Which stages are built is decided by
/// `config.stages`, so models reconstructed from a checkpointed config —
/// in `lip-serve`, `lip-exec`, the eval registry — pick up the right
/// composition automatically.
pub struct ComposedForecaster {
    store: ParamStore,
    config: LiPFormerConfig,
    repr: Box<dyn Representation>,
    extract: Box<dyn Extraction>,
    project: Box<dyn Projection>,
    enrich: Option<WeakEnriching>,
    name: String,
}

/// LiPFormer (paper Fig. 1) — the canonical stage composition.
pub type LiPFormer = ComposedForecaster;

impl ComposedForecaster {
    /// Full model with weak-data enriching: explicit covariates when `spec`
    /// has them, implicit temporal features otherwise.
    pub fn new(config: LiPFormerConfig, spec: &CovariateSpec, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let stages = build_stages(&mut store, "base", &config, &mut rng);
        let enrich = WeakEnriching::new(
            &mut store,
            "enrich",
            spec,
            config.pred_len,
            config.channels,
            config.encoder_hidden,
            config.categorical_embed,
            &mut rng,
        );
        ComposedForecaster {
            store,
            repr: stages.repr,
            extract: stages.extract,
            project: stages.project,
            enrich: Some(enrich),
            name: "LiPFormer".into(),
            config,
        }
    }

    /// Stage composition only — the "without pre-train" ablation of Table VI
    /// and the "w/o enc" ablation of Figure 6.
    pub fn without_enriching(config: LiPFormerConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let stages = build_stages(&mut store, "base", &config, &mut rng);
        ComposedForecaster {
            store,
            repr: stages.repr,
            extract: stages.extract,
            project: stages.project,
            enrich: None,
            name: "LiPFormer-base".into(),
            config,
        }
    }

    /// Rename (used by ablation harnesses to label variants).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Whether weak-data enriching is attached.
    pub fn has_enriching(&self) -> bool {
        self.enrich.is_some()
    }

    /// The backbone configuration.
    pub fn config(&self) -> &LiPFormerConfig {
        &self.config
    }

    /// The `[b, b]` contrastive logits for `batch` (Figure 7).
    pub fn logits_matrix(&self, batch: &Batch) -> Tensor {
        let enrich = self
            .enrich
            .as_ref()
            .expect("logits require the enriching module");
        let mut g = Graph::new(&self.store);
        let logits = enrich.logits(&mut g, batch);
        g.value(logits).clone()
    }
}

impl Forecaster for ComposedForecaster {
    fn name(&self) -> &str {
        &self.name
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn forward(&self, g: &mut Graph, batch: &Batch, training: bool, rng: &mut StdRng) -> Var {
        let x = g.constant(batch.x.clone());
        let repr = self.repr.forward(g, x);
        let h = self.extract.forward(g, repr.tokens, training, rng);
        let y_base = self.project.forward(g, h, &repr);
        match &self.enrich {
            Some(enrich) => enrich.guide(g, y_base, batch),
            None => y_base,
        }
    }
}

impl WeaklySupervised for ComposedForecaster {
    fn contrastive_loss(&self, g: &mut Graph, batch: &Batch) -> Var {
        self.enrich
            .as_ref()
            .expect("contrastive pre-training requires the enriching module")
            .contrastive_loss(g, batch)
    }

    fn freeze_encoders(&mut self) {
        if let Some(enrich) = &self.enrich {
            enrich.freeze_encoders(&mut self.store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExtractKind, ProjKind, ReprKind, StageSpec};
    use crate::stages::registered_compositions;

    fn spec_implicit() -> CovariateSpec {
        CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        }
    }

    fn small_cfg() -> LiPFormerConfig {
        let mut c = LiPFormerConfig::small(24, 8, 2);
        c.patch_len = 6;
        c.hidden = 8;
        c.heads = 2;
        c.encoder_hidden = 8;
        c.dropout = 0.1;
        c
    }

    fn toy_batch(b: usize, rng: &mut StdRng) -> Batch {
        Batch {
            x: Tensor::randn(&[b, 24, 2], rng),
            y: Tensor::randn(&[b, 8, 2], rng),
            time_feats: Tensor::randn(&[b, 8, 4], rng).mul_scalar(0.2),
            cov_numerical: None,
            cov_categorical: None,
        }
    }

    #[test]
    fn forward_shape_with_enriching() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LiPFormer::new(small_cfg(), &spec_implicit(), 1);
        assert!(model.has_enriching());
        let b = toy_batch(3, &mut rng);
        let mut g = Graph::new(model.store());
        let y = model.forward(&mut g, &b, false, &mut rng);
        assert_eq!(g.shape(y), &[3, 8, 2]);
    }

    #[test]
    fn base_only_variant() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = LiPFormer::without_enriching(small_cfg(), 2);
        assert!(!model.has_enriching());
        let b = toy_batch(2, &mut rng);
        let mut g = Graph::new(model.store());
        let y = model.forward(&mut g, &b, false, &mut rng);
        assert_eq!(g.shape(y), &[2, 8, 2]);
    }

    #[test]
    fn enriching_adds_parameters() {
        let with = LiPFormer::new(small_cfg(), &spec_implicit(), 3);
        let without = LiPFormer::without_enriching(small_cfg(), 3);
        assert!(with.num_parameters() > without.num_parameters());
    }

    #[test]
    fn freezing_shrinks_trainable_count() {
        let mut model = LiPFormer::new(small_cfg(), &spec_implicit(), 4);
        let before = model.num_parameters();
        model.freeze_encoders();
        assert!(model.num_parameters() < before);
    }

    #[test]
    fn dropout_only_in_training_mode() {
        let model = LiPFormer::new(small_cfg(), &spec_implicit(), 5);
        let mut rng = StdRng::seed_from_u64(6);
        let b = toy_batch(2, &mut rng);
        let eval = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            let mut g = Graph::new(model.store());
            let y = model.forward(&mut g, &b, false, &mut r);
            g.value(y).clone()
        };
        // eval mode ignores the RNG entirely
        assert_eq!(eval(1), eval(999));
        // training mode with different seeds differs (dropout active)
        let train = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            let mut g = Graph::new(model.store());
            let y = model.forward(&mut g, &b, true, &mut r);
            g.value(y).clone()
        };
        assert_ne!(train(1), train(2));
    }

    #[test]
    fn logits_matrix_shape() {
        let model = LiPFormer::new(small_cfg(), &spec_implicit(), 7);
        let mut rng = StdRng::seed_from_u64(8);
        let b = toy_batch(5, &mut rng);
        let logits = model.logits_matrix(&b);
        assert_eq!(logits.shape(), &[5, 5]);
    }

    #[test]
    fn every_registered_composition_forwards_with_enriching() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = toy_batch(3, &mut rng);
        for (label, stages) in registered_compositions() {
            let model = LiPFormer::new(small_cfg().with_stages(stages), &spec_implicit(), 10);
            let mut g = Graph::new(model.store());
            let y = model.forward(&mut g, &b, false, &mut rng);
            assert_eq!(g.shape(y), &[3, 8, 2], "{label}");
            assert!(!g.value(y).has_non_finite(), "{label}: non-finite forecast");
        }
    }

    #[test]
    fn alternative_composition_changes_params_not_interface() {
        let tst = StageSpec {
            representation: ReprKind::MeanStd,
            extraction: ExtractKind::PatchTst,
            projection: ProjKind::FlattenLinear,
            depth: 2,
        };
        let default = LiPFormer::without_enriching(small_cfg(), 13);
        let swapped = LiPFormer::without_enriching(small_cfg().with_stages(tst), 13);
        assert_ne!(default.num_parameters(), swapped.num_parameters());
        assert_eq!(default.config().seq_len, swapped.config().seq_len);
    }
}
