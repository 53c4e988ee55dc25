//! Model-validation entry points used by the `lip-analyze` static analyzer
//! and any pre-flight check: record complete, *sanitized* forward/loss tapes
//! and derive the batch shape contract a configuration implies.
//!
//! The tapes returned here have the numerical sanitizer enabled, so a NaN or
//! Inf produced anywhere in the pass is pinned to its producing op with
//! provenance (see [`lip_autograd::SanitizerReport`]).

use lip_autograd::{Graph, Var};
use lip_data::window::{Batch, BatchContract};
use lip_data::CovariateSpec;
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;

use crate::{Forecaster, LiPFormerConfig, WeaklySupervised};

/// Record the full forward + Smooth-L1 loss graph for `batch` on a
/// sanitizing tape — the exact graph [`crate::Trainer::fit`] differentiates.
/// Returns the tape plus the prediction and loss nodes.
pub fn record_forward_loss<'m, M: Forecaster + ?Sized>(
    model: &'m M,
    batch: &Batch,
    beta: f32,
    training: bool,
    seed: u64,
) -> (Graph<'m>, Var, Var) {
    let mut g = Graph::with_sanitizer(model.store());
    let (pred, loss) = forward_loss(&mut g, model, batch, beta, training, seed);
    (g, pred, loss)
}

/// Append the forward + Smooth-L1 loss graph of [`record_forward_loss`] to
/// `g`, whatever tape it is (the plan lift records on plain tapes, without
/// the sanitizer's extra pass). Returns the prediction and loss nodes.
pub fn forward_loss<M: Forecaster + ?Sized>(
    g: &mut Graph,
    model: &M,
    batch: &Batch,
    beta: f32,
    training: bool,
    seed: u64,
) -> (Var, Var) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pred = model.forward(g, batch, training, &mut rng);
    let target = g.constant(batch.y.clone());
    (pred, g.smooth_l1_loss(pred, target, beta))
}

/// Record the symmetric contrastive pre-training graph on a sanitizing tape.
pub fn record_contrastive<'m, M: WeaklySupervised + ?Sized>(
    model: &'m M,
    batch: &Batch,
) -> (Graph<'m>, Var) {
    let mut g = Graph::with_sanitizer(model.store());
    let loss = model.contrastive_loss(&mut g, batch);
    (g, loss)
}

/// The batch shape contract implied by a model configuration plus its
/// covariate spec — what every batch fed to the model must look like.
pub fn batch_contract(config: &LiPFormerConfig, spec: &CovariateSpec) -> BatchContract {
    spec.batch_contract(config.seq_len, config.pred_len, config.channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LiPFormer;
    use lip_data::pipeline::prepare;
    use lip_data::{generate, DatasetName, GeneratorConfig};

    #[test]
    fn recorded_graphs_are_sane() {
        let ds = generate(DatasetName::ETTh1, GeneratorConfig::test(3));
        let prep = prepare(&ds, 48, 24);
        let config = LiPFormerConfig::small(48, 24, prep.channels);
        let model = LiPFormer::new(config.clone(), &prep.spec, 3);
        let batch = prep.train.batch(&[0, 1]);

        batch_contract(&config, &prep.spec).check(&batch).unwrap();

        let (g, pred, loss) = record_forward_loss(&model, &batch, 1.0, false, 0);
        assert_eq!(g.shape(pred), &[2, 24, prep.channels]);
        assert!(g.shape(loss).is_empty(), "loss must be scalar");
        assert!(g.sanitizer_reports().is_empty(), "clean pass must be finite");

        let (gc, closs) = record_contrastive(&model, &batch);
        assert!(gc.shape(closs).is_empty());
        assert!(gc.sanitizer_reports().is_empty());
    }
}
