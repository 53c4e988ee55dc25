//! Loss helpers beyond the primitive graph losses: row normalization and the
//! paper's CLIP-style symmetric contrastive objective (§III-B).

use lip_autograd::{Graph, Var};

/// L2-normalize each row (last axis) of `x`, as CLIP does before computing
/// cosine-similarity logits.
pub fn l2_normalize_rows(g: &mut Graph, x: Var) -> Var {
    let rank = g.shape(x).len();
    let sq = g.square(x);
    let ss = g.sum_axis(sq, rank - 1);
    let ss_eps = g.add_scalar(ss, 1e-8);
    let norm = g.sqrt(ss_eps);
    g.div(x, norm)
}

/// The paper's symmetric cross-entropy over a batch of covariate/target
/// embedding pairs:
///
/// `logits = (V_T · V_Cᵀ) · e^t`, `labels = (1..b)`,
/// `L = ½ (CE_rows(logits) + CE_cols(logits))`.
///
/// `log_temp` is the trainable log-temperature node `t`. Rows of both inputs
/// are L2-normalized so the logits are scaled cosine similarities.
pub fn clip_symmetric_ce(g: &mut Graph, v_target: Var, v_covariate: Var, log_temp: Var) -> Var {
    let shape_t = g.shape(v_target).to_vec();
    let shape_c = g.shape(v_covariate).to_vec();
    assert_eq!(shape_t.len(), 2, "expected [batch, dim] target embeddings");
    assert_eq!(shape_t, shape_c, "encoder output shapes must match");
    let b = shape_t[0];
    assert!(b >= 2, "contrastive batch needs at least 2 pairs");

    let logits = clip_logits(g, v_target, v_covariate, log_temp);
    let labels: Vec<usize> = (0..b).collect();
    let loss_rows = g.cross_entropy_rows(logits, &labels);
    let logits_t = g.transpose(logits, 0, 1);
    let loss_cols = g.cross_entropy_rows(logits_t, &labels);
    let total = g.add(loss_rows, loss_cols);
    g.mul_scalar(total, 0.5)
}

/// The raw (temperature-scaled) logits matrix of the contrastive loss —
/// exposed separately so Figure 7's visualization can dump it.
pub fn clip_logits(g: &mut Graph, v_target: Var, v_covariate: Var, log_temp: Var) -> Var {
    let vt = l2_normalize_rows(g, v_target);
    let vc = l2_normalize_rows(g, v_covariate);
    let vct = g.transpose(vc, 0, 1);
    let sims = g.matmul(vt, vct); // [b, b] cosine similarities
    let temp = g.exp(log_temp); // scalar e^t
    g.mul(sims, temp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_autograd::gradcheck::check_gradients;
    use lip_autograd::ParamStore;
    use lip_tensor::Tensor;
    use lip_rng::rngs::StdRng;
    use lip_rng::SeedableRng;

    #[test]
    fn normalized_rows_are_unit() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::from_vec(vec![3.0, 4.0, 0.0, 5.0], &[2, 2]));
        let n = l2_normalize_rows(&mut g, x);
        for row in g.value(n).data().chunks(2) {
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn perfect_alignment_gives_low_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let store = ParamStore::new();
        // orthogonal-ish embeddings aligned with themselves → diagonal wins
        let e = Tensor::randn(&[4, 16], &mut rng);
        let mut g = Graph::new(&store);
        let vt = g.constant(e.clone());
        let vc = g.constant(e.clone());
        let t = g.constant(Tensor::scalar(3.0)); // high temperature sharpens
        let aligned = clip_symmetric_ce(&mut g, vt, vc, t);

        let mut g2 = Graph::new(&store);
        let vt2 = g2.constant(e.clone());
        // misaligned: covariates shifted by one row
        let shifted = Tensor::concat(&[&e.slice_axis(0, 1, 4), &e.slice_axis(0, 0, 1)], 0);
        let vc2 = g2.constant(shifted);
        let t2 = g2.constant(Tensor::scalar(3.0));
        let misaligned = clip_symmetric_ce(&mut g2, vt2, vc2, t2);

        assert!(
            g.value(aligned).item() < g2.value(misaligned).item(),
            "aligned {} !< misaligned {}",
            g.value(aligned).item(),
            g2.value(misaligned).item()
        );
    }

    #[test]
    fn symmetric_in_its_arguments() {
        let mut rng = StdRng::seed_from_u64(2);
        let store = ParamStore::new();
        let a = Tensor::randn(&[3, 8], &mut rng);
        let b = Tensor::randn(&[3, 8], &mut rng);
        let run = |x: &Tensor, y: &Tensor| {
            let mut g = Graph::new(&store);
            let vx = g.constant(x.clone());
            let vy = g.constant(y.clone());
            let t = g.constant(Tensor::scalar(0.0));
            let l = clip_symmetric_ce(&mut g, vx, vy, t);
            g.value(l).item()
        };
        assert!((run(&a, &b) - run(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn gradients_flow_to_both_encoders_and_temperature() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let vt = store.add("vt", Tensor::randn(&[3, 4], &mut rng).mul_scalar(0.5));
        let vc = store.add("vc", Tensor::randn(&[3, 4], &mut rng).mul_scalar(0.5));
        let lt = store.add("log_temp", Tensor::scalar(0.5));
        check_gradients(
            &mut store,
            &move |g| {
                let t = g.param(vt);
                let c = g.param(vc);
                let tau = g.param(lt);
                clip_symmetric_ce(g, t, c, tau)
            },
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn logits_shape_is_batch_square() {
        let mut rng = StdRng::seed_from_u64(4);
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let vt = g.constant(Tensor::randn(&[5, 8], &mut rng));
        let vc = g.constant(Tensor::randn(&[5, 8], &mut rng));
        let t = g.constant(Tensor::scalar(0.0));
        let logits = clip_logits(&mut g, vt, vc, t);
        assert_eq!(g.shape(logits), &[5, 5]);
    }
}
