//! **Cross-Patch attention** (paper §III-C1, Fig. 2 and Eq. 1).
//!
//! From the patched window `[b·c, n, pl]`, a *global trend sequence* is built
//! for each intra-patch position `i < pl` by collecting the i-th data point
//! of every patch in chronological order — a simple transpose to
//! `[b·c, pl, n]`, recorded as a zero-copy permute view of the patched
//! window. Attention across these `pl` lagged trend sequences
//! captures global order/trend dependencies (substituting Positional
//! Encoding), after which a residual connection and a single-layer MLP mix
//! trend features into the `hd`-wide patch representation:
//!
//! `x = MLP(Attn(X) + X)`.

use lip_autograd::{Graph, ParamStore, Var};
use lip_nn::{Linear, MultiHeadSelfAttention};
use lip_rng::Rng;

/// The trend-mixing core: attention in LiPFormer proper, or a plain linear
/// layer for the Table XI ablation ("use a linear layer instead").
#[derive(Debug, Clone)]
enum TrendCore {
    Attention(MultiHeadSelfAttention),
    LinearOnly(Linear),
}

/// Cross-patch attention block producing the `[b·c, n, hd]` representation.
#[derive(Debug, Clone)]
pub struct CrossPatch {
    core: TrendCore,
    mix: Linear,
    num_patches: usize,
    patch_len: usize,
    hidden: usize,
}

impl CrossPatch {
    /// Build for `n = num_patches` trend length, `pl = patch_len` trend
    /// count and output width `hidden`. `use_attention = false` selects the
    /// ablation variant.
    // The signature mirrors the paper's hyperparameter list one-for-one; a
    // params struct would just rename the same knobs.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        num_patches: usize,
        patch_len: usize,
        hidden: usize,
        preferred_heads: usize,
        use_attention: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let core = if use_attention {
            let heads = compatible_heads(num_patches, preferred_heads);
            TrendCore::Attention(MultiHeadSelfAttention::new(
                store,
                &format!("{name}.trend_attn"),
                num_patches,
                heads,
                rng,
            ))
        } else {
            TrendCore::LinearOnly(Linear::new(
                store,
                &format!("{name}.trend_linear"),
                num_patches,
                num_patches,
                true,
                rng,
            ))
        };
        let mix = Linear::new(store, &format!("{name}.mix"), patch_len, hidden, true, rng);
        CrossPatch {
            core,
            mix,
            num_patches,
            patch_len,
            hidden,
        }
    }

    /// `x: [b·c, n, pl] → [b·c, n, hd]` (Eq. 1).
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let shape = g.shape(x).to_vec();
        assert_eq!(shape.len(), 3, "cross-patch expects [b·c, n, pl]");
        assert_eq!(shape[1], self.num_patches, "patch count mismatch");
        assert_eq!(shape[2], self.patch_len, "patch length mismatch");

        // build trend sequences: [b·c, pl, n]
        let trends = g.transpose(x, 1, 2);
        let mixed = match &self.core {
            TrendCore::Attention(attn) => attn.forward(g, trends),
            TrendCore::LinearOnly(lin) => lin.forward(g, trends),
        };
        let residual = g.add(mixed, trends);
        // back to patch-major and lift pl → hd
        let patches = g.transpose(residual, 1, 2);
        self.mix.forward(g, patches)
    }

    /// Output width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// True when running the attention (non-ablated) variant.
    pub fn uses_attention(&self) -> bool {
        matches!(self.core, TrendCore::Attention(_))
    }
}

/// Largest head count ≤ `preferred` dividing `dim` (trend length `n` is often
/// small and odd, e.g. 15 at paper scale, so cross-patch may fall back to a
/// single head).
pub(crate) fn compatible_heads(dim: usize, preferred: usize) -> usize {
    (1..=preferred.max(1))
        .rev()
        .find(|h| dim.is_multiple_of(*h))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_autograd::gradcheck::check_gradients;
    use lip_tensor::Tensor;
    use lip_rng::rngs::StdRng;
    use lip_rng::SeedableRng;

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cp = CrossPatch::new(&mut store, "cp", 4, 6, 16, 4, true, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::randn(&[3, 4, 6], &mut rng));
        let y = cp.forward(&mut g, x);
        assert_eq!(g.shape(y), &[3, 4, 16]);
        assert!(cp.uses_attention());
    }

    #[test]
    fn ablation_linear_variant() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cp = CrossPatch::new(&mut store, "cp", 4, 6, 16, 4, false, &mut rng);
        assert!(!cp.uses_attention());
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::randn(&[2, 4, 6], &mut rng));
        let y = cp.forward(&mut g, x);
        assert_eq!(g.shape(y), &[2, 4, 16]);
    }

    #[test]
    fn head_fallback_for_odd_patch_counts() {
        assert_eq!(compatible_heads(15, 8), 5);
        assert_eq!(compatible_heads(7, 4), 1);
        assert_eq!(compatible_heads(16, 8), 8);
        assert_eq!(compatible_heads(1, 8), 1);
    }

    #[test]
    fn detects_global_trend_position() {
        // A point injected at patch j, position i must influence outputs of
        // *other* patches through the trend attention — locality breaking.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cp = CrossPatch::new(&mut store, "cp", 4, 3, 8, 2, true, &mut rng);
        let base = Tensor::zeros(&[1, 4, 3]);
        let mut spiked = base.clone();
        spiked.data_mut()[1] = 5.0; // patch 0, position 1
        let run = |input: Tensor| {
            let mut g = Graph::new(&store);
            let x = g.constant(input);
            let y = cp.forward(&mut g, x);
            g.value(y).clone()
        };
        let y0 = run(base);
        let y1 = run(spiked);
        // patch 3's representation must change even though the spike is in patch 0
        let d = y1
            .slice_axis(1, 3, 4)
            .sub(&y0.slice_axis(1, 3, 4))
            .abs()
            .max_value();
        assert!(d > 1e-6, "cross-patch failed to propagate global info: {d}");
    }

    #[test]
    fn gradients_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let cp = CrossPatch::new(&mut store, "cp", 3, 2, 4, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 3, 2], &mut rng).mul_scalar(0.5);
        check_gradients(
            &mut store,
            &move |g| {
                let xv = g.constant(x.clone());
                let y = cp.forward(g, xv);
                let sq = g.square(y);
                g.mean(sq)
            },
            1e-2,
            3e-2,
        )
        .unwrap();
    }
}
