//! Stage-decomposed forecasting pipeline (ROADMAP item 4, after
//! *Decomposing the Time Series Forecasting Pipeline*): every forecaster is
//! a composition of a **representation** stage (instance normalization +
//! channel-independent patching), an **information-extraction** stage (the
//! paper's Cross-Patch/Inter-Patch attentions, or a PatchTST-style
//! Transformer encoder), and a **projection** stage (head + de-normalization).
//!
//! The canonical LiPFormer composition (`LastValue` / `LipAttention` /
//! `PatchHead`) is byte-identical to the pre-refactor monolith: parameter
//! registration order, RNG consumption, and the recorded tape are all
//! unchanged, which the golden-hash reproducibility tests pin down.
//!
//! Stage boundaries are `Var`-level: a representation hands the extraction a
//! `[b·c, n, pl]` token tensor plus the normalization state needed to invert
//! it, the extraction maps tokens to features `[b·c, n, hd]`, and the
//! projection maps features back to a `[b, L, c]` forecast.

use lip_autograd::{Graph, ParamStore, Var};
use lip_nn::positional::LearnedPositionalEncoding;
use lip_nn::{Activation, Dropout, FeedForward, LayerNorm, Linear, MultiHeadSelfAttention};
use lip_rng::rngs::StdRng;
use lip_rng::Rng;

use crate::config::{ExtractKind, LiPFormerConfig, ProjKind, ReprKind, StageSpec};
use crate::cross_patch::{compatible_heads, CrossPatch};
use crate::inter_patch::InterPatch;
use crate::patching::Patching;
use crate::revin::InstanceNorm;

/// The normalization state a representation stage saves so the projection
/// stage can invert it after prediction.
#[derive(Debug, Clone, Copy)]
pub enum NormState {
    /// Last-value instance normalization (the paper's §III-C1 anchor).
    LastValue {
        /// `[b, 1, c]` last observed value per window and channel.
        anchor: Var,
    },
    /// Mean/std statistical normalization (RevIN without affine).
    MeanStd {
        /// `[b, 1, c]` per-window channel means.
        mean: Var,
        /// `[b, 1, c]` per-window channel standard deviations.
        std: Var,
    },
}

impl NormState {
    /// Invert the normalization on a `[b, L, c]` prediction.
    pub fn denormalize(&self, g: &mut Graph, y: Var) -> Var {
        match self {
            NormState::LastValue { anchor } => g.add(y, *anchor),
            NormState::MeanStd { mean, std } => {
                let scaled = g.mul(y, *std);
                g.add(scaled, *mean)
            }
        }
    }
}

/// What a representation stage hands downstream: normalized patch tokens
/// plus everything the projection needs to assemble and invert the forecast.
#[derive(Debug, Clone, Copy)]
pub struct ReprOutput {
    /// `[b·c, n, pl]` channel-independent patch tokens.
    pub tokens: Var,
    /// Saved normalization state for the projection's inverse.
    pub norm: NormState,
    /// Batch size `b` of the raw input.
    pub batch: usize,
    /// Channel count `c` of the raw input.
    pub channels: usize,
}

/// Representation stage: `[b, T, c] → (tokens [b·c, n, pl], norm state)`.
pub trait Representation: std::fmt::Debug + Send + Sync {
    /// Normalize and patch a raw input window.
    fn forward(&self, g: &mut Graph, x: Var) -> ReprOutput;
}

/// Information-extraction stage: `[b·c, n, pl] → [b·c, n, hd]` features.
/// Consumes the training RNG (dropout) exactly as the monolith did.
pub trait Extraction: std::fmt::Debug + Send + Sync {
    /// Map patch tokens to hidden features.
    fn forward(&self, g: &mut Graph, tokens: Var, training: bool, rng: &mut StdRng) -> Var;
}

/// Projection stage: `[b·c, n, hd]` features `→ [b, L, c]` forecast,
/// including the inverse of the representation's normalization.
pub trait Projection: std::fmt::Debug + Send + Sync {
    /// Project features to a de-normalized forecast.
    fn forward(&self, g: &mut Graph, h: Var, repr: &ReprOutput) -> Var;
}

// ---------------------------------------------------------------------------
// Representation stages
// ---------------------------------------------------------------------------

/// Last-value instance normalization + non-overlapping patching — the
/// paper's representation (§III-C1).
#[derive(Debug, Clone)]
pub struct LastValueRepr {
    seq_len: usize,
    channels: usize,
    patching: Patching,
}

impl LastValueRepr {
    /// Stateless (no parameters); shapes come from `config`.
    pub fn new(config: &LiPFormerConfig) -> Self {
        LastValueRepr {
            seq_len: config.seq_len,
            channels: config.channels,
            patching: Patching {
                patch_len: config.patch_len,
            },
        }
    }
}

impl Representation for LastValueRepr {
    fn forward(&self, g: &mut Graph, x: Var) -> ReprOutput {
        let shape = g.shape(x).to_vec();
        let (b, c) = (shape[0], shape[2]);
        assert_eq!(shape[1], self.seq_len, "input length mismatch");
        assert_eq!(c, self.channels, "channel count mismatch");
        let (normed, anchor) = InstanceNorm.normalize(g, x);
        let tokens = self.patching.apply(g, normed);
        ReprOutput {
            tokens,
            norm: NormState::LastValue { anchor },
            batch: b,
            channels: c,
        }
    }
}

/// Mean/std statistical normalization (RevIN without affine, the
/// PatchTST/iTransformer treatment of distribution shift) + patching.
#[derive(Debug, Clone)]
pub struct MeanStdRepr {
    seq_len: usize,
    channels: usize,
    patching: Patching,
}

impl MeanStdRepr {
    /// Stateless (no parameters); shapes come from `config`.
    pub fn new(config: &LiPFormerConfig) -> Self {
        MeanStdRepr {
            seq_len: config.seq_len,
            channels: config.channels,
            patching: Patching {
                patch_len: config.patch_len,
            },
        }
    }
}

impl Representation for MeanStdRepr {
    fn forward(&self, g: &mut Graph, x: Var) -> ReprOutput {
        let shape = g.shape(x).to_vec();
        let (b, c) = (shape[0], shape[2]);
        assert_eq!(shape[1], self.seq_len, "input length mismatch");
        assert_eq!(c, self.channels, "channel count mismatch");
        let mean = g.mean_axis(x, 1); // [b, 1, c]
        let centered = g.sub(x, mean);
        let sq = g.square(centered);
        let var = g.mean_axis(sq, 1);
        let var_eps = g.add_scalar(var, 1e-5);
        let std = g.sqrt(var_eps);
        let normed = g.div(centered, std);
        let tokens = self.patching.apply(g, normed);
        ReprOutput {
            tokens,
            norm: NormState::MeanStd { mean, std },
            batch: b,
            channels: c,
        }
    }
}

// ---------------------------------------------------------------------------
// Extraction stages
// ---------------------------------------------------------------------------

/// LiPFormer's patch-wise attention backbone: Cross-Patch trend mixing →
/// Inter-Patch attention, with the Table X `+LN`/`+FFNs` ablation inserts.
#[derive(Debug, Clone)]
pub struct LipAttentionExtraction {
    cross: CrossPatch,
    inter: InterPatch,
    dropout: Dropout,
    ln_cross: Option<LayerNorm>,
    ln_inter: Option<LayerNorm>,
    ffn: Option<FeedForward>,
}

impl LipAttentionExtraction {
    /// Register the attention parameters (`cross`, `inter`) in `store`.
    /// The LN/FFN ablation parameters are registered separately by
    /// [`LipAttentionExtraction::finish`] so the canonical composition can
    /// interleave the projection head's registration between them, exactly
    /// matching the pre-refactor monolith's parameter and RNG order.
    pub fn begin(
        store: &mut ParamStore,
        name: &str,
        config: &LiPFormerConfig,
        rng: &mut impl Rng,
    ) -> LipAttentionParts {
        let n = config.num_patches();
        let cross = CrossPatch::new(
            store,
            &format!("{name}.cross"),
            n,
            config.patch_len,
            config.hidden,
            config.heads,
            config.use_cross_patch,
            rng,
        );
        let inter = InterPatch::new(
            store,
            &format!("{name}.inter"),
            config.hidden,
            config.heads,
            config.use_inter_patch,
            rng,
        );
        LipAttentionParts { cross, inter }
    }

    /// Register the LN/FFN ablation parameters and assemble the stage.
    pub fn finish(
        parts: LipAttentionParts,
        store: &mut ParamStore,
        name: &str,
        config: &LiPFormerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let ln_cross = config
            .with_layer_norm
            .then(|| LayerNorm::new(store, &format!("{name}.ln_cross"), config.hidden));
        let ln_inter = config
            .with_layer_norm
            .then(|| LayerNorm::new(store, &format!("{name}.ln_inter"), config.hidden));
        let ffn = config.with_ffn.then(|| {
            FeedForward::new(
                store,
                &format!("{name}.ffn"),
                config.hidden,
                4,
                Activation::Gelu,
                rng,
            )
        });
        LipAttentionExtraction {
            cross: parts.cross,
            inter: parts.inter,
            dropout: Dropout::new(config.dropout),
            ln_cross,
            ln_inter,
            ffn,
        }
    }

    /// Register all parameters contiguously (non-canonical compositions,
    /// where there is no legacy byte-order to preserve).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        config: &LiPFormerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let parts = Self::begin(store, name, config, rng);
        Self::finish(parts, store, name, config, rng)
    }
}

/// The attention half of a [`LipAttentionExtraction`] under construction
/// (see [`LipAttentionExtraction::begin`]).
#[derive(Debug, Clone)]
pub struct LipAttentionParts {
    cross: CrossPatch,
    inter: InterPatch,
}

impl Extraction for LipAttentionExtraction {
    fn forward(&self, g: &mut Graph, tokens: Var, training: bool, rng: &mut StdRng) -> Var {
        // Cross-Patch trend mixing → [b·c, n, hd]
        let mut h = self.cross.forward(g, tokens);
        if let Some(ln) = &self.ln_cross {
            h = ln.forward(g, h);
        }
        h = self.dropout.forward(g, h, rng, training);

        // Inter-Patch attention (residual) → [b·c, n, hd]
        let mut h = self.inter.forward(g, h);
        if let Some(ffn) = &self.ffn {
            let f = ffn.forward(g, h);
            h = g.add(f, h);
        }
        if let Some(ln) = &self.ln_inter {
            h = ln.forward(g, h);
        }
        self.dropout.forward(g, h, rng, training)
    }
}

/// A post-norm Transformer encoder layer,
/// `h = LN(x + Attn(x)); out = LN(h + FFN(h))` — the LN+FFN structure
/// LiPFormer eliminates, kept as the PatchTST-style alternative backbone
/// (and reused by the baseline Transformers).
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    attn: MultiHeadSelfAttention,
    ln1: LayerNorm,
    ffn: FeedForward,
    ln2: LayerNorm,
    dropout: Dropout,
}

impl EncoderBlock {
    /// Standard layer with 4× FFN expansion.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        EncoderBlock {
            attn: MultiHeadSelfAttention::new(store, &format!("{name}.attn"), dim, heads, rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), dim, 4, Activation::Gelu, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            dropout: Dropout::new(dropout),
        }
    }

    /// Apply to `[b, seq, dim]`.
    pub fn forward(&self, g: &mut Graph, x: Var, training: bool, rng: &mut StdRng) -> Var {
        let a = self.attn.forward(g, x);
        let a = self.dropout.forward(g, a, rng, training);
        let r1 = g.add(x, a);
        let h = self.ln1.forward(g, r1);
        let f = self.ffn.forward(g, h);
        let f = self.dropout.forward(g, f, rng, training);
        let r2 = g.add(h, f);
        self.ln2.forward(g, r2)
    }
}

/// PatchTST-style extraction: patch embedding + learned positional encoding
/// + a stack of post-norm Transformer encoder layers.
#[derive(Debug, Clone)]
pub struct TransformerExtraction {
    embed: Linear,
    pe: LearnedPositionalEncoding,
    layers: Vec<EncoderBlock>,
}

impl TransformerExtraction {
    /// Register embedding (`{name}.embed`), positional table (`{name}.pe`)
    /// and `depth` encoder layers (`{name}.layer{i}`) in `store`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        patch_len: usize,
        dim: usize,
        heads: usize,
        depth: usize,
        num_patches: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let embed = Linear::new(store, &format!("{name}.embed"), patch_len, dim, true, rng);
        let pe = LearnedPositionalEncoding::new(store, name, num_patches, dim, rng);
        let layers = (0..depth)
            .map(|i| EncoderBlock::new(store, &format!("{name}.layer{i}"), dim, heads, dropout, rng))
            .collect();
        TransformerExtraction { embed, pe, layers }
    }

    /// The composed-model construction: widths and depth from `config`.
    pub fn from_config(
        store: &mut ParamStore,
        name: &str,
        config: &LiPFormerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(
            store,
            name,
            config.patch_len,
            config.hidden,
            compatible_heads(config.hidden, config.heads),
            config.stages.depth,
            config.num_patches(),
            config.dropout,
            rng,
        )
    }
}

impl Extraction for TransformerExtraction {
    fn forward(&self, g: &mut Graph, tokens: Var, training: bool, rng: &mut StdRng) -> Var {
        let mut h = self.embed.forward(g, tokens);
        h = self.pe.forward(g, h);
        for layer in &self.layers {
            h = layer.forward(g, h, training, rng);
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Projection stages
// ---------------------------------------------------------------------------

/// LiPFormer's two single-layer MLP heads: token axis `n → nt`, feature axis
/// `hd → pl`, then un-patch, trim the horizon, and de-normalize.
#[derive(Debug, Clone)]
pub struct PatchHeadProjection {
    /// Head stage 1: token axis `n → nt`.
    head_tokens: Linear,
    /// Head stage 2: feature axis `hd → pl`.
    head_features: Linear,
    patch_len: usize,
    pred_len: usize,
    num_target_patches: usize,
    patching: Patching,
}

impl PatchHeadProjection {
    /// Register both heads in `store` and damp the output projection: with
    /// instance normalization a near-zero head makes the initial forecast
    /// the "repeat last value" naive predictor, a far better starting point
    /// than a random projection of random attention features.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        config: &LiPFormerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let n = config.num_patches();
        let nt = config.num_target_patches();
        let head_tokens = Linear::new(store, &format!("{name}.head_tokens"), n, nt, true, rng);
        let head_features = Linear::new(
            store,
            &format!("{name}.head_features"),
            config.hidden,
            config.patch_len,
            true,
            rng,
        );
        for id in head_features.param_ids() {
            let damped = store.value(id).mul_scalar(0.05);
            store.set_value(id, damped);
        }
        PatchHeadProjection {
            head_tokens,
            head_features,
            patch_len: config.patch_len,
            pred_len: config.pred_len,
            num_target_patches: nt,
            patching: Patching {
                patch_len: config.patch_len,
            },
        }
    }
}

impl Projection for PatchHeadProjection {
    fn forward(&self, g: &mut Graph, h: Var, repr: &ReprOutput) -> Var {
        // head: [b·c, n, hd] → [b·c, hd, n] → n→nt → [b·c, nt, hd] → hd→pl
        let swapped = g.transpose(h, 1, 2);
        let tokens = self.head_tokens.forward(g, swapped); // [b·c, hd, nt]
        let back = g.transpose(tokens, 1, 2); // [b·c, nt, hd]
        let patches_out = self.head_features.forward(g, back); // [b·c, nt, pl]

        // flatten target patches and trim the horizon
        let (b, c) = (repr.batch, repr.channels);
        let flat = g.reshape(patches_out, &[b * c, self.num_target_patches * self.patch_len]);
        let trimmed = g.slice_axis(flat, 1, 0, self.pred_len);

        // back to [b, L, c] and denormalize
        let merged = self.patching.merge_channels(g, trimmed, b, c);
        repr.norm.denormalize(g, merged)
    }
}

/// PatchTST's flatten head: concatenate all patch features and map them to
/// the horizon with one linear layer, `[b·c, n·hd] → [b·c, L]`.
#[derive(Debug, Clone)]
pub struct FlattenLinearProjection {
    head: Linear,
    num_patches: usize,
    hidden: usize,
    patching: Patching,
}

impl FlattenLinearProjection {
    /// Register the flatten head (`{name}.head`) in `store`, damped like the
    /// patch head so training starts from the naive predictor.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        config: &LiPFormerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let n = config.num_patches();
        let head = Linear::new(
            store,
            &format!("{name}.head"),
            n * config.hidden,
            config.pred_len,
            true,
            rng,
        );
        for id in head.param_ids() {
            let damped = store.value(id).mul_scalar(0.05);
            store.set_value(id, damped);
        }
        FlattenLinearProjection {
            head,
            num_patches: n,
            hidden: config.hidden,
            patching: Patching {
                patch_len: config.patch_len,
            },
        }
    }
}

impl Projection for FlattenLinearProjection {
    fn forward(&self, g: &mut Graph, h: Var, repr: &ReprOutput) -> Var {
        let (b, c) = (repr.batch, repr.channels);
        let flat = g.reshape(h, &[b * c, self.num_patches * self.hidden]);
        let y = self.head.forward(g, flat); // [b·c, L]
        let merged = self.patching.merge_channels(g, y, b, c);
        repr.norm.denormalize(g, merged)
    }
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

/// A fully built stage triple, ready to drop into a `ComposedForecaster`.
#[derive(Debug)]
pub struct StageSet {
    /// Representation stage.
    pub repr: Box<dyn Representation>,
    /// Information-extraction stage.
    pub extract: Box<dyn Extraction>,
    /// Projection stage.
    pub project: Box<dyn Projection>,
}

/// Build the stage triple `config.stages` describes, registering all stage
/// parameters under `name` in `store`.
///
/// For the canonical `LipAttention`/`PatchHead` pair this registers in the
/// pre-refactor monolith's exact order (cross → inter → head_tokens →
/// head_features → ln_cross → ln_inter → ffn) so parameter ids, names, and
/// RNG consumption — and therefore every trained byte — are unchanged.
pub fn build_stages(
    store: &mut ParamStore,
    name: &str,
    config: &LiPFormerConfig,
    rng: &mut impl Rng,
) -> StageSet {
    config.validate();
    let repr: Box<dyn Representation> = match config.stages.representation {
        ReprKind::LastValue => Box::new(LastValueRepr::new(config)),
        ReprKind::MeanStd => Box::new(MeanStdRepr::new(config)),
    };
    let (extract, project): (Box<dyn Extraction>, Box<dyn Projection>) =
        match (config.stages.extraction, config.stages.projection) {
            (ExtractKind::LipAttention, ProjKind::PatchHead) => {
                // legacy interleaved order — see the doc comment above
                let parts = LipAttentionExtraction::begin(store, name, config, rng);
                let project = PatchHeadProjection::new(store, name, config, rng);
                let extract = LipAttentionExtraction::finish(parts, store, name, config, rng);
                (Box::new(extract), Box::new(project))
            }
            (ExtractKind::LipAttention, ProjKind::FlattenLinear) => (
                Box::new(LipAttentionExtraction::new(store, name, config, rng)),
                Box::new(FlattenLinearProjection::new(store, name, config, rng)),
            ),
            (ExtractKind::PatchTst, ProjKind::PatchHead) => (
                Box::new(TransformerExtraction::from_config(store, name, config, rng)),
                Box::new(PatchHeadProjection::new(store, name, config, rng)),
            ),
            (ExtractKind::PatchTst, ProjKind::FlattenLinear) => (
                Box::new(TransformerExtraction::from_config(store, name, config, rng)),
                Box::new(FlattenLinearProjection::new(store, name, config, rng)),
            ),
        };
    StageSet {
        repr,
        extract,
        project,
    }
}

/// Every registered stage composition, by name. These are the compositions
/// `lip-analyze --verify-plan` sweeps, `lip-exec` differential-tests, and
/// the model registry exposes; adding a pair here enrolls it in all three.
pub fn registered_compositions() -> Vec<(&'static str, StageSpec)> {
    vec![
        ("default", StageSpec::default()),
        (
            "revin",
            StageSpec {
                representation: ReprKind::MeanStd,
                ..StageSpec::default()
            },
        ),
        (
            "flat-head",
            StageSpec {
                projection: ProjKind::FlattenLinear,
                ..StageSpec::default()
            },
        ),
        (
            "tst",
            StageSpec {
                representation: ReprKind::MeanStd,
                extraction: ExtractKind::PatchTst,
                projection: ProjKind::FlattenLinear,
                depth: 2,
            },
        ),
        (
            "tst-patch-head",
            StageSpec {
                representation: ReprKind::LastValue,
                extraction: ExtractKind::PatchTst,
                projection: ProjKind::PatchHead,
                depth: 2,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_autograd::gradcheck::check_gradients;
    use lip_rng::SeedableRng;
    use lip_tensor::Tensor;

    fn cfg(spec: StageSpec) -> LiPFormerConfig {
        let mut c = LiPFormerConfig::small(24, 8, 2);
        c.patch_len = 6;
        c.hidden = 8;
        c.heads = 2;
        c.dropout = 0.1;
        c.stages = spec;
        c
    }

    #[test]
    fn every_registered_composition_forwards() {
        for (label, spec) in registered_compositions() {
            let c = cfg(spec);
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(1);
            let stages = build_stages(&mut store, "base", &c, &mut rng);
            let mut g = Graph::new(&store);
            let x = g.constant(Tensor::randn(&[3, 24, 2], &mut rng));
            let repr = stages.repr.forward(&mut g, x);
            assert_eq!(g.shape(repr.tokens), &[6, 4, 6], "{label}: token shape");
            let h = stages.extract.forward(&mut g, repr.tokens, false, &mut rng);
            assert_eq!(g.shape(h), &[6, 4, 8], "{label}: feature shape");
            let y = stages.project.forward(&mut g, h, &repr);
            assert_eq!(g.shape(y), &[3, 8, 2], "{label}: forecast shape");
            assert!(!g.value(y).has_non_finite(), "{label}: non-finite output");
        }
    }

    #[test]
    fn meanstd_repr_centers_tokens() {
        let c = cfg(StageSpec {
            representation: ReprKind::MeanStd,
            ..StageSpec::default()
        });
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let repr = MeanStdRepr::new(&c);
        let mut g = Graph::new(&store);
        let x = Tensor::randn(&[2, 24, 2], &mut rng)
            .mul_scalar(5.0)
            .add_scalar(7.0);
        let xv = g.constant(x);
        let out = repr.forward(&mut g, xv);
        // tokens of a mean/std-normalized window have near-zero global mean
        let vals = g.value(out.tokens).clone();
        let mean: f32 = vals.to_vec().iter().sum::<f32>() / vals.numel() as f32;
        assert!(mean.abs() < 0.2, "tokens not centered: {mean}");
    }

    #[test]
    fn scale_equivariance_of_meanstd_composition() {
        // mean/std normalization makes the forecast equivariant to affine
        // input transforms: predict(a·x + k) == a·predict(x) + k.
        let c = cfg(StageSpec {
            representation: ReprKind::MeanStd,
            ..StageSpec::default()
        });
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let stages = build_stages(&mut store, "base", &c, &mut rng);
        let x = Tensor::randn(&[1, 24, 2], &mut rng);
        let run = |input: Tensor| {
            let mut r = StdRng::seed_from_u64(0);
            let mut g = Graph::new(&store);
            let xv = g.constant(input);
            let repr = stages.repr.forward(&mut g, xv);
            let h = stages.extract.forward(&mut g, repr.tokens, false, &mut r);
            let y = stages.project.forward(&mut g, h, &repr);
            g.value(y).clone()
        };
        let y0 = run(x.clone());
        let y1 = run(x.mul_scalar(3.0).add_scalar(100.0));
        let d = y1.sub(&y0.mul_scalar(3.0).add_scalar(100.0)).abs().max_value();
        assert!(d < 1e-2, "affine equivariance violated: {d}");
    }

    #[test]
    fn tst_extraction_has_ln_and_ffn_params() {
        let default_cfg = cfg(StageSpec::default());
        let tst_cfg = cfg(StageSpec {
            extraction: ExtractKind::PatchTst,
            ..StageSpec::default()
        });
        let count = |c: &LiPFormerConfig| {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(4);
            let _ = build_stages(&mut store, "base", c, &mut rng);
            store.num_scalars()
        };
        assert!(
            count(&tst_cfg) > count(&default_cfg),
            "PatchTST-style extraction should out-weigh the paper's backbone"
        );
    }

    /// The canonical composition's test configuration.
    fn canonical_cfg() -> LiPFormerConfig {
        let mut c = LiPFormerConfig::small(24, 12, 2);
        c.patch_len = 6;
        c.hidden = 8;
        c.heads = 2;
        c.dropout = 0.0;
        c
    }

    /// `x: [b, T, c] → [b, L, c]` through all three stages, in eval mode.
    fn forecast(stages: &StageSet, g: &mut Graph, x: Var, rng: &mut StdRng) -> Var {
        let repr = stages.repr.forward(g, x);
        let h = stages.extract.forward(g, repr.tokens, false, rng);
        stages.project.forward(g, h, &repr)
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let stages = build_stages(&mut store, "bp", &canonical_cfg(), &mut rng);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::randn(&[3, 24, 2], &mut rng));
        let y = forecast(&stages, &mut g, x, &mut rng);
        assert_eq!(g.shape(y), &[3, 12, 2]);
    }

    #[test]
    fn ablation_variants_all_run() {
        let mut rng = StdRng::seed_from_u64(2);
        for (ln, ffn, cross, inter) in [
            (true, false, true, true),
            (false, true, true, true),
            (true, true, true, true),
            (false, false, false, true),
            (false, false, true, false),
            (false, false, false, false),
        ] {
            let mut c = canonical_cfg();
            c.with_layer_norm = ln;
            c.with_ffn = ffn;
            c.use_cross_patch = cross;
            c.use_inter_patch = inter;
            let mut store = ParamStore::new();
            let stages = build_stages(&mut store, "bp", &c, &mut rng);
            let mut g = Graph::new(&store);
            let x = g.constant(Tensor::randn(&[2, 24, 2], &mut rng));
            let y = forecast(&stages, &mut g, x, &mut rng);
            assert_eq!(g.shape(y), &[2, 12, 2]);
            assert!(!g.value(y).has_non_finite());
        }
    }

    #[test]
    fn ffn_ablation_adds_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut plain_store = ParamStore::new();
        let _ = build_stages(&mut plain_store, "bp", &canonical_cfg(), &mut rng);
        let mut ffn_store = ParamStore::new();
        let _ = build_stages(&mut ffn_store, "bp", &canonical_cfg().with_ffns(), &mut rng);
        assert!(ffn_store.num_scalars() > plain_store.num_scalars());
        // FFN adds 8·hd² + 5·hd
        let hd = canonical_cfg().hidden;
        assert_eq!(
            ffn_store.num_scalars() - plain_store.num_scalars(),
            8 * hd * hd + 5 * hd
        );
    }

    #[test]
    fn level_shift_equivariance() {
        // Instance norm makes the backbone equivariant to constant offsets:
        // predict(x + k) == predict(x) + k.
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let stages = build_stages(&mut store, "bp", &canonical_cfg(), &mut rng);
        let x = Tensor::randn(&[1, 24, 2], &mut rng);
        let run = |input: Tensor| {
            let mut rng2 = StdRng::seed_from_u64(0);
            let mut g = Graph::new(&store);
            let xv = g.constant(input);
            let y = forecast(&stages, &mut g, xv, &mut rng2);
            g.value(y).clone()
        };
        let y0 = run(x.clone());
        let y1 = run(x.add_scalar(100.0));
        let d = y1.sub(&y0.add_scalar(100.0)).abs().max_value();
        assert!(d < 1e-2, "level-shift equivariance violated: {d}");
    }

    #[test]
    fn channels_are_independent() {
        // Changing channel 1's history must not affect channel 0's forecast.
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let stages = build_stages(&mut store, "bp", &canonical_cfg(), &mut rng);
        let x = Tensor::randn(&[1, 24, 2], &mut rng);
        let mut x2 = x.clone();
        for t in 0..24 {
            x2.data_mut()[t * 2 + 1] += 7.0; // perturb channel 1 only
        }
        let run = |input: Tensor| {
            let mut rng2 = StdRng::seed_from_u64(0);
            let mut g = Graph::new(&store);
            let xv = g.constant(input);
            let y = forecast(&stages, &mut g, xv, &mut rng2);
            g.value(y).clone()
        };
        let y0 = run(x);
        let y1 = run(x2);
        let ch0_diff = (0..12)
            .map(|t| (y1.at(&[0, t, 0]) - y0.at(&[0, t, 0])).abs())
            .fold(0.0f32, f32::max);
        assert!(ch0_diff < 1e-5, "channel independence violated: {ch0_diff}");
    }

    #[test]
    fn gradients_check_tiny() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut c = LiPFormerConfig::small(8, 4, 1);
        c.patch_len = 4;
        c.hidden = 4;
        c.heads = 1;
        c.dropout = 0.0;
        let mut store = ParamStore::new();
        let stages = build_stages(&mut store, "bp", &c, &mut rng);
        let x = Tensor::randn(&[2, 8, 1], &mut rng).mul_scalar(0.5);
        let y = Tensor::randn(&[2, 4, 1], &mut rng).mul_scalar(0.5);
        check_gradients(
            &mut store,
            &move |g| {
                let mut rng2 = StdRng::seed_from_u64(0);
                let xv = g.constant(x.clone());
                let yv = g.constant(y.clone());
                let pred = forecast(&stages, g, xv, &mut rng2);
                g.mse_loss(pred, yv)
            },
            1e-2,
            4e-2,
        )
        .unwrap();
    }

    #[test]
    fn encoder_block_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let layer = EncoderBlock::new(&mut store, "e", 8, 2, 0.0, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::randn(&[2, 5, 8], &mut rng));
        let y = layer.forward(&mut g, x, false, &mut rng);
        assert_eq!(g.shape(y), &[2, 5, 8]);
        assert!(!g.value(y).has_non_finite());
    }
}
