//! LiPFormer hyperparameters (paper §IV-A2) plus the ablation switches used
//! by Tables X and XI.

use lip_data::CovariateSpec;

/// Full model configuration.
///
/// Paper defaults: `T = 720`, `pl = 48`, `hd = 512`, batch 256, dropout 0.5.
/// The reduced presets keep all structural ratios while shrinking widths so
/// the whole evaluation suite runs on CPU.
#[derive(Debug, Clone)]
pub struct LiPFormerConfig {
    /// Input (look-back) length `T`. Must be a multiple of `patch_len`.
    pub seq_len: usize,
    /// Forecast horizon `L`.
    pub pred_len: usize,
    /// Target channels `c`.
    pub channels: usize,
    /// Patch length `pl`.
    pub patch_len: usize,
    /// Hidden feature width `hd`.
    pub hidden: usize,
    /// Attention heads in the patch-wise attentions.
    pub heads: usize,
    /// Dropout probability on the hidden representation.
    pub dropout: f32,
    /// Smooth-L1 threshold β.
    pub smooth_l1_beta: f32,
    /// Hidden width of the dual encoders (weak-data enriching).
    pub encoder_hidden: usize,
    /// Embedding width per categorical covariate channel (the paper's
    /// Eq. 3 uses 1: textual labels concatenate into the `c_f` axis).
    pub categorical_embed: usize,
    /// Ablation: keep Cross-Patch attention (Table XI).
    pub use_cross_patch: bool,
    /// Ablation: keep Inter-Patch attention (Table XI).
    pub use_inter_patch: bool,
    /// Ablation: re-insert Layer Normalization (Table X).
    pub with_layer_norm: bool,
    /// Ablation: re-insert Feed-Forward Networks (Table X).
    pub with_ffn: bool,
    /// Stage composition (representation / extraction / projection).
    /// Defaults to the paper's canonical pipeline.
    pub stages: StageSpec,
}

/// Which representation stage normalizes and patches the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprKind {
    /// Last-value instance normalization (the paper's §III-C1 anchor).
    LastValue,
    /// Mean/std statistical normalization (RevIN without affine).
    MeanStd,
}

/// Which information-extraction stage maps patch tokens to features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractKind {
    /// The paper's Cross-Patch + Inter-Patch attention backbone.
    LipAttention,
    /// A PatchTST-style Transformer encoder (PE + LN + FFN stack).
    PatchTst,
}

/// Which projection stage maps features to the de-normalized forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjKind {
    /// The paper's two single-layer MLP heads (`n → nt`, `hd → pl`).
    PatchHead,
    /// PatchTST's flatten head (`[n·hd] → L` in one linear layer).
    FlattenLinear,
}

lip_serde::json_unit_enum!(ReprKind { LastValue, MeanStd });
lip_serde::json_unit_enum!(ExtractKind { LipAttention, PatchTst });
lip_serde::json_unit_enum!(ProjKind { PatchHead, FlattenLinear });

/// A stage composition: one representation, one extraction, one projection.
/// The default is the canonical LiPFormer pipeline, byte-identical to the
/// pre-refactor monolith.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Normalization + patching choice.
    pub representation: ReprKind,
    /// Token-to-feature backbone choice.
    pub extraction: ExtractKind,
    /// Feature-to-forecast head choice.
    pub projection: ProjKind,
    /// Encoder depth for the `PatchTst` extraction (ignored otherwise).
    pub depth: usize,
}

lip_serde::json_struct!(StageSpec {
    representation,
    extraction,
    projection,
    depth,
});

impl Default for StageSpec {
    fn default() -> Self {
        StageSpec {
            representation: ReprKind::LastValue,
            extraction: ExtractKind::LipAttention,
            projection: ProjKind::PatchHead,
            depth: 2,
        }
    }
}

impl StageSpec {
    /// Whether this is the canonical (pre-refactor monolith) composition.
    pub fn is_canonical(&self) -> bool {
        self.representation == ReprKind::LastValue
            && self.extraction == ExtractKind::LipAttention
            && self.projection == ProjKind::PatchHead
    }
}

// Hand-written (rather than `json_struct!`) so configs written before the
// stage decomposition — v1 checkpoints, committed bench baselines — still
// parse: a missing `stages` field means the canonical composition.
impl lip_serde::ToJson for LiPFormerConfig {
    fn to_json(&self) -> lip_serde::Json {
        lip_serde::Json::Object(vec![
            ("seq_len".into(), self.seq_len.to_json()),
            ("pred_len".into(), self.pred_len.to_json()),
            ("channels".into(), self.channels.to_json()),
            ("patch_len".into(), self.patch_len.to_json()),
            ("hidden".into(), self.hidden.to_json()),
            ("heads".into(), self.heads.to_json()),
            ("dropout".into(), self.dropout.to_json()),
            ("smooth_l1_beta".into(), self.smooth_l1_beta.to_json()),
            ("encoder_hidden".into(), self.encoder_hidden.to_json()),
            ("categorical_embed".into(), self.categorical_embed.to_json()),
            ("use_cross_patch".into(), self.use_cross_patch.to_json()),
            ("use_inter_patch".into(), self.use_inter_patch.to_json()),
            ("with_layer_norm".into(), self.with_layer_norm.to_json()),
            ("with_ffn".into(), self.with_ffn.to_json()),
            ("stages".into(), self.stages.to_json()),
        ])
    }
}

impl lip_serde::FromJson for LiPFormerConfig {
    fn from_json(v: &lip_serde::Json) -> Result<Self, lip_serde::JsonError> {
        let stages = match v.get("stages") {
            Some(j) if !matches!(j, lip_serde::Json::Null) => {
                lip_serde::FromJson::from_json(j)?
            }
            _ => StageSpec::default(),
        };
        Ok(LiPFormerConfig {
            seq_len: v.field("seq_len")?,
            pred_len: v.field("pred_len")?,
            channels: v.field("channels")?,
            patch_len: v.field("patch_len")?,
            hidden: v.field("hidden")?,
            heads: v.field("heads")?,
            dropout: v.field("dropout")?,
            smooth_l1_beta: v.field("smooth_l1_beta")?,
            encoder_hidden: v.field("encoder_hidden")?,
            categorical_embed: v.field("categorical_embed")?,
            use_cross_patch: v.field("use_cross_patch")?,
            use_inter_patch: v.field("use_inter_patch")?,
            with_layer_norm: v.field("with_layer_norm")?,
            with_ffn: v.field("with_ffn")?,
            stages,
        })
    }
}

impl LiPFormerConfig {
    /// The paper's default configuration for a `(T=720, L, c)` task.
    pub fn paper(pred_len: usize, channels: usize) -> Self {
        LiPFormerConfig {
            seq_len: 720,
            pred_len,
            channels,
            patch_len: 48,
            hidden: 512,
            heads: 8,
            dropout: 0.5,
            smooth_l1_beta: 1.0,
            encoder_hidden: 64,
            categorical_embed: 1,
            use_cross_patch: true,
            use_inter_patch: true,
            with_layer_norm: false,
            with_ffn: false,
            stages: StageSpec::default(),
        }
    }

    /// Reduced configuration for CPU-scale experiments: same architecture,
    /// smaller widths. The patch length keeps the paper's token count
    /// (`n = T/pl ≈ 8–15`) rather than its absolute `pl = 48`, since the
    /// patch-wise attentions need enough tokens to act on.
    pub fn small(seq_len: usize, pred_len: usize, channels: usize) -> Self {
        let patch_len = patch_len_for_tokens(seq_len, 8);
        LiPFormerConfig {
            seq_len,
            pred_len,
            channels,
            patch_len,
            hidden: 64,
            heads: 4,
            dropout: 0.1,
            smooth_l1_beta: 1.0,
            encoder_hidden: 32,
            categorical_embed: 1,
            use_cross_patch: true,
            use_inter_patch: true,
            with_layer_norm: false,
            with_ffn: false,
            stages: StageSpec::default(),
        }
    }

    /// Number of input patches `n = T / pl`.
    pub fn num_patches(&self) -> usize {
        self.validate();
        self.seq_len / self.patch_len
    }

    /// Number of target patches `nt = ⌈L / pl⌉` (the head's token width).
    pub fn num_target_patches(&self) -> usize {
        self.pred_len.div_ceil(self.patch_len)
    }

    /// Why this configuration cannot build a model, if it cannot. These are
    /// the rules; [`LiPFormerConfig::validate`] panics with this message
    /// and [`LiPFormerConfig::check_for`] adds the covariate-spec rules.
    pub fn check(&self) -> Result<(), String> {
        if self.seq_len == 0 || self.pred_len == 0 || self.channels == 0 {
            return Err("seq_len, pred_len and channels must be positive".into());
        }
        if self.patch_len == 0 || !self.seq_len.is_multiple_of(self.patch_len) {
            return Err(format!(
                "patch_len {} must evenly divide seq_len {} (paper §IV-A2)",
                self.patch_len, self.seq_len
            ));
        }
        if self.hidden == 0 || self.heads == 0 || !self.hidden.is_multiple_of(self.heads) {
            return Err(format!("hidden {} must divide by heads {}", self.hidden, self.heads));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout {} must be in [0, 1)", self.dropout));
        }
        if self.smooth_l1_beta.is_nan() || self.smooth_l1_beta <= 0.0 {
            return Err("smooth_l1_beta must be positive".into());
        }
        if self.encoder_hidden == 0 {
            return Err("encoder_hidden must be positive".into());
        }
        if self.stages.depth == 0 {
            return Err("stages.depth must be >= 1".into());
        }
        Ok(())
    }

    /// [`LiPFormerConfig::check`] plus the rules the model constructor
    /// asserts for the covariate spec `spec`: a configuration that passes
    /// builds a `LiPFormer` under `spec` without panicking.
    pub fn check_for(&self, spec: &CovariateSpec) -> Result<(), String> {
        self.check()?;
        // the encoder's dense input: explicit numerical covariates, else the
        // implicit time features (categories alone have none)
        let dense = if spec.has_explicit() {
            spec.numerical
        } else {
            spec.time_features
        };
        if dense == 0 {
            Err("the covariate encoder needs a numerical covariate or time feature".into())
        } else if spec.cardinalities.contains(&0) {
            Err("every categorical covariate needs a cardinality above 0".into())
        } else if self.categorical_embed == 0 && !spec.cardinalities.is_empty() {
            Err("categorical covariates need categorical_embed above 0".into())
        } else {
            Ok(())
        }
    }

    /// Panic on an inconsistent configuration, with
    /// [`LiPFormerConfig::check`]'s message.
    pub fn validate(&self) {
        if let Err(m) = self.check() {
            panic!("{m}");
        }
    }

    /// Builder: swap the stage composition.
    pub fn with_stages(mut self, stages: StageSpec) -> Self {
        self.stages = stages;
        self
    }

    /// Ablation variant: re-add Layer Normalization (Table X "+LN").
    pub fn with_ln(mut self) -> Self {
        self.with_layer_norm = true;
        self
    }

    /// Ablation variant: re-add FFNs (Table X "+FFNs").
    pub fn with_ffns(mut self) -> Self {
        self.with_ffn = true;
        self
    }

    /// Ablation variant: drop Cross-Patch attention (Table XI).
    pub fn without_cross_patch(mut self) -> Self {
        self.use_cross_patch = false;
        self
    }

    /// Ablation variant: drop Inter-Patch attention (Table XI).
    pub fn without_inter_patch(mut self) -> Self {
        self.use_inter_patch = false;
        self
    }
}

/// The largest of the paper's patch lengths {6, 12, 24, 48} dividing
/// `seq_len`, falling back to any divisor.
pub fn preferred_patch_len(seq_len: usize) -> usize {
    for pl in [48, 24, 12, 6] {
        if seq_len.is_multiple_of(pl) {
            return pl;
        }
    }
    (1..=seq_len).rev().find(|pl| seq_len.is_multiple_of(*pl)).unwrap_or(1)
}

/// The largest of the paper's patch lengths {6, 12, 24, 48} that divides
/// `seq_len` *and* yields at least `min_tokens` patches; falls back to
/// [`preferred_patch_len`] when none does.
pub fn patch_len_for_tokens(seq_len: usize, min_tokens: usize) -> usize {
    for pl in [48, 24, 12, 6] {
        if seq_len.is_multiple_of(pl) && seq_len / pl >= min_tokens {
            return pl;
        }
    }
    preferred_patch_len(seq_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = LiPFormerConfig::paper(96, 7);
        assert_eq!(c.seq_len, 720);
        assert_eq!(c.patch_len, 48);
        assert_eq!(c.hidden, 512);
        assert_eq!(c.num_patches(), 15);
        assert_eq!(c.num_target_patches(), 2);
        assert!(!c.with_layer_norm && !c.with_ffn);
    }

    #[test]
    fn small_patch_division() {
        // reduced configs keep the paper's *token count* (n ≥ 8) rather than
        // its absolute pl = 48
        let c = LiPFormerConfig::small(96, 24, 3);
        assert_eq!(c.patch_len, 12);
        assert_eq!(c.num_patches(), 8);
        let c2 = LiPFormerConfig::small(720, 96, 3);
        assert_eq!(c2.patch_len, 48);
        assert_eq!(c2.num_patches(), 15);
    }

    #[test]
    fn ablation_builders() {
        let c = LiPFormerConfig::small(96, 24, 1)
            .with_ln()
            .with_ffns()
            .without_cross_patch()
            .without_inter_patch();
        assert!(c.with_layer_norm && c.with_ffn);
        assert!(!c.use_cross_patch && !c.use_inter_patch);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn bad_patch_len_rejected() {
        let mut c = LiPFormerConfig::small(96, 24, 1);
        c.patch_len = 40;
        c.validate();
    }

    #[test]
    fn target_patches_round_up() {
        let mut c = LiPFormerConfig::small(96, 24, 1);
        c.patch_len = 48;
        assert_eq!(c.num_target_patches(), 1);
        c.pred_len = 96;
        assert_eq!(c.num_target_patches(), 2);
        c.pred_len = 97;
        assert_eq!(c.num_target_patches(), 3);
    }

    #[test]
    fn config_json_roundtrips_with_stages() {
        let mut c = LiPFormerConfig::small(96, 24, 3);
        c.stages = StageSpec {
            representation: ReprKind::MeanStd,
            extraction: ExtractKind::PatchTst,
            projection: ProjKind::FlattenLinear,
            depth: 3,
        };
        let json = lip_serde::to_string(&c);
        let back: LiPFormerConfig = lip_serde::from_str(&json).unwrap();
        assert_eq!(back.stages, c.stages);
        assert_eq!(back.seq_len, c.seq_len);
    }

    #[test]
    fn pre_stage_config_json_defaults_to_canonical() {
        // Configs serialized before the stage decomposition (v1 checkpoints,
        // committed bench baselines) have no `stages` field.
        let c = LiPFormerConfig::small(96, 24, 3);
        let json = lip_serde::to_string(&c);
        let legacy = json.replace(",\"stages\":", ",\"_ignored\":");
        assert!(!legacy.contains("\"stages\""), "test setup failed");
        let back: LiPFormerConfig = lip_serde::from_str(&legacy).unwrap();
        assert!(back.stages.is_canonical());
        assert_eq!(back.stages, StageSpec::default());
    }

    #[test]
    fn preferred_patch_prefers_48() {
        assert_eq!(preferred_patch_len(720), 48);
        assert_eq!(preferred_patch_len(96), 48);
        assert_eq!(preferred_patch_len(36), 12);
        assert_eq!(preferred_patch_len(7), 7);
    }
}
