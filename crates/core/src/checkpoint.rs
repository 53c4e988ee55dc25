//! Single-file model checkpoints: every parameter tensor plus a JSON header
//! (model configuration, names, freeze flags) in one length-prefixed binary
//! bundle, so trained models survive process restarts and ship to edge
//! deployments as one artifact.
//!
//! Layout: `magic:u32 | header_len:u32 | header JSON | (frame_len:u32 |
//! tensor frame)*`, all little-endian; tensor frames are
//! [`lip_tensor::Tensor::to_bytes`] encodings in registration order.
//!
//! **Format versions.** v1 headers predate the stage decomposition and
//! carry no `stage_layout`; loading one synthesizes the layout from the
//! config's (default) stage composition — the compat shim. v2 headers
//! record which parameter names belong to each pipeline stage
//! (representation / extraction / projection / enriching), which is what
//! makes a pretrained backbone portable: [`restore_stage`] moves one
//! stage's parameters into any model that hosts the same stage, regardless
//! of what the other stages look like.

use std::io::Write;
use std::path::Path;

use lip_autograd::ParamStore;
use lip_tensor::Tensor;

use crate::config::{ExtractKind, LiPFormerConfig, ProjKind};

const MAGIC: u32 = 0x4C49_5043; // "LIPC"

/// Current checkpoint format version written by [`save`].
pub const FORMAT_VERSION: u32 = 2;

/// A pipeline stage, as a checkpoint namespace selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Normalization + patching (parameter-free today, reserved).
    Representation,
    /// The token-to-feature backbone.
    Extraction,
    /// The feature-to-forecast head.
    Projection,
    /// The weak-data-enriching dual encoder.
    Enriching,
}

/// Which parameter names belong to which pipeline stage — the checkpoint's
/// stage-scoped namespaces (full names, in registration order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLayout {
    /// Representation-stage parameter names (empty today, reserved).
    pub representation: Vec<String>,
    /// Extraction-stage parameter names.
    pub extraction: Vec<String>,
    /// Projection-stage parameter names.
    pub projection: Vec<String>,
    /// Weak-enriching parameter names (empty for base-only models).
    pub enriching: Vec<String>,
}

lip_serde::json_struct!(StageLayout {
    representation,
    extraction,
    projection,
    enriching,
});

impl StageLayout {
    /// Classify `param_names` into stages by the prefix conventions of the
    /// model builder (`base.*` stage params, `enrich.*` dual encoder). Which
    /// `base.*` prefixes belong to extraction vs projection depends on
    /// `config.stages`. A name no stage claims is an error — that is the
    /// mismatch [`load_bytes`] rejects.
    pub fn classify(config: &LiPFormerConfig, param_names: &[String]) -> Result<Self, String> {
        let extraction_prefixes: &[&str] = match config.stages.extraction {
            ExtractKind::LipAttention => &[
                "base.cross.",
                "base.inter.",
                "base.ln_cross.",
                "base.ln_inter.",
                "base.ffn.",
            ],
            ExtractKind::PatchTst => &["base.embed.", "base.pe", "base.layer"],
        };
        let projection_prefixes: &[&str] = match config.stages.projection {
            ProjKind::PatchHead => &["base.head_tokens.", "base.head_features."],
            ProjKind::FlattenLinear => &["base.head."],
        };
        let mut layout = StageLayout {
            representation: vec![],
            extraction: vec![],
            projection: vec![],
            enriching: vec![],
        };
        for name in param_names {
            if extraction_prefixes.iter().any(|p| name.starts_with(p)) {
                layout.extraction.push(name.clone());
            } else if projection_prefixes.iter().any(|p| name.starts_with(p)) {
                layout.projection.push(name.clone());
            } else if name.starts_with("enrich.") {
                layout.enriching.push(name.clone());
            } else {
                return Err(format!(
                    "parameter '{name}' belongs to no stage of composition {:?}",
                    config.stages
                ));
            }
        }
        Ok(layout)
    }

    /// The parameter names of one stage.
    pub fn names(&self, stage: Stage) -> &[String] {
        match stage {
            Stage::Representation => &self.representation,
            Stage::Extraction => &self.extraction,
            Stage::Projection => &self.projection,
            Stage::Enriching => &self.enriching,
        }
    }
}

/// Checkpoint metadata stored in the JSON header.
#[derive(Debug, Clone)]
pub struct CheckpointHeader {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The backbone configuration the parameters belong to.
    pub config: LiPFormerConfig,
    /// Registered parameter names, in order.
    pub param_names: Vec<String>,
    /// Which parameters were frozen when saved.
    pub frozen: Vec<bool>,
    /// Stage-scoped parameter namespaces. `None` only while decoding a v1
    /// header; [`load_bytes`] synthesizes it before returning, so loaded
    /// headers always carry a layout.
    pub stage_layout: Option<StageLayout>,
}

// Hand-written (rather than `json_struct!`) because `stage_layout` is
// absent from v1 headers: a missing field decodes to `None`.
impl lip_serde::ToJson for CheckpointHeader {
    fn to_json(&self) -> lip_serde::Json {
        let mut fields = vec![
            ("version".to_string(), self.version.to_json()),
            ("config".to_string(), self.config.to_json()),
            ("param_names".to_string(), self.param_names.to_json()),
            ("frozen".to_string(), self.frozen.to_json()),
        ];
        if let Some(layout) = &self.stage_layout {
            fields.push(("stage_layout".to_string(), layout.to_json()));
        }
        lip_serde::Json::Object(fields)
    }
}

impl lip_serde::FromJson for CheckpointHeader {
    fn from_json(v: &lip_serde::Json) -> Result<Self, lip_serde::JsonError> {
        let stage_layout = match v.get("stage_layout") {
            Some(j) if !matches!(j, lip_serde::Json::Null) => {
                Some(lip_serde::FromJson::from_json(j)?)
            }
            _ => None,
        };
        Ok(CheckpointHeader {
            version: v.field("version")?,
            config: v.field("config")?,
            param_names: v.field("param_names")?,
            frozen: v.field("frozen")?,
            stage_layout,
        })
    }
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    Corrupt(String),
    /// The checkpoint does not match the model it is being loaded into.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serialize `store` (with `config`) to `path`.
pub fn save(
    path: &Path,
    config: &LiPFormerConfig,
    store: &ParamStore,
) -> Result<(), CheckpointError> {
    let param_names: Vec<String> = store.ids().map(|id| store.name(id).to_string()).collect();
    let stage_layout = StageLayout::classify(config, &param_names)
        .map_err(CheckpointError::Mismatch)?;
    let header = CheckpointHeader {
        version: FORMAT_VERSION,
        config: config.clone(),
        param_names,
        frozen: store.ids().map(|id| store.is_frozen(id)).collect(),
        stage_layout: Some(stage_layout),
    };
    let header_json = lip_serde::to_vec(&header);

    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(&MAGIC.to_le_bytes())?;
    file.write_all(&(header_json.len() as u32).to_le_bytes())?;
    file.write_all(&header_json)?;
    for id in store.ids() {
        let frame = store.value(id).to_bytes();
        file.write_all(&(frame.len() as u32).to_le_bytes())?;
        file.write_all(&frame)?;
    }
    file.flush()?;
    Ok(())
}

/// Read a checkpoint's header and parameter tensors.
pub fn load(path: &Path) -> Result<(CheckpointHeader, Vec<Tensor>), CheckpointError> {
    let raw = std::fs::read(path)?;
    load_bytes(&raw)
}

/// Decode a checkpoint already in memory. Takes `&[u8]`, so concurrent
/// readers can decode one shared buffer (the serving cache does; the
/// shared-cache concurrency tests race it). A parameter holding a NaN or
/// ±Inf is [`CheckpointError::Corrupt`], naming the parameter.
pub fn load_bytes(raw: &[u8]) -> Result<(CheckpointHeader, Vec<Tensor>), CheckpointError> {
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
        if *cursor + n > raw.len() {
            return Err(CheckpointError::Corrupt("truncated bundle".into()));
        }
        let slice = &raw[*cursor..*cursor + n];
        *cursor += n;
        Ok(slice)
    };
    let magic = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let header_len =
        u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
    let mut header: CheckpointHeader = lip_serde::from_slice(take(&mut cursor, header_len)?)
        .map_err(|e| CheckpointError::Corrupt(format!("header decode: {e}")))?;
    if header.frozen.len() != header.param_names.len() {
        return Err(CheckpointError::Corrupt(format!(
            "header has {} freeze flags for {} parameters",
            header.frozen.len(),
            header.param_names.len()
        )));
    }
    match header.version {
        1 => {
            // Compat shim: v1 monolith checkpoints predate stage_layout.
            // Synthesize it from the (default-composition) config so every
            // loaded header supports stage-scoped restores.
            let layout = StageLayout::classify(&header.config, &header.param_names)
                .map_err(CheckpointError::Corrupt)?;
            header.stage_layout = Some(layout);
        }
        2 => {
            // A v2 header must carry a layout that agrees with its own
            // config + parameter names: reject a checkpoint whose declared
            // stage namespaces don't match the parameters it ships.
            let expect = StageLayout::classify(&header.config, &header.param_names)
                .map_err(CheckpointError::Corrupt)?;
            match &header.stage_layout {
                Some(actual) if *actual == expect => {}
                Some(_) => {
                    return Err(CheckpointError::Corrupt(
                        "stage_layout does not match the checkpoint's config and parameters"
                            .into(),
                    ));
                }
                None => {
                    return Err(CheckpointError::Corrupt(
                        "v2 checkpoint missing stage_layout".into(),
                    ));
                }
            }
        }
        v => {
            return Err(CheckpointError::Corrupt(format!("unsupported version {v}")));
        }
    }
    let mut tensors = Vec::with_capacity(header.param_names.len());
    for i in 0..header.param_names.len() {
        let frame_len =
            u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
        let frame = take(&mut cursor, frame_len)?;
        let t = Tensor::from_bytes(frame)
            .map_err(|e| CheckpointError::Corrupt(format!("tensor {i}: {e}")))?;
        // a NaN or ±Inf weight would compile and serve forecasts of nothing
        // but non-finite values; refuse it here, by name
        if let Some(at) = t.data().iter().position(|v| !v.is_finite()) {
            return Err(CheckpointError::Corrupt(format!(
                "parameter '{}' holds {} at element {at}",
                header.param_names[i],
                t.data()[at]
            )));
        }
        tensors.push(t);
    }
    Ok((header, tensors))
}

/// Restore a checkpoint into a model's store, verifying name/shape agreement.
pub fn restore_into(
    header: &CheckpointHeader,
    tensors: &[Tensor],
    store: &mut ParamStore,
) -> Result<(), CheckpointError> {
    if header.param_names.len() != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} params, model has {}",
            header.param_names.len(),
            store.len()
        )));
    }
    for (i, id) in store.ids().enumerate().collect::<Vec<_>>() {
        if store.name(id) != header.param_names[i] {
            return Err(CheckpointError::Mismatch(format!(
                "param {i} name '{}' vs checkpoint '{}'",
                store.name(id),
                header.param_names[i]
            )));
        }
        if store.value(id).shape() != tensors[i].shape() {
            return Err(CheckpointError::Mismatch(format!(
                "param '{}' shape {:?} vs checkpoint {:?}",
                store.name(id),
                store.value(id).shape(),
                tensors[i].shape()
            )));
        }
    }
    for (i, id) in store.ids().enumerate().collect::<Vec<_>>() {
        store.set_value(id, tensors[i].clone());
        if header.frozen[i] {
            store.freeze(id);
        }
    }
    Ok(())
}

/// Restore only one stage's parameters from a checkpoint into `store`,
/// matching by name — the backbone-portability primitive: a pretrained
/// extraction stage restores into any model hosting the same extraction,
/// regardless of which projection head or enriching module sits around it.
///
/// Freeze flags are *not* applied (the caller decides what stays trainable
/// after a transfer). Returns the number of parameters restored.
pub fn restore_stage(
    header: &CheckpointHeader,
    tensors: &[Tensor],
    store: &mut ParamStore,
    stage: Stage,
) -> Result<usize, CheckpointError> {
    let layout = header.stage_layout.as_ref().ok_or_else(|| {
        CheckpointError::Mismatch("header has no stage layout (load via checkpoint::load)".into())
    })?;
    let names = layout.names(stage);
    let ids: Vec<_> = store.ids().collect();
    // resolve every (name → checkpoint frame, store param) pair before
    // mutating anything, so a failed restore leaves the store untouched
    let mut moves = Vec::with_capacity(names.len());
    for name in names {
        let src = header
            .param_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!("stage layout names unknown parameter '{name}'"))
            })?;
        let id = ids
            .iter()
            .copied()
            .find(|&id| store.name(id) == name)
            .ok_or_else(|| {
                CheckpointError::Mismatch(format!(
                    "model has no parameter '{name}' for stage {stage:?}"
                ))
            })?;
        if store.value(id).shape() != tensors[src].shape() {
            return Err(CheckpointError::Mismatch(format!(
                "param '{}' shape {:?} vs checkpoint {:?}",
                name,
                store.value(id).shape(),
                tensors[src].shape()
            )));
        }
        moves.push((id, src));
    }
    for (id, src) in &moves {
        store.set_value(*id, tensors[*src].clone());
    }
    Ok(moves.len())
}

/// One-call deployment load: read a checkpoint, rebuild the model from the
/// header's configuration, and restore the saved parameters into it. `spec`
/// must be the covariate spec the saved model was constructed with (the
/// parameter-name check rejects a mismatched encoder layout). A header
/// whose configuration cannot build a model is [`CheckpointError::Corrupt`];
/// one that cannot build under `spec` is [`CheckpointError::Mismatch`].
pub fn load_model(
    path: &Path,
    spec: &lip_data::CovariateSpec,
) -> Result<crate::model::LiPFormer, CheckpointError> {
    use crate::forecaster::Forecaster;
    let (header, tensors) = load(path)?;
    let config = &header.config;
    config.check().map_err(|m| CheckpointError::Corrupt(format!("header config: {m}")))?;
    config.check_for(spec).map_err(CheckpointError::Mismatch)?;
    let mut model = crate::model::LiPFormer::new(header.config.clone(), spec, 0);
    restore_into(&header, &tensors, model.store_mut())?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::{Forecaster, WeaklySupervised};
    use crate::model::LiPFormer;
    use lip_data::CovariateSpec;

    fn spec() -> CovariateSpec {
        CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lipformer_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cfg = LiPFormerConfig::small(24, 8, 2);
        let mut model = LiPFormer::new(cfg.clone(), &spec(), 5);
        model.freeze_encoders();
        let path = tmp("roundtrip.ckpt");
        save(&path, &cfg, model.store()).unwrap();

        let (header, tensors) = load(&path).unwrap();
        assert_eq!(header.config.seq_len, 24);
        assert_eq!(header.param_names.len(), model.store().len());
        assert!(header.frozen.iter().any(|&f| f), "freeze flags preserved");

        let mut fresh = LiPFormer::new(cfg, &spec(), 999);
        restore_into(&header, &tensors, fresh.store_mut()).unwrap();
        for (a, b) in model.store().ids().zip(fresh.store().ids()) {
            assert_eq!(model.store().value(a), fresh.store().value(b));
            assert_eq!(model.store().is_frozen(a), fresh.store().is_frozen(b));
        }
        assert_eq!(model.num_parameters(), fresh.num_parameters());
    }

    #[test]
    fn load_model_rebuilds_an_equivalent_model() {
        let cfg = LiPFormerConfig::small(24, 8, 2);
        let model = LiPFormer::new(cfg.clone(), &spec(), 17);
        let path = tmp("load_model.ckpt");
        save(&path, &cfg, model.store()).unwrap();

        let loaded = load_model(&path, &spec()).unwrap();
        assert!(loaded.has_enriching());
        assert_eq!(loaded.num_parameters(), model.num_parameters());
        for (a, b) in model.store().ids().zip(loaded.store().ids()) {
            assert_eq!(model.store().value(a), loaded.store().value(b));
        }

        // a spec with a different encoder layout cannot host these params
        let wrong = CovariateSpec {
            numerical: 3,
            cardinalities: vec![4],
            time_features: 4,
        };
        assert!(matches!(
            load_model(&path, &wrong),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    /// Split a checkpoint file into (header JSON, tensor-frame bytes) and
    /// rebuild it after header surgery — for forging v1 / corrupt headers.
    fn rebuild_with_header(raw: &[u8], edit: impl FnOnce(&mut Vec<(String, lip_serde::Json)>)) -> Vec<u8> {
        let header_len = u32::from_le_bytes(raw[4..8].try_into().unwrap()) as usize;
        let json: lip_serde::Json = lip_serde::from_slice(&raw[8..8 + header_len]).unwrap();
        let lip_serde::Json::Object(mut fields) = json else {
            panic!("header must be a JSON object");
        };
        edit(&mut fields);
        let new_json = lip_serde::Json::Object(fields).dump().into_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(&raw[..4]);
        out.extend_from_slice(&(new_json.len() as u32).to_le_bytes());
        out.extend_from_slice(&new_json);
        out.extend_from_slice(&raw[8 + header_len..]);
        out
    }

    #[test]
    fn short_frozen_list_is_corrupt_not_a_restore_panic() {
        let cfg = LiPFormerConfig::small(24, 8, 1);
        let model = LiPFormer::without_enriching(cfg.clone(), 2);
        let path = tmp("short_frozen.ckpt");
        save(&path, &cfg, model.store()).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let short = rebuild_with_header(&raw, |fields| {
            for (k, v) in fields.iter_mut() {
                if k == "frozen" {
                    *v = lip_serde::Json::Array(vec![]);
                }
            }
        });
        let names = model.store().len().to_string();
        match load_bytes(&short) {
            Err(CheckpointError::Corrupt(m)) => {
                assert!(m.contains(" 0 ") && m.contains(&names), "{m}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|(h, _)| h.frozen)),
        }
    }

    #[test]
    fn load_model_rejects_an_unbuildable_header() {
        let cfg = LiPFormerConfig::small(24, 8, 2);
        let model = LiPFormer::new(cfg.clone(), &spec(), 3);
        let mut hostile = cfg;
        hostile.patch_len = 7; // 24 % 7 != 0: LiPFormer::new would panic
        let path = tmp("unbuildable.ckpt");
        save(&path, &hostile, model.store()).unwrap();
        match load_model(&path, &spec()) {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("evenly divide"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn v1_monolith_checkpoint_loads_via_compat_shim() {
        // Forge a pre-stage-decomposition checkpoint: version 1, no
        // stage_layout, no config.stages field.
        let cfg = LiPFormerConfig::small(24, 8, 2);
        let model = LiPFormer::new(cfg.clone(), &spec(), 21);
        let path = tmp("v1_compat.ckpt");
        save(&path, &cfg, model.store()).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let v1 = rebuild_with_header(&raw, |fields| {
            fields.retain(|(k, _)| k != "stage_layout");
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = lip_serde::Json::Num(lip_serde::Num::U(1));
                }
                if k == "config" {
                    if let lip_serde::Json::Object(cfg_fields) = v {
                        cfg_fields.retain(|(ck, _)| ck != "stages");
                    }
                }
            }
        });
        let (header, tensors) = load_bytes(&v1).unwrap();
        assert_eq!(header.version, 1);
        assert!(header.config.stages.is_canonical());
        let layout = header.stage_layout.as_ref().expect("shim synthesizes layout");
        assert!(!layout.extraction.is_empty() && !layout.projection.is_empty());
        assert!(!layout.enriching.is_empty());
        let mut fresh = LiPFormer::new(header.config.clone(), &spec(), 0);
        restore_into(&header, &tensors, fresh.store_mut()).unwrap();
        for (a, b) in model.store().ids().zip(fresh.store().ids()) {
            assert_eq!(model.store().value(a), fresh.store().value(b));
        }
    }

    #[test]
    fn mismatched_stage_layout_rejected() {
        // A v2 checkpoint whose declared namespaces disagree with its own
        // config + parameters must not load.
        let cfg = LiPFormerConfig::small(24, 8, 1);
        let model = LiPFormer::without_enriching(cfg.clone(), 3);
        let path = tmp("bad_layout.ckpt");
        save(&path, &cfg, model.store()).unwrap();
        let raw = std::fs::read(&path).unwrap();
        // move the first extraction name into the projection namespace
        let garbled = rebuild_with_header(&raw, |fields| {
            for (k, v) in fields.iter_mut() {
                if k != "stage_layout" {
                    continue;
                }
                let lip_serde::Json::Object(layout) = v else { panic!() };
                let mut moved = None;
                for (lk, lv) in layout.iter_mut() {
                    if lk == "extraction" {
                        if let lip_serde::Json::Array(names) = lv {
                            moved = Some(names.remove(0));
                        }
                    }
                }
                for (lk, lv) in layout.iter_mut() {
                    if lk == "projection" {
                        if let lip_serde::Json::Array(names) = lv {
                            names.push(moved.take().expect("extraction had names"));
                        }
                    }
                }
            }
        });
        let err = load_bytes(&garbled).expect_err("garbled stage layout must fail");
        assert!(
            matches!(&err, CheckpointError::Corrupt(m) if m.contains("stage_layout")),
            "wrong error: {err}"
        );
        // and a v2 header with the layout stripped entirely is rejected too
        let stripped = rebuild_with_header(&raw, |fields| {
            fields.retain(|(k, _)| k != "stage_layout");
        });
        assert!(matches!(
            load_bytes(&stripped),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_stage_moves_a_backbone_across_heads() {
        use crate::config::{ProjKind, StageSpec};
        // Train-ish: a base-only model with the default composition...
        let cfg = LiPFormerConfig::small(24, 8, 2);
        let donor = LiPFormer::without_enriching(cfg.clone(), 31);
        let path = tmp("backbone.ckpt");
        save(&path, &cfg, donor.store()).unwrap();
        let (header, tensors) = load(&path).unwrap();

        // ...restores its extraction stage into a model with a *different*
        // projection head and an enriching module attached.
        let host_cfg = cfg.clone().with_stages(StageSpec {
            projection: ProjKind::FlattenLinear,
            ..StageSpec::default()
        });
        let mut host = LiPFormer::new(host_cfg, &spec(), 99);
        let moved = restore_stage(&header, &tensors, host.store_mut(), Stage::Extraction).unwrap();
        assert!(moved > 0, "extraction stage has parameters");

        // every extraction param transferred bit-exactly
        let layout = header.stage_layout.as_ref().unwrap();
        for name in &layout.extraction {
            let donor_id = donor.store().ids().find(|&i| donor.store().name(i) == name).unwrap();
            let host_id = host.store().ids().find(|&i| host.store().name(i) == name).unwrap();
            assert_eq!(donor.store().value(donor_id), host.store().value(host_id));
        }

        // a host with an incompatible extraction stage is rejected untouched
        let tst_cfg = cfg.clone().with_stages(StageSpec {
            extraction: crate::config::ExtractKind::PatchTst,
            ..StageSpec::default()
        });
        let mut wrong = LiPFormer::without_enriching(tst_cfg, 7);
        let before: Vec<Tensor> = wrong.store().ids().map(|i| wrong.store().value(i).clone()).collect();
        assert!(matches!(
            restore_stage(&header, &tensors, wrong.store_mut(), Stage::Extraction),
            Err(CheckpointError::Mismatch(_))
        ));
        for (i, id) in wrong.store().ids().enumerate() {
            assert_eq!(&before[i], wrong.store().value(id), "failed restore must not mutate");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic.ckpt");
        std::fs::write(&path, [0u8; 64]).unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected() {
        let cfg = LiPFormerConfig::small(24, 8, 1);
        let model = LiPFormer::without_enriching(cfg.clone(), 1);
        let path = tmp("trunc.ckpt");
        save(&path, &cfg, model.store()).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw.truncate(raw.len() / 2);
        let path2 = tmp("trunc2.ckpt");
        std::fs::write(&path2, raw).unwrap();
        assert!(load(&path2).is_err());
    }

    #[test]
    fn architecture_mismatch_rejected() {
        let cfg_small = LiPFormerConfig::small(24, 8, 1);
        let model = LiPFormer::without_enriching(cfg_small.clone(), 1);
        let path = tmp("mismatch.ckpt");
        save(&path, &cfg_small, model.store()).unwrap();
        let (header, tensors) = load(&path).unwrap();

        let mut cfg_big = LiPFormerConfig::small(24, 8, 1);
        cfg_big.hidden = 2 * cfg_small.hidden;
        let mut other = LiPFormer::without_enriching(cfg_big, 1);
        assert!(matches!(
            restore_into(&header, &tensors, other.store_mut()),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
