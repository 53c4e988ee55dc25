//! Checkpoint/restore integration: binary tensor frames round-trip trained
//! models through disk with bit-exact predictions.

use lip_autograd::Graph;
use lip_data::pipeline::prepare;
use lip_data::{generate, CovariateSpec, DatasetName, GeneratorConfig};
use lip_tensor::Tensor;
use lipformer::checkpoint::{self, CheckpointError};
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig, TrainConfig, Trainer};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;

/// Write a small valid checkpoint and return (path, file bytes).
fn valid_checkpoint(name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let spec = CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    };
    let mut cfg = LiPFormerConfig::small(24, 8, 2);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    let model = LiPFormer::new(cfg.clone(), &spec, 77);
    let dir = std::env::temp_dir().join("lipformer_ckpt_corruption");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    checkpoint::save(&path, &cfg, model.store()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn trained_model_roundtrips_through_disk() {
    let ds = generate(DatasetName::ETTh1, GeneratorConfig::test(81));
    let prep = prepare(&ds, 48, 12);
    let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    let mut model = LiPFormer::new(cfg.clone(), &prep.spec, 81);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        pretrain_epochs: 1,
        ..TrainConfig::fast()
    });
    trainer.pretrain(&mut model, &prep.train);
    trainer.fit(&mut model, &prep.train, &prep.val);

    // write every parameter as a binary frame
    let dir = std::env::temp_dir().join("lipformer_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = model.store().snapshot();
    for (i, t) in snapshot.iter().enumerate() {
        std::fs::write(dir.join(format!("{i}.bin")), t.to_bytes()).unwrap();
    }

    // reload into a structurally identical fresh model
    let mut fresh = LiPFormer::new(cfg, &prep.spec, 999); // different init seed
    let restored: Vec<Tensor> = (0..snapshot.len())
        .map(|i| {
            let raw = std::fs::read(dir.join(format!("{i}.bin"))).unwrap();
            Tensor::from_bytes(&raw[..]).unwrap()
        })
        .collect();
    fresh.store_mut().restore(&restored);

    let batch = prep.test.batch(&[0, 1]);
    let predict = |m: &LiPFormer| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new(m.store());
        let y = m.forward(&mut g, &batch, false, &mut rng);
        g.value(y).clone()
    };
    assert_eq!(
        predict(&model),
        predict(&fresh),
        "restored model must predict identically"
    );
}

#[test]
fn corrupted_checkpoint_is_rejected() {
    let t = Tensor::arange(10);
    let mut raw = t.to_bytes().to_vec();
    raw.truncate(raw.len() - 3);
    assert!(Tensor::from_bytes(&raw[..]).is_err());
}

/// Truncating the file inside the JSON header must surface a clean
/// [`CheckpointError`], never a panic or a partial load.
#[test]
fn truncated_header_is_rejected_cleanly() {
    let (path, bytes) = valid_checkpoint("trunc_header.ckpt");
    // layout: magic:u32 | header_len:u32 | header JSON | frames.
    // Cut the file in the middle of the header JSON.
    let header_len =
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    assert!(header_len > 8, "test premise: header is non-trivial");
    let cut = 8 + header_len / 2;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let err = checkpoint::load(&path).expect_err("truncated header must fail");
    assert!(
        matches!(err, CheckpointError::Corrupt(_) | CheckpointError::Io(_)),
        "unexpected error kind: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Garbling bytes inside the JSON header must yield `Corrupt`, not a panic.
#[test]
fn garbled_header_is_rejected_cleanly() {
    let (path, mut bytes) = valid_checkpoint("garbled_header.ckpt");
    let header_len =
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    // smash a run of bytes in the middle of the header JSON with invalid
    // UTF-8 / JSON noise
    let start = 8 + header_len / 3;
    for b in &mut bytes[start..start + (header_len / 3).max(1)] {
        *b = 0xFF;
    }
    std::fs::write(&path, &bytes).unwrap();
    let err = checkpoint::load(&path).expect_err("garbled header must fail");
    assert!(
        matches!(err, CheckpointError::Corrupt(_)),
        "expected Corrupt, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A header length that claims more bytes than the file holds must be
/// rejected cleanly (no over-read, no panic).
#[test]
fn lying_header_length_is_rejected_cleanly() {
    let (path, mut bytes) = valid_checkpoint("lying_len.ckpt");
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = checkpoint::load(&path).expect_err("lying header_len must fail");
    assert!(
        matches!(err, CheckpointError::Corrupt(_) | CheckpointError::Io(_)),
        "unexpected error kind: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Full-file round trip through the real checkpoint API: load restores a
/// model that predicts bit-identically.
#[test]
fn checkpoint_api_roundtrips_bit_exactly() {
    let (path, _) = valid_checkpoint("roundtrip_api.ckpt");
    let (header, tensors) = checkpoint::load(&path).unwrap();
    assert_eq!(header.version, checkpoint::FORMAT_VERSION);
    assert!(
        header.stage_layout.is_some(),
        "a freshly saved checkpoint must carry its stage layout"
    );
    assert_eq!(header.param_names.len(), tensors.len());

    let spec = CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    };
    // different init seed: restore must overwrite every parameter
    let mut fresh = LiPFormer::new(header.config.clone(), &spec, 123_456);
    checkpoint::restore_into(&header, &tensors, fresh.store_mut()).unwrap();
    let reference = LiPFormer::new(header.config.clone(), &spec, 77);
    assert_eq!(
        fresh.store().snapshot(),
        reference.store().snapshot(),
        "restored parameters must match the saved model exactly"
    );
    std::fs::remove_file(&path).ok();
}

/// A NaN or ±Inf weight must be refused at load with a typed error naming
/// the parameter — never decoded into a model that forecasts non-finite
/// values.
#[test]
fn non_finite_parameter_is_rejected_by_name() {
    let (path, _) = valid_checkpoint("non_finite.ckpt");
    let (header, tensors) = checkpoint::load(&path).unwrap();
    let spec = CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    };
    for (which, bad) in [(0, f32::NAN), (tensors.len() - 1, f32::INFINITY)] {
        let mut poisoned = tensors.clone();
        let mut data = poisoned[which].contiguous().data().to_vec();
        let at = data.len() / 2;
        data[at] = bad;
        poisoned[which] = Tensor::from_vec(data, poisoned[which].shape());
        let mut model = LiPFormer::new(header.config.clone(), &spec, 0);
        model.store_mut().restore(&poisoned);
        checkpoint::save(&path, &header.config, model.store()).unwrap();

        let name = &header.param_names[which];
        match checkpoint::load(&path) {
            Err(CheckpointError::Corrupt(m)) => assert!(
                m.contains(&format!("'{name}'")) && m.contains(&format!("{bad} at element {at}")),
                "error must name parameter '{name}' and the {bad}: {m}"
            ),
            Err(e) => panic!("{bad} in '{name}': wrong error kind: {e}"),
            Ok(_) => panic!("{bad} in '{name}' loaded"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_restore_checks_shapes() {
    let ds = generate(DatasetName::ETTh2, GeneratorConfig::test(82));
    let prep = prepare(&ds, 48, 12);
    let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
    cfg.hidden = 16;
    let model = LiPFormer::without_enriching(cfg.clone(), 1);
    // a snapshot from a *different architecture* must be rejected
    cfg.hidden = 32;
    let bigger = LiPFormer::without_enriching(cfg, 1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut m = bigger;
        m.store_mut().restore(&model.store().snapshot());
    }));
    assert!(result.is_err(), "shape-mismatched restore must panic");
}
