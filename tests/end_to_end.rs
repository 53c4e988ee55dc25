//! End-to-end integration: every benchmark flows through generation →
//! preparation → LiPFormer training → evaluation, and the trained model
//! beats the naive last-value forecaster.

use lip_data::pipeline::prepare;
use lip_data::{generate, DatasetName};
use lip_eval::runner::{prepare_dataset, run_prepared, RunSpec};
use lip_eval::{ModelKind, RunScale};
use lipformer::{ForecastMetrics, LiPFormer, LiPFormerConfig, TrainConfig, Trainer};

#[test]
fn every_benchmark_trains_and_evaluates() {
    let scale = RunScale::smoke(41);
    for dataset in DatasetName::all() {
        let spec = RunSpec {
            kind: ModelKind::LiPFormer,
            dataset,
            pred_len: scale.horizons[0],
            univariate: false,
        };
        let r = lip_eval::run_one(&spec, &scale);
        assert!(r.mse.is_finite() && r.mse > 0.0, "{dataset:?} mse {}", r.mse);
        assert!(r.mae.is_finite() && r.mae > 0.0, "{dataset:?} mae {}", r.mae);
        assert!(r.eff.macs > 0 && r.eff.params > 0, "{dataset:?} efficiency");
    }
}

#[test]
fn trained_lipformer_beats_naive_forecaster() {
    let scale = RunScale::smoke(42);
    let (_, prep) = prepare_dataset(DatasetName::ETTh1, &scale, 24, false);

    // naive: repeat the last observed value
    let idx: Vec<usize> = (0..prep.test.len()).collect();
    let batch = prep.test.batch(&idx);
    let (b, t, c) = (
        batch.x.shape()[0],
        batch.x.shape()[1],
        batch.x.shape()[2],
    );
    let naive = batch.x.slice_axis(1, t - 1, t).broadcast_to(&[b, 24, c]);
    let naive_mse = naive.sub(&batch.y).square().mean().item();

    let mut scale2 = scale.clone();
    scale2.train.epochs = 6;
    scale2.train.lr = 1e-2;
    let spec = RunSpec {
        kind: ModelKind::LiPFormer,
        dataset: DatasetName::ETTh1,
        pred_len: 24,
        univariate: false,
    };
    let r = run_prepared(&spec, &scale2, &prep);
    assert!(
        r.mse < naive_mse * 0.9,
        "LiPFormer {} should beat naive {naive_mse}",
        r.mse
    );
}

#[test]
fn training_protocol_reports_are_consistent() {
    let ds = generate(DatasetName::ETTm2, lip_data::GeneratorConfig::test(43));
    let prep = prepare(&ds, 48, 12);
    let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    let mut model = LiPFormer::new(cfg, &prep.spec, 43);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 3,
        pretrain_epochs: 2,
        batch_size: 32,
        ..TrainConfig::fast()
    });
    let pre = trainer.pretrain(&mut model, &prep.train);
    let report = trainer.fit(&mut model, &prep.train, &prep.val);
    assert_eq!(pre.len(), 2);
    assert_eq!(report.pretrain_losses, pre);
    assert_eq!(report.train_losses.len(), report.epochs_run);
    assert_eq!(report.val_losses.len(), report.epochs_run);
    assert_eq!(report.epoch_seconds.len(), report.epochs_run);
    assert!(report.best_epoch < report.epochs_run);
    // the best val loss is genuinely the minimum observed
    let min_val = report
        .val_losses
        .iter()
        .copied()
        .fold(f32::INFINITY, f32::min);
    assert!((report.best_val_loss - min_val).abs() < 1e-6);
    // and evaluating the restored model reproduces it
    let again = ForecastMetrics::evaluate(&model, &prep.val, 32);
    assert!((again.mse - report.best_val_loss).abs() < 1e-4);
}

#[test]
fn covariate_dataset_flows_through_lipformer() {
    let scale = RunScale::smoke(44);
    let (ds, prep) = prepare_dataset(DatasetName::Cycle, &scale, scale.horizons[0], false);
    assert!(ds.covariates.is_some());
    assert!(prep.spec.has_explicit());
    let spec = RunSpec {
        kind: ModelKind::LiPFormer,
        dataset: DatasetName::Cycle,
        pred_len: scale.horizons[0],
        univariate: false,
    };
    let r = run_prepared(&spec, &scale, &prep);
    assert!(r.mse.is_finite());
}

/// A usage error exits 2 even when stderr cannot be written: the binary
/// must not panic (exit 101) on a full device.
#[test]
fn cli_usage_error_exits_2_with_stderr_on_dev_full() {
    let full = match std::fs::OpenOptions::new().write(true).open("/dev/full") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("skipping: cannot open /dev/full: {e}");
            return;
        }
    };
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_lipformer_cli"))
        .arg("--bogus-flag")
        .stdout(std::process::Stdio::null())
        .stderr(full)
        .status()
        .expect("run lipformer_cli");
    assert_eq!(status.code(), Some(2), "usage error with stderr on /dev/full");
}
