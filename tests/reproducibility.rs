//! Determinism guarantees: the whole stack — generation, batching, dropout,
//! training — is a pure function of the seeds.

use lip_data::pipeline::prepare;
use lip_data::window::Batch;
use lip_data::{generate, CovariateSpec, DatasetName, GeneratorConfig};
use lip_eval::runner::{run_one, RunSpec};
use lip_eval::{ModelKind, RunScale};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lip_tensor::Tensor;
use lipformer::{Forecaster, ForecastMetrics, LiPFormer, LiPFormerConfig, TrainConfig, Trainer};

#[test]
fn identical_seeds_give_identical_runs() {
    let run = || {
        let scale = RunScale::smoke(71);
        run_one(
            &RunSpec {
                kind: ModelKind::LiPFormer,
                dataset: DatasetName::ETTh1,
                pred_len: 12,
                univariate: false,
            },
            &scale,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.mse.to_bits(), b.mse.to_bits(), "MSE must be bit-identical");
    assert_eq!(a.mae.to_bits(), b.mae.to_bits(), "MAE must be bit-identical");
    assert_eq!(a.eff.macs, b.eff.macs);
    assert_eq!(a.eff.params, b.eff.params);
}

#[test]
fn different_data_seeds_give_different_results() {
    let run = |seed| {
        let scale = RunScale::smoke(seed);
        run_one(
            &RunSpec {
                kind: ModelKind::DLinear,
                dataset: DatasetName::ETTh2,
                pred_len: 12,
                univariate: false,
            },
            &scale,
        )
    };
    assert_ne!(run(1).mse.to_bits(), run(2).mse.to_bits());
}

#[test]
fn different_model_seeds_give_different_models() {
    let ds = generate(DatasetName::ETTh1, GeneratorConfig::test(72));
    let prep = prepare(&ds, 48, 12);
    let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    let train = |model_seed: u64| {
        let mut model = LiPFormer::new(cfg.clone(), &prep.spec, model_seed);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 1,
            pretrain_epochs: 0,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut model, &prep.train, &prep.val);
        ForecastMetrics::evaluate(&model, &prep.test, 64).mse
    };
    assert_ne!(train(1).to_bits(), train(2).to_bits());
}

#[test]
fn dropout_seed_controls_training_stochasticity() {
    let ds = generate(DatasetName::ETTm1, GeneratorConfig::test(73));
    let prep = prepare(&ds, 48, 12);
    let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    cfg.dropout = 0.3;
    let train = |trainer_seed: u64| {
        let mut model = LiPFormer::new(cfg.clone(), &prep.spec, 9);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 1,
            pretrain_epochs: 0,
            seed: trainer_seed,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut model, &prep.train, &prep.val);
        ForecastMetrics::evaluate(&model, &prep.test, 64).mse
    };
    // same trainer seed reproduces; different one diverges (dropout masks +
    // shuffle order differ)
    assert_eq!(train(5).to_bits(), train(5).to_bits());
    assert_ne!(train(5).to_bits(), train(6).to_bits());
}

#[test]
fn seeded_initializers_are_byte_identical() {
    // randn: same seed → identical binary frames
    let a = Tensor::randn(&[32, 8], &mut StdRng::seed_from_u64(99)).to_bytes();
    let b = Tensor::randn(&[32, 8], &mut StdRng::seed_from_u64(99)).to_bytes();
    assert_eq!(a, b, "randn must be byte-identical per seed");
    assert_ne!(
        a,
        Tensor::randn(&[32, 8], &mut StdRng::seed_from_u64(100)).to_bytes(),
        "different seeds must differ"
    );
    // kaiming: same seed → identical binary frames
    let k1 = Tensor::kaiming_uniform(64, 16, &mut StdRng::seed_from_u64(5)).to_bytes();
    let k2 = Tensor::kaiming_uniform(64, 16, &mut StdRng::seed_from_u64(5)).to_bytes();
    assert_eq!(k1, k2, "kaiming_uniform must be byte-identical per seed");
}

#[test]
fn same_seed_gives_identical_forward_logits() {
    let spec = CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    };
    let mut cfg = LiPFormerConfig::small(24, 8, 2);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    let batch = {
        let mut rng = StdRng::seed_from_u64(3);
        Batch {
            x: Tensor::randn(&[4, 24, 2], &mut rng),
            y: Tensor::randn(&[4, 8, 2], &mut rng),
            time_feats: Tensor::randn(&[4, 8, 4], &mut rng).mul_scalar(0.2),
            cov_numerical: None,
            cov_categorical: None,
        }
    };
    let logits = || {
        let model = LiPFormer::new(cfg.clone(), &spec, 1234);
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = lip_autograd::Graph::new(model.store());
        let y = model.forward(&mut g, &batch, false, &mut rng);
        g.value(y).to_bytes()
    };
    assert_eq!(
        logits(),
        logits(),
        "two fresh models from the same seed must emit bit-identical logits"
    );
}

/// A small but complete forward fixture shared by the thread-invariance
/// tests: model construction, one forward pass, serialized logits.
fn forward_logit_bytes() -> Vec<u8> {
    let spec = CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    };
    let mut cfg = LiPFormerConfig::small(24, 8, 2);
    cfg.hidden = 16;
    cfg.encoder_hidden = 16;
    let batch = {
        let mut rng = StdRng::seed_from_u64(3);
        Batch {
            x: Tensor::randn(&[4, 24, 2], &mut rng),
            y: Tensor::randn(&[4, 8, 2], &mut rng),
            time_feats: Tensor::randn(&[4, 8, 4], &mut rng).mul_scalar(0.2),
            cov_numerical: None,
            cov_categorical: None,
        }
    };
    let model = LiPFormer::new(cfg, &spec, 1234);
    let mut rng = StdRng::seed_from_u64(0);
    let mut g = lip_autograd::Graph::new(model.store());
    let y = model.forward(&mut g, &batch, false, &mut rng);
    g.value(y).to_bytes()
}

/// The lip-par contract, end to end: a full model forward must emit
/// bit-identical logits whether the kernels run on 1 thread or
/// oversubscribed on 4.
#[test]
fn forward_logits_invariant_across_thread_budgets() {
    let serial = lip_par::with_threads(1, forward_logit_bytes);
    for threads in [2usize, 4] {
        let par = lip_par::with_threads(threads, forward_logit_bytes);
        assert_eq!(
            serial, par,
            "forward logits must not depend on the thread budget ({threads} threads)"
        );
    }
}

/// Two epochs of real training — dropout, shuffling, optimizer state,
/// gradient accumulation through every parallel backward path — must leave
/// every parameter byte-identical across thread budgets.
#[test]
fn two_epoch_training_invariant_across_thread_budgets() {
    let train_param_bytes = || {
        let ds = generate(DatasetName::ETTh1, GeneratorConfig::test(74));
        let prep = prepare(&ds, 48, 12);
        let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
        cfg.hidden = 16;
        cfg.encoder_hidden = 16;
        cfg.dropout = 0.2;
        let mut model = LiPFormer::new(cfg, &prep.spec, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            pretrain_epochs: 0,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut model, &prep.train, &prep.val);
        let store = model.store();
        let mut bytes = Vec::new();
        for id in store.ids() {
            bytes.extend_from_slice(store.name(id).as_bytes());
            bytes.extend_from_slice(&store.value(id).to_bytes());
        }
        (bytes, ForecastMetrics::evaluate(&model, &prep.test, 64).mse)
    };
    let (serial_bytes, serial_mse) = lip_par::with_threads(1, train_param_bytes);
    let (par_bytes, par_mse) = lip_par::with_threads(4, train_param_bytes);
    assert_eq!(
        serial_bytes, par_bytes,
        "trained parameters must be byte-identical on 1 vs 4 threads"
    );
    assert_eq!(serial_mse.to_bits(), par_mse.to_bits());
}

/// FNV-1a over a byte stream — tiny, dependency-free, and stable across
/// platforms; good enough to pin golden outputs without embedding them.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden regression: the forward logits of the fixed fixture must match the
/// hash captured on pre-strided-view `main`. The strided refactor promised
/// *bit-identical* numerics — any kernel change that reorders a single
/// floating-point operation trips this.
#[test]
fn forward_logits_match_pre_refactor_golden_hash() {
    let bytes = lip_par::with_threads(1, forward_logit_bytes);
    assert_eq!(bytes.len(), 288, "fixture shape drifted");
    assert_eq!(
        fnv1a(&bytes),
        0x9f40_8c68_9529_80e1,
        "forward logits diverged from the pre-refactor golden output"
    );
}

/// Golden regression for the full training loop: two epochs on the fixed
/// fixture must reproduce the exact parameter bytes (and test MSE bits)
/// captured on pre-strided-view `main`.
#[test]
fn two_epoch_training_matches_pre_refactor_golden_hash() {
    let (bytes, mse) = lip_par::with_threads(1, || {
        let ds = generate(DatasetName::ETTh1, GeneratorConfig::test(74));
        let prep = prepare(&ds, 48, 12);
        let mut cfg = LiPFormerConfig::small(48, 12, prep.channels);
        cfg.hidden = 16;
        cfg.encoder_hidden = 16;
        cfg.dropout = 0.2;
        let mut model = LiPFormer::new(cfg, &prep.spec, 7);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            pretrain_epochs: 0,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut model, &prep.train, &prep.val);
        let store = model.store();
        let mut bytes = Vec::new();
        for id in store.ids() {
            bytes.extend_from_slice(store.name(id).as_bytes());
            bytes.extend_from_slice(&store.value(id).to_bytes());
        }
        (bytes, ForecastMetrics::evaluate(&model, &prep.test, 64).mse)
    });
    assert_eq!(bytes.len(), 37563, "parameter inventory drifted");
    assert_eq!(
        fnv1a(&bytes),
        0xb30b_11c1_130d_44d5,
        "trained parameters diverged from the pre-refactor golden output"
    );
    assert_eq!(
        mse.to_bits(),
        0x3f6c_572f,
        "post-training test MSE diverged from the pre-refactor golden value"
    );
}

/// The `LIP_THREADS` env override itself (resolved once per process) must
/// produce identical logits across processes pinned to different budgets,
/// and each process must resolve the budget the variable asks for: its
/// value when it parses (`0` counts as 1), else the available parallelism.
/// Reuses the re-exec pattern: each child is a fresh process with its own
/// `LIP_THREADS`, writing the serialized logits and its budget for the
/// parent to compare.
#[test]
fn forward_logits_identical_across_lip_threads_env() {
    if let Ok(out) = std::env::var("LIP_REPRO_LOGITS_OUT") {
        // child mode: one forward pass under this process's LIP_THREADS
        std::fs::write(&out, forward_logit_bytes()).unwrap();
        std::fs::write(format!("{out}.threads"), lip_par::max_threads().to_string()).unwrap();
        return;
    }

    let dir = std::env::temp_dir().join("lipformer_repro_threads");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().expect("test binary path");
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cases = [
        (Some("1"), 1),
        (Some("4"), 4),
        (None, available),
        (Some("0"), 1),
        (Some("junk"), available),
    ];
    let mut outputs = Vec::new();
    for (k, (threads, budget)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("logits_{k}.bin"));
        let mut child = std::process::Command::new(&exe);
        child
            .args([
                "forward_logits_identical_across_lip_threads_env",
                "--exact",
                "--nocapture",
            ])
            .env("LIP_REPRO_LOGITS_OUT", &path);
        match threads {
            Some(v) => child.env("LIP_THREADS", v),
            None => child.env_remove("LIP_THREADS"),
        };
        let status = child.status().expect("spawn child test process");
        assert!(status.success(), "child with LIP_THREADS={threads:?} failed");
        let threads_path = format!("{}.threads", path.display());
        let resolved = std::fs::read_to_string(&threads_path).unwrap();
        assert_eq!(resolved, budget.to_string(), "budget under LIP_THREADS={threads:?}");
        outputs.push((threads, std::fs::read(&path).unwrap()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&threads_path).ok();
    }
    assert!(!outputs[0].1.is_empty());
    for (threads, logits) in &outputs[1..] {
        assert_eq!(
            &outputs[0].1, logits,
            "LIP_THREADS=1 and LIP_THREADS={threads:?} must emit byte-identical logits"
        );
    }
}

/// Checkpoint files must be byte-identical across *separate processes* for
/// the same seed. The test re-execs itself (libtest filter + env marker) so
/// each checkpoint is produced by a genuinely fresh process: fresh ASLR,
/// fresh allocator, fresh global state.
#[test]
fn checkpoint_files_identical_across_fresh_processes() {
    let write_checkpoint = |path: &std::path::Path| {
        let spec = CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        };
        let mut cfg = LiPFormerConfig::small(24, 8, 2);
        cfg.hidden = 16;
        cfg.encoder_hidden = 16;
        let model = LiPFormer::new(cfg.clone(), &spec, 4242);
        lipformer::checkpoint::save(path, &cfg, model.store()).unwrap();
    };

    if let Ok(out) = std::env::var("LIP_REPRO_CHILD_OUT") {
        // child mode: write the checkpoint and stop
        write_checkpoint(std::path::Path::new(&out));
        return;
    }

    let dir = std::env::temp_dir().join("lipformer_repro_proc");
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [dir.join("run_a.ckpt"), dir.join("run_b.ckpt")];
    let exe = std::env::current_exe().expect("test binary path");
    for p in &paths {
        let status = std::process::Command::new(&exe)
            .args([
                "checkpoint_files_identical_across_fresh_processes",
                "--exact",
                "--nocapture",
            ])
            .env("LIP_REPRO_CHILD_OUT", p)
            .status()
            .expect("spawn child test process");
        assert!(status.success(), "child process failed");
    }
    let a = std::fs::read(&paths[0]).unwrap();
    let b = std::fs::read(&paths[1]).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "checkpoint bytes must match across fresh processes");
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}
