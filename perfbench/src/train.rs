//! The `train` workload: `Trainer::pretrain` (contrastive, dual encoders)
//! then `Trainer::fit` for a fixed number of epochs on ElectriPrice at
//! B = 32, in-process. Patience equals the epoch count, so a run never
//! stops early.
//!
//! Untraced, the run repeats whole training rounds from the same seed and
//! checks that every round ends with the same parameter hash. Traced, it
//! replays one round through the loop's public calls under spans and checks
//! that the replay ends with the parameter hash and loss bits of
//! `Trainer::fit`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use lip_autograd::{Graph, ParamStore};
use lip_data::pipeline::prepare;
use lip_data::window::WindowDataset;
use lip_data::{generate, CovariateSpec, DatasetName, GeneratorConfig};
use lip_nn::{AdamW, EarlyStopping, GradClip, Optimizer};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lipformer::{
    ForecastMetrics, Forecaster, LiPFormer, LiPFormerConfig, TrainConfig, TrainReport, Trainer,
    WeaklySupervised,
};

use crate::fixture::{self, Staged, PRED_LEN, SEQ_LEN};
use crate::report::{Outcome, Phase};
use crate::sys::{self, bits_hash, median, quantile};
use crate::trace::Tracer;
use crate::Args;

/// Prediction-training epochs per round.
pub const EPOCHS: usize = 2;
/// Contrastive pre-training epochs per round.
pub const PRETRAIN_EPOCHS: usize = 1;
/// Mini-batch size.
pub const BATCH: usize = 32;
/// Training windows used (the first of the ElectriPrice train split).
pub const TRAIN_WINDOWS: usize = 1024;
/// Latency limit of one optimizer step, milliseconds.
pub const STEP_SLO_MS: f64 = 100.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Workload batches the traced run times stage by stage.
const STAGE_BATCHES: usize = 8;

/// The training inputs.
struct Data {
    train: WindowDataset,
    val: WindowDataset,
    spec: CovariateSpec,
    config: LiPFormerConfig,
    model_seed: u64,
    train_config: TrainConfig,
}

impl Data {
    /// Generate and prepare ElectriPrice, and build the model once.
    fn setup(seed: u64) -> Data {
        let ds = generate(DatasetName::ElectriPrice, GeneratorConfig::bench(seed));
        let prep = prepare(&ds, SEQ_LEN, PRED_LEN);
        let config = LiPFormerConfig::small(SEQ_LEN, PRED_LEN, prep.channels);
        let data = Data {
            train: prep.train.truncated(TRAIN_WINDOWS),
            val: prep.val,
            spec: prep.spec,
            config,
            model_seed: fixture::model_seed(seed, 0),
            train_config: TrainConfig {
                epochs: EPOCHS,
                pretrain_epochs: PRETRAIN_EPOCHS,
                batch_size: BATCH,
                patience: EPOCHS,
                seed: seed ^ 0x7ea1_0000,
                ..TrainConfig::fast()
            },
        };
        std::hint::black_box(data.model());
        data
    }

    fn model(&self) -> LiPFormer {
        LiPFormer::new(self.config.clone(), &self.spec, self.model_seed)
    }

    /// `(windows, optimizer steps)` of one pre-training epoch and of one
    /// prediction-training epoch (pre-training skips batches of one).
    fn per_epoch(&self) -> ((u64, u64), (u64, u64)) {
        let chunks =
            WindowDataset::batch_indices(&(0..self.train.len()).collect::<Vec<_>>(), BATCH);
        let pairs: Vec<&Vec<usize>> = chunks.iter().filter(|c| c.len() >= 2).collect();
        (
            (
                pairs.iter().map(|c| c.len() as u64).sum(),
                pairs.len() as u64,
            ),
            (self.train.len() as u64, chunks.len() as u64),
        )
    }

    /// Windows and optimizer steps of one whole round.
    fn round_work(&self) -> (u64, u64) {
        let ((pw, ps), (fw, fs)) = self.per_epoch();
        let (p, e) = (PRETRAIN_EPOCHS as u64, EPOCHS as u64);
        (pw * p + fw * e, ps * p + fs * e)
    }
}

/// fnv1a over every parameter's bits, in registration order.
fn param_hash(store: &ParamStore) -> u64 {
    let all: Vec<f32> = store
        .ids()
        .flat_map(|id| store.value(id).to_vec())
        .collect();
    bits_hash(&all)
}

/// Every loss a round reports, as bits.
fn loss_bits(pretrain: &[f32], report: &TrainReport) -> Vec<u32> {
    pretrain
        .iter()
        .chain(&report.train_losses)
        .chain(&report.val_losses)
        .chain(std::iter::once(&report.best_val_loss))
        .map(|l| l.to_bits())
        .collect()
}

/// One training round's result.
struct Round {
    hash: u64,
    losses: Vec<u32>,
    wall: Duration,
    /// Mean optimizer-step time of each prediction-training epoch, ms.
    step_ms: Vec<f64>,
}

/// `Trainer::pretrain` then `Trainer::fit` on a fresh model.
fn trainer_round(d: &Data) -> Round {
    let started = Instant::now();
    let mut model = d.model();
    let mut trainer = Trainer::new(d.train_config.clone());
    let pretrain = trainer.pretrain(&mut model, &d.train);
    let report = trainer.fit(&mut model, &d.train, &d.val);
    let wall = started.elapsed();
    let fit_steps = d.per_epoch().1 .1 as f64;
    Round {
        hash: param_hash(model.store()),
        losses: loss_bits(&pretrain, &report),
        wall,
        step_ms: report
            .epoch_seconds
            .iter()
            .map(|s| s * 1e3 / fit_steps)
            .collect(),
    }
}

fn optimize(
    model: &mut LiPFormer,
    grads: lip_autograd::Gradients,
    opt: &mut AdamW,
    clip: Option<f32>,
) {
    grads.apply_to(model.store_mut());
    if let Some(c) = clip {
        GradClip::new(c).apply(model.store_mut());
    }
    opt.step(model.store_mut());
}

/// The `Trainer::pretrain` + `Trainer::fit` loop replayed through its
/// public calls under spans. Returns the trained model and its round.
fn replay(d: &Data, tr: &mut Tracer) -> (LiPFormer, Round) {
    let started = Instant::now();
    let cfg = &d.train_config;
    let mut model = d.model();
    let mut step = 0u64;

    let mut opt = AdamW::new(cfg.lr, 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
    let mut pretrain = Vec::new();
    for _ in 0..cfg.pretrain_epochs {
        let order = d.train.epoch_order(true, &mut rng);
        let (mut sum, mut batches) = (0.0f64, 0usize);
        for chunk in WindowDataset::batch_indices(&order, cfg.batch_size) {
            if chunk.len() < 2 {
                continue;
            }
            let root = tr.open("train.pretrain_step", step);
            let batch = tr.time("lip-data.batch", step, || d.train.batch(&chunk));
            let contrastive = tr.open("lipformer.contrastive", step);
            let grads = {
                let mut g = Graph::new(model.store());
                let loss = model.contrastive_loss(&mut g, &batch);
                sum += g.value(loss).item() as f64;
                tr.time("lip-autograd.backward", step, || g.backward(loss))
            };
            tr.close(contrastive);
            tr.time("lip-nn.optim", step, || {
                optimize(&mut model, grads, &mut opt, cfg.clip)
            });
            tr.close(root);
            batches += 1;
            step += 1;
        }
        pretrain.push(if batches == 0 {
            f32::NAN
        } else {
            (sum / batches as f64) as f32
        });
    }
    model.freeze_encoders();

    let mut opt = AdamW::new(cfg.lr, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stopper = EarlyStopping::new(cfg.patience);
    let mut best = model.store().snapshot();
    let mut report = TrainReport {
        epochs_run: 0,
        best_epoch: 0,
        best_val_loss: f32::INFINITY,
        train_losses: Vec::new(),
        val_losses: Vec::new(),
        epoch_seconds: Vec::new(),
        pretrain_losses: pretrain.clone(),
    };
    for epoch in 0..cfg.epochs {
        opt.set_lr(cfg.schedule.lr_at(cfg.lr, epoch));
        let order = d.train.epoch_order(true, &mut rng);
        let (mut sum, mut batches) = (0.0f64, 0usize);
        for chunk in WindowDataset::batch_indices(&order, cfg.batch_size) {
            let root = tr.open("train.fit_step", step);
            let batch = tr.time("lip-data.batch", step, || d.train.batch(&chunk));
            let grads = {
                let mut g = Graph::new(model.store());
                let forward = tr.open("lipformer.forward_loss", step);
                let pred = model.forward(&mut g, &batch, true, &mut rng);
                let target = g.constant(batch.y.clone());
                let loss = g.smooth_l1_loss(pred, target, cfg.smooth_l1_beta);
                sum += g.value(loss).item() as f64;
                tr.close(forward);
                tr.time("lip-autograd.backward", step, || g.backward(loss))
            };
            tr.time("lip-nn.optim", step, || {
                optimize(&mut model, grads, &mut opt, cfg.clip)
            });
            tr.close(root);
            batches += 1;
            step += 1;
        }
        report
            .train_losses
            .push((sum / batches.max(1) as f64) as f32);
        report.epochs_run = epoch + 1;
        let val = if d.val.is_empty() {
            report.train_losses[epoch]
        } else {
            tr.time("lipformer.eval", epoch as u64, || {
                ForecastMetrics::evaluate(&model, &d.val, cfg.batch_size).mse
            })
        };
        report.val_losses.push(val);
        if stopper.observe(epoch, val) {
            best = model.store().snapshot();
        }
        if stopper.should_stop() {
            break;
        }
    }
    model.store_mut().restore(&best);
    report.best_val_loss = stopper.best();
    let round = Round {
        hash: param_hash(model.store()),
        losses: loss_bits(&pretrain, &report),
        wall: started.elapsed(),
        step_ms: tr
            .durations_us("train.fit_step")
            .iter()
            .map(|us| us / 1e3)
            .collect(),
    };
    (model, round)
}

/// The end-to-end metrics of `rounds`, whose `step_ms` samples are taken
/// as optimizer-step latencies.
fn end_to_end(
    d: &Data,
    rounds: &[Round],
    cpu_ms: f64,
    ok_share: f64,
    setup_s: &[f64],
) -> BTreeMap<&'static str, f64> {
    let (windows, _) = d.round_work();
    let windows = windows as f64 * rounds.len() as f64;
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let mut steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    steps.sort_by(f64::total_cmp);
    let within = steps.iter().filter(|&&s| s <= STEP_SLO_MS).count() as f64;
    BTreeMap::from([
        ("throughput_wps", windows / wall),
        ("latency_p50_ms", quantile(&steps, 0.50)),
        ("slo_share", within / steps.len().max(1) as f64),
        ("cpu_ms_per_window", cpu_ms / windows),
        ("peak_rss_mb", sys::peak_rss_mb("self").unwrap_or(0.0)),
        ("setup_s", median(setup_s)),
        ("ok_share", ok_share),
    ])
}

fn self_cpu() -> Result<f64, String> {
    sys::cpu_ms("self").ok_or_else(|| "cannot read /proc/self/stat".to_string())
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        data = Some(Data::setup(args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let d = data.expect("at least one set-up");
    let (round_windows, round_steps) = d.round_work();

    let mut out = Outcome::default();
    out.context(
        "why",
        "the only workload that runs the tape's backward pass, the B^2 contrastive logits and \
         AdamW; the serving paths are bypassed",
    );
    out.context("nproc", &sys::nproc());
    out.context("lip_par_max_threads", &lip_par::max_threads());
    out.context("seed", &args.seed);
    out.context("dataset", "ElectriPrice");
    out.context("train_windows", &d.train.len());
    out.context("val_windows", &d.val.len());
    out.context("batch_size", &BATCH);
    out.context("pretrain_epochs", &PRETRAIN_EPOCHS);
    out.context("epochs", &EPOCHS);
    out.context("patience", &d.train_config.patience);
    out.context("step_slo_ms", &STEP_SLO_MS);
    out.context("setup_s_each", &setup_s);

    // warm-up: a few optimizer steps through `Trainer::fit`
    let warm = d.train.truncated(4 * BATCH);
    let mut model = d.model();
    let report = Trainer::new(TrainConfig {
        epochs: 1,
        pretrain_epochs: 0,
        ..d.train_config.clone()
    })
    .fit(&mut model, &warm, &d.val);
    let warm_ok = report.train_losses.iter().all(|l| l.is_finite());
    out.phases.push(Phase {
        name: "warmup".into(),
        timed: false,
        attempted: 4,
        failed: if warm_ok { 0 } else { 4 },
    });

    let cpu0 = self_cpu()?;
    let started = Instant::now();
    let mut rounds = vec![trainer_round(&d)];
    let rounds_wanted = if args.trace { 1 } else { usize::MAX };
    while rounds.len() < rounds_wanted {
        let mean = started.elapsed().as_secs_f64() / rounds.len() as f64;
        if started.elapsed().as_secs_f64() + mean > args.seconds {
            break;
        }
        rounds.push(trainer_round(&d));
    }
    let cpu = self_cpu()? - cpu0;
    let reference = (rounds[0].hash, rounds[0].losses.clone());
    let finite = rounds[0]
        .losses
        .iter()
        .all(|&b| f32::from_bits(b).is_finite());
    let bad = rounds
        .iter()
        .filter(|r| (r.hash, &r.losses) != (reference.0, &reference.1))
        .count() as u64;
    let name = if args.trace {
        "timed-untraced"
    } else {
        "timed"
    };
    out.phases.push(Phase {
        name: name.into(),
        timed: true,
        attempted: round_steps * rounds.len() as u64,
        failed: round_steps * bad,
    });
    out.check(
        "every round ends with the same parameter hash and losses",
        bad == 0,
    );
    out.check("losses are finite", finite);
    out.context("rounds", &rounds.len());
    out.context("param_hash", &format!("{:016x}", reference.0));
    out.context("windows_per_round", &round_windows);
    out.context(
        "step_ms_each",
        &rounds
            .iter()
            .flat_map(|r| r.step_ms.clone())
            .collect::<Vec<_>>(),
    );
    let ok_share = if finite {
        1.0 - bad as f64 / rounds.len() as f64
    } else {
        0.0
    };
    out.end_to_end = end_to_end(&d, &rounds, cpu, ok_share, &setup_s);

    if args.trace {
        let mut tr = Tracer::new(Instant::now());
        let cpu0 = self_cpu()?;
        let (model, replayed) = replay(&d, &mut tr);
        let cpu = self_cpu()? - cpu0;
        let same = replayed.hash == reference.0 && replayed.losses == reference.1;
        out.phases.push(Phase {
            name: "timed-traced".into(),
            timed: true,
            attempted: round_steps,
            failed: if same { 0 } else { round_steps },
        });
        out.check(
            "traced replay ends with Trainer::fit's parameter hash and loss bits",
            same,
        );
        out.traced_end_to_end = end_to_end(
            &d,
            std::slice::from_ref(&replayed),
            cpu,
            f64::from(u8::from(same)),
            &setup_s,
        );

        // the stages on the tape, on workload batches of the trained model
        let staged = Staged::rebuild(&model, &d.spec, d.model_seed);
        let mut equal = true;
        for k in 0..STAGE_BATCHES.min(d.train.len() / BATCH) {
            let batch = d
                .train
                .batch(&(k * BATCH..(k + 1) * BATCH).collect::<Vec<_>>());
            let req = 2_000_000 + k as u64;
            let bits = staged.forward(
                &mut tr,
                req,
                &batch,
                true,
                &mut StdRng::seed_from_u64(k as u64),
            );
            let reference = fixture::model_forward_bits(
                &model,
                &batch,
                true,
                &mut StdRng::seed_from_u64(k as u64),
            );
            equal &= bits == reference;
        }
        out.check("staged tape forward equals model.forward", equal);

        let selfs = tr.self_times_us();
        let self_median = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
        for (metric, span) in [
            ("lip-data.batch_us", "lip-data.batch"),
            ("lip-autograd.backward_us", "lip-autograd.backward"),
            ("lip-nn.optim_us", "lip-nn.optim"),
            ("lipformer.repr_us", "lipformer.repr"),
            ("lipformer.extract_us", "lipformer.extract"),
            ("lipformer.project_us", "lipformer.project"),
            ("lipformer.enrich_us", "lipformer.enrich"),
        ] {
            out.per_layer.insert(metric, self_median(span));
        }
        // forward and backward of the contrastive objective, and one
        // whole validation pass
        out.per_layer.insert(
            "lipformer.contrastive_us",
            median(&tr.durations_us("lipformer.contrastive")),
        );
        out.per_layer.insert(
            "lipformer.eval_us",
            median(&tr.durations_us("lipformer.eval")),
        );
        for name in [
            "lipformer.repr_macs",
            "lipformer.extract_macs",
            "lipformer.project_macs",
            "lipformer.enrich_macs",
            "lip-tensor.copied_bytes",
            "lip-tensor.pack_bytes",
        ] {
            out.per_layer.insert(name, sys::mean(&tr.counter(name)));
        }
        crate::serve::write_spans(&mut out, args, out_dir, &tr);
    }
    Ok(out)
}
