//! `lipformer` command-line tool: train on a CSV time series, checkpoint the
//! model, and forecast — the downstream-user entry point.
//!
//! ```text
//! lipformer_cli train   --data series.csv --seq-len 96 --pred-len 24 \
//!                       --epochs 10 --out model.ckpt
//! lipformer_cli forecast --data series.csv --model model.ckpt --out forecast.csv
//! lipformer_cli evaluate --data series.csv --model model.ckpt
//! ```
//!
//! The CSV layout is `index,ch0,ch1,...` with a header row (see
//! `lip_data::csv`). Hourly sampling is assumed for the implicit temporal
//! features; use `--freq min15|min10|hourly|daily` to override.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lip_autograd::Graph;
use lip_data::calendar::{Calendar, Frequency};
use lip_data::csv::{load_csv, save_csv};
use lip_data::dataset::{BenchmarkDataset, TimeSeries};
use lip_data::pipeline::prepare;
use lip_data::split::SplitRatio;
use lipformer::checkpoint;
use lipformer::{ForecastMetrics, Forecaster, LiPFormer, LiPFormerConfig, TrainConfig, Trainer};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;

struct Args {
    command: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut it = std::env::args().skip(1);
        let command = it.next()?;
        let mut flags = Vec::new();
        while let Some(key) = it.next() {
            let key = key.strip_prefix("--")?.to_string();
            let value = it.next()?;
            flags.push((key, value));
        }
        Some(Args { command, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| die(&format!("--{key} expects an integer"))))
            .unwrap_or(default)
    }
}

/// Print `msg` and the usage text to stderr and exit 2. A failed write
/// (stderr closed or full) is ignored: the exit code still reports it.
fn die(msg: &str) -> ! {
    let _ = writeln!(std::io::stderr(), "error: {msg}\n{USAGE}");
    std::process::exit(2)
}

const USAGE: &str = "\
usage:
  lipformer_cli train    --data <csv> [--seq-len 96] [--pred-len 24] [--epochs 10]
                         [--hidden 32] [--freq hourly] [--seed 0] --out <ckpt>
  lipformer_cli forecast --data <csv> --model <ckpt> [--out forecast.csv]
  lipformer_cli evaluate --data <csv> --model <ckpt>";

fn parse_freq(s: &str) -> Frequency {
    match s {
        "min5" => Frequency::Min5,
        "min10" => Frequency::Min10,
        "min15" => Frequency::Min15,
        "hourly" => Frequency::Hourly,
        "daily" => Frequency::Daily,
        other => die(&format!("unknown --freq '{other}'")),
    }
}

fn load_series(path: &str, freq: Frequency) -> TimeSeries {
    load_csv(Path::new(path), Calendar::ett_default(freq))
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
}

fn as_benchmark(series: TimeSeries) -> BenchmarkDataset {
    BenchmarkDataset {
        name: "cli".into(),
        series,
        covariates: None,
        split: SplitRatio::LARGE,
    }
}

fn cmd_train(args: &Args) -> ExitCode {
    let data = args.get("data").unwrap_or_else(|| die("--data is required"));
    let out = PathBuf::from(args.get("out").unwrap_or("model.ckpt"));
    let seq_len = args.get_usize("seq-len", 96);
    let pred_len = args.get_usize("pred-len", 24);
    let epochs = args.get_usize("epochs", 10);
    let hidden = args.get_usize("hidden", 32);
    let seed = args.get_usize("seed", 0) as u64;
    let freq = parse_freq(args.get("freq").unwrap_or("hourly"));

    let ds = as_benchmark(load_series(data, freq));
    println!(
        "loaded {} steps × {} channels from {data}",
        ds.series.len(),
        ds.series.num_channels()
    );
    let prep = prepare(&ds, seq_len, pred_len);
    let mut config = LiPFormerConfig::small(seq_len, pred_len, prep.channels);
    config.hidden = hidden;
    let mut model = LiPFormer::new(config.clone(), &prep.spec, seed);
    println!("LiPFormer: {} parameters", model.num_parameters());

    let mut trainer = Trainer::new(TrainConfig {
        epochs,
        pretrain_epochs: (epochs / 3).max(1),
        lr: 1e-2,
        seed,
        ..TrainConfig::fast()
    });
    let pre = trainer.pretrain(&mut model, &prep.train);
    println!("pre-training losses: {pre:?}");
    let report = trainer.fit(&mut model, &prep.train, &prep.val);
    println!(
        "trained {} epochs ({:.2}s/epoch), best val MSE {:.4}",
        report.epochs_run,
        report.mean_epoch_seconds(),
        report.best_val_loss
    );
    let test = ForecastMetrics::evaluate(&model, &prep.test, 64);
    println!("test: MSE {:.4}  MAE {:.4} (standardized scale)", test.mse, test.mae);

    checkpoint::save(&out, &config, model.store())
        .unwrap_or_else(|e| die(&format!("cannot save checkpoint: {e}")));
    println!("checkpoint → {}", out.display());
    ExitCode::SUCCESS
}

fn load_model(args: &Args) -> (LiPFormer, LiPFormerConfig) {
    let ckpt = args.get("model").unwrap_or_else(|| die("--model is required"));
    let spec = lip_data::CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    };
    let model = checkpoint::load_model(Path::new(ckpt), &spec)
        .unwrap_or_else(|e| die(&format!("bad checkpoint: {e}")));
    let config = model.config().clone();
    (model, config)
}

fn cmd_forecast(args: &Args) -> ExitCode {
    let data = args.get("data").unwrap_or_else(|| die("--data is required"));
    let freq = parse_freq(args.get("freq").unwrap_or("hourly"));
    let (model, config) = load_model(args);
    let ds = as_benchmark(load_series(data, freq));
    if ds.series.len() < config.seq_len {
        die(&format!(
            "need at least {} steps of history, file has {}",
            config.seq_len,
            ds.series.len()
        ));
    }
    // standardize with the full file's statistics, forecast from its tail
    let prep = prepare(&ds, config.seq_len, config.pred_len);
    let last_window_start = ds.series.len() - config.seq_len;
    let scaled = prep.scaler.transform(&ds.series.values);
    let x = scaled.slice_axis(0, last_window_start, ds.series.len());
    let tf = lip_data::timefeatures::encode_range(
        &ds.series.calendar,
        ds.series.len(),
        config.pred_len,
    );
    let batch = lip_data::window::Batch {
        x: x.reshape(&[1, config.seq_len, prep.channels]),
        y: lip_tensor::Tensor::zeros(&[1, config.pred_len, prep.channels]),
        time_feats: tf.reshape(&[1, config.pred_len, 4]),
        cov_numerical: None,
        cov_categorical: None,
    };
    let mut rng = StdRng::seed_from_u64(0);
    let mut g = Graph::new(model.store());
    let pred = model.forward(&mut g, &batch, false, &mut rng);
    let physical = prep
        .scaler
        .inverse_transform(&g.value(pred).reshape(&[config.pred_len, prep.channels]));

    let out = args.get("out").unwrap_or("forecast.csv");
    let forecast_series = TimeSeries::new(
        physical,
        ds.series.channels.clone(),
        ds.series.calendar,
    );
    save_csv(&forecast_series, Path::new(out))
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!(
        "wrote {}-step forecast for {} channels → {out}",
        config.pred_len, prep.channels
    );
    ExitCode::SUCCESS
}

fn cmd_evaluate(args: &Args) -> ExitCode {
    let data = args.get("data").unwrap_or_else(|| die("--data is required"));
    let freq = parse_freq(args.get("freq").unwrap_or("hourly"));
    let (model, config) = load_model(args);
    let ds = as_benchmark(load_series(data, freq));
    let prep = prepare(&ds, config.seq_len, config.pred_len);
    let m = ForecastMetrics::evaluate(&model, &prep.test, 64);
    println!(
        "test split ({} windows): MSE {:.4}  MAE {:.4}",
        m.count, m.mse, m.mae
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let Some(args) = Args::parse() else {
        let _ = writeln!(std::io::stderr(), "{USAGE}");
        return ExitCode::from(2);
    };
    match args.command.as_str() {
        "train" => cmd_train(&args),
        "forecast" => cmd_forecast(&args),
        "evaluate" => cmd_evaluate(&args),
        other => {
            let _ = writeln!(std::io::stderr(), "unknown command '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
