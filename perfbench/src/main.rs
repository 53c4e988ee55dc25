//! `perfbench` — the repository benchmark. It measures LiPFormer's serving
//! and training stack end to end and, in a separate traced run, per layer.
//!
//! ```text
//! bash perfbench/run.sh --workload serve_online|serve_bulk|train \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads:
//! - `serve_online` — open-loop Poisson single-window requests against the
//!   shipped `lip-serve` binary (default flags), half to the explicit-
//!   covariate ElectriPrice checkpoint: the micro-batcher's flush timer and
//!   per-request overhead set latency here.
//! - `serve_bulk` — one closed-loop connection sending 32-window requests
//!   round-robin over the nine checkpoints: JSON parsing and the B = 32
//!   executor forward dominate, the batcher is bypassed.
//! - `train` — `Trainer::pretrain` then `Trainer::fit` in-process on
//!   ElectriPrice at B = 32: the only workload running backward passes, the
//!   contrastive objective and AdamW.
//!
//! Every dataset, window draw and arrival time derives from `--seed`; the
//! server sees only the generated request bodies. Every served forecast is
//! checked bit for bit against a direct `lip-exec` forward, and training is
//! checked for a run-to-run identical parameter hash. With `--trace 1` the
//! run also replays each workload through the layers' public functions
//! under spans (written to `.bench_out/spans/`) and reports per-layer self
//! times and counts. The last stdout line is the JSON result.

mod client;
mod fixture;
mod report;
mod serve;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload serve_online|serve_bulk|train \
                     --seed N --seconds S --trace 0|1 --serve-bin PATH";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            "--serve-bin" => serve_bin = Some(PathBuf::from(value.clone())),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let steal0 = sys::steal_ticks();
    let outcome = match args.workload.as_str() {
        "serve_online" => serve::run(&args, &out_dir, serve::Mix::Online),
        "serve_bulk" => serve::run(&args, &out_dir, serve::Mix::Bulk),
        "train" => train::run(&args, &out_dir),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    match outcome {
        // a failed check is reported in the result line (`correct: false`)
        Ok(mut out) => {
            // the share of the run's CPU time the host gave to other guests:
            // wall-clock figures of runs with much steal read slower
            if let (Some((s0, t0)), Some((s1, t1))) = (steal0, sys::steal_ticks()) {
                out.context(
                    "host_steal_share",
                    &((s1 - s0) as f64 / (t1 - t0).max(1) as f64),
                );
            }
            report::emit(&args, &out, &out_dir)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
