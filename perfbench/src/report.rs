//! Metric catalogue, per-phase failure accounting and the result output:
//! a readable report, a result file under `.bench_out/results/`, and the
//! one-line JSON result as the last line of standard output.

use std::collections::BTreeMap;
use std::path::Path;

use lip_serde::{Json, ToJson};

use crate::Args;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_wps", "windows/s"),
    ("latency_p50_ms", "ms"),
    ("slo_share", "share"),
    ("cpu_ms_per_window", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ok_share", "share"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload never enters reports 0 (and `n/a` in the readable report).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("lip-serve.queue_us", "us"),
    ("lip-serve.batch_mean", "windows"),
    ("lip-serve.session_get_us", "us"),
    ("lip-serve.validate_us", "us"),
    ("lip-serve.outside_us", "us"),
    ("lip-exec.bind_us", "us"),
    ("lip-exec.run_us", "us"),
    ("lip-exec.gflops", "GFLOP/s"),
    ("lip-exec.arena_bytes", "bytes"),
    ("lip-exec.compile_ms", "ms"),
    ("lip-serde.parse_us", "us"),
    ("lip-serde.body_kb", "KiB"),
    ("lip-serde.encode_us", "us"),
    ("lipformer.repr_us", "us"),
    ("lipformer.repr_macs", "count"),
    ("lipformer.extract_us", "us"),
    ("lipformer.extract_macs", "count"),
    ("lipformer.project_us", "us"),
    ("lipformer.project_macs", "count"),
    ("lipformer.enrich_us", "us"),
    ("lipformer.enrich_macs", "count"),
    ("lipformer.contrastive_us", "us"),
    ("lipformer.eval_us", "us"),
    ("lip-data.batch_us", "us"),
    ("lip-autograd.backward_us", "us"),
    ("lip-nn.optim_us", "us"),
    ("lip-tensor.copied_bytes", "bytes"),
    ("lip-tensor.pack_bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_share", "share"),
];

/// Operations attempted, succeeded and failed in one phase of a run.
pub struct Phase {
    pub name: String,
    /// Whether the phase counts toward the result line's `attempted` and
    /// `failed` (warm-up phases do not).
    pub timed: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub phases: Vec<Phase>,
    /// End-to-end metrics with tracing off.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// End-to-end metrics of the traced phase (`--trace 1` only), reported
    /// next to the untraced ones so the tracing overhead shows.
    pub traced_end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Run facts: host, server flags, load parameters, why the workload exists.
    pub context: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn context<T: ToJson + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.context.push((key, value.to_json()));
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn metrics_json(values: &BTreeMap<&'static str, f64>) -> Json {
    Json::Object(
        values
            .iter()
            .map(|(k, v)| {
                let m = vec![
                    ("value".to_string(), v.to_json()),
                    ("unit".to_string(), unit_of(k).to_json()),
                ];
                (k.to_string(), Json::Object(m))
            })
            .collect(),
    )
}

/// Failed over attempted operations of the timed phases.
fn failed_share(out: &Outcome) -> f64 {
    let timed = out.phases.iter().filter(|p| p.timed);
    let attempted: u64 = timed.clone().map(|p| p.attempted).sum();
    let failed: u64 = timed.map(|p| p.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Print the readable report, write the result file, and print the result
/// line.
pub fn emit(args: &Args, out: &Outcome, out_dir: &Path) {
    for (k, v) in &out.context {
        println!("context  {k:<24} {}", v.dump());
    }
    for p in &out.phases {
        println!(
            "phase    {:<24} attempted {:>6}  succeeded {:>6}  failed {:>4}",
            p.name,
            p.attempted,
            p.attempted - p.failed,
            p.failed
        );
    }
    for (name, ok) in &out.checks {
        println!("check    {name:<48} {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, unit) in END_TO_END {
        let untraced = out.end_to_end.get(name).copied().unwrap_or(f64::NAN);
        match out.traced_end_to_end.get(name) {
            Some(t) => println!(
                "e2e      {name:<24} {untraced:>14.4} {unit:<10} traced {t:>14.4}  overhead {:+.1}%",
                (t / untraced - 1.0) * 100.0
            ),
            None => println!("e2e      {name:<24} {untraced:>14.4} {unit}"),
        }
    }
    println!(
        "e2e      {:<24} {:>14.4} share",
        "failed_share",
        failed_share(out)
    );
    for (name, unit) in PER_LAYER {
        match out.per_layer.get(name) {
            Some(v) => println!("layer    {name:<28} {v:>16.3} {unit}"),
            None if args.trace => println!("layer    {name:<28} {:>16} {unit}", "n/a"),
            None => {}
        }
    }

    let attempted: u64 = out
        .phases
        .iter()
        .filter(|p| p.timed)
        .map(|p| p.attempted)
        .sum();
    let failed: u64 = out
        .phases
        .iter()
        .filter(|p| p.timed)
        .map(|p| p.failed)
        .sum();
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let source = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut reported: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut finite = true;
    for (name, _) in catalogue {
        let v = source.get(name).copied().unwrap_or(0.0);
        finite &= v.is_finite();
        reported.insert(name, if v.is_finite() { v } else { 0.0 });
    }
    let correct = finite && attempted > 0 && out.checks.iter().all(|(_, ok)| *ok);

    let phases = Json::Array(
        out.phases
            .iter()
            .map(|p| {
                Json::Object(vec![
                    ("name".into(), p.name.to_json()),
                    ("timed".into(), p.timed.to_json()),
                    ("attempted".into(), p.attempted.to_json()),
                    ("succeeded".into(), (p.attempted - p.failed).to_json()),
                    ("failed".into(), p.failed.to_json()),
                ])
            })
            .collect(),
    );
    let checks = Json::Object(
        out.checks
            .iter()
            .map(|(n, ok)| (n.clone(), ok.to_json()))
            .collect(),
    );
    let record = Json::Object(vec![
        ("workload".into(), args.workload.to_json()),
        ("seed".into(), args.seed.to_json()),
        ("seconds".into(), args.seconds.to_json()),
        ("trace".into(), args.trace.to_json()),
        (
            "context".into(),
            Json::Object(
                out.context
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("phases".into(), phases),
        ("failed_share".into(), failed_share(out).to_json()),
        ("checks".into(), checks),
        ("end_to_end".into(), metrics_json(&out.end_to_end)),
        (
            "traced_end_to_end".into(),
            metrics_json(&out.traced_end_to_end),
        ),
        ("per_layer".into(), metrics_json(&out.per_layer)),
    ]);
    let path = out_dir.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(path.parent().expect("results dir"))
        .and_then(|_| std::fs::write(&path, record.dump_pretty()));
    match written {
        Ok(()) => println!("result   {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }

    let line = Json::Object(vec![
        ("correct".into(), correct.to_json()),
        ("attempted".into(), attempted.to_json()),
        ("failed".into(), failed.to_json()),
        ("metrics".into(), metrics_json(&reported)),
    ]);
    println!("{}", line.dump());
}
