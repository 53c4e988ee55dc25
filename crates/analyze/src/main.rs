//! `lip-analyze` — static analysis CLI for LiPFormer graphs.
//!
//! ```text
//! lip-analyze --plan                      # lifted shape/MAC plan (batch B)
//! lip-analyze --lint                      # tape lints over recorded graphs
//! lip-analyze --check-model               # full check, nine-benchmark sweep
//! lip-analyze --check-model conf.json     # full check of one configuration
//! lip-analyze --verify-plan               # static schedule + race verification
//! ```
//!
//! Exit code 0 means zero findings; 1 means at least one finding; 2 means a
//! usage or input error. `scripts/verify.sh` runs
//! `--plan --lint --check-model` as a regression gate.

use std::io::Write;
use std::process::ExitCode;

use lip_analyze::harness::{check_model, check_models, synthetic_batch};
use lip_analyze::lint::lint_graphs;
use lip_analyze::plan::{plan_forward_loss, validate_config, ForwardPlan, PlanError};
use lip_analyze::schedule::InferenceSchedule;
use lip_analyze::sym::shape_to_string;
use lip_analyze::verify::{
    audit_kernel_source, verify_partition_bounded, verify_partition_symbolic, verify_schedule,
};
use lipformer::analysis::{record_contrastive, record_forward_loss};
use lipformer::{LiPFormer, LiPFormerConfig};
use lip_data::pipeline::{prepare, CovariateSpec};
use lip_data::window::Batch;
use lip_data::{generate, DatasetName, GeneratorConfig};

const USAGE: &str = "\
usage:
  lip-analyze [--plan] [--lint] [--check-model [CONFIG.json]] [--verify-plan]
              [--batch N]

modes (combine freely; at least one is required):
  --plan                 print the shape/MAC plan lifted from the model,
                         batch size B
  --lint                 run tape lints over recorded training graphs
  --check-model [FILE]   full static check: config validation, the plan
                         lift, per-node shape inference, lints, and the
                         NaN/Inf sanitizer. FILE is a LiPFormerConfig
                         JSON; without it the nine synthetic benchmarks
                         are swept with their standard (48, 24) setup.
  --verify-plan          static schedule verification: prove def-before-use,
                         slot liveness and arena bounds (symbolic, all
                         B >= 1) over the nine benchmarks x architecture
                         variants x both covariate policies; prove lip-par
                         chunk partitions pairwise disjoint (symbolic
                         proof + bounded sweep); audit tensor kernel
                         sources for mutation outside the disjoint-chunk
                         API. Exit 1 on any finding.
options:
  --batch N              batch size for recorded tapes (default 2, min 2)";

/// `println!` for every report line: a failed write (stdout closed or
/// full) is ignored, so the exit code still carries the verdict.
macro_rules! out {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Print `msg` and the usage text to stderr and exit 2. A failed write
/// (stderr closed or full) is ignored: the exit code still reports it.
fn die(msg: &str) -> ! {
    let _ = writeln!(std::io::stderr(), "error: {msg}\n{USAGE}");
    std::process::exit(2)
}

struct Options {
    plan: bool,
    lint: bool,
    check: bool,
    verify: bool,
    config_path: Option<String>,
    batch: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        plan: false,
        lint: false,
        check: false,
        verify: false,
        config_path: None,
        batch: 2,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plan" => opts.plan = true,
            "--lint" => opts.lint = true,
            "--verify-plan" => opts.verify = true,
            "--check-model" => {
                opts.check = true;
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        opts.config_path = it.next();
                    }
                }
            }
            "--batch" => {
                let v = it.next().unwrap_or_else(|| die("--batch expects a number"));
                opts.batch = v
                    .parse()
                    .unwrap_or_else(|_| die("--batch expects a number"));
                if opts.batch < 2 {
                    die("--batch must be at least 2 (the contrastive loss needs pairs)");
                }
            }
            "--help" | "-h" => {
                out!("{USAGE}");
                std::process::exit(0)
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    if !(opts.plan || opts.lint || opts.check || opts.verify) {
        die("pick at least one of --plan, --lint, --check-model, --verify-plan");
    }
    opts
}

/// One model to analyze: configuration, covariate spec, a concrete batch,
/// and a display label.
struct Target {
    config: LiPFormerConfig,
    spec: CovariateSpec,
    batch: Batch,
    label: String,
}

fn targets(opts: &Options) -> Vec<Target> {
    if let Some(path) = &opts.config_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let config: LiPFormerConfig = lip_serde::from_str(&text)
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        let spec = CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        };
        let batch = synthetic_batch(&config, &spec, opts.batch);
        return vec![Target {
            config,
            spec,
            batch,
            label: path.clone(),
        }];
    }
    DatasetName::all()
        .into_iter()
        .map(|name| {
            let ds = generate(name, GeneratorConfig::test(3));
            let prep = prepare(&ds, 48, 24);
            let config = LiPFormerConfig::small(48, 24, prep.channels);
            let indices: Vec<usize> = (0..opts.batch.min(prep.train.len())).collect();
            Target {
                config,
                batch: prep.train.batch(&indices),
                spec: prep.spec,
                label: format!("{name:?}"),
            }
        })
        .collect()
}

/// Check `config` + `spec`, build the model they describe and lift its
/// forward + loss plan.
fn lift_plan(
    config: &LiPFormerConfig,
    spec: &CovariateSpec,
    training: bool,
) -> Result<ForwardPlan, PlanError> {
    validate_config(config, spec)?;
    plan_forward_loss(&LiPFormer::new(config.clone(), spec, 7), spec, training)
}

fn print_plan(t: &Target, full: bool) -> usize {
    match lift_plan(&t.config, &t.spec, true) {
        Ok(plan) => {
            out!(
                "{}: {} nodes, MAC plan = {}",
                t.label,
                plan.tape.len(),
                plan.tape.macs()
            );
            if full {
                for (i, node) in plan.tape.nodes().iter().enumerate() {
                    out!("  {i:>4}  {:<16} {}", node.op, shape_to_string(&node.shape));
                }
            }
            0
        }
        Err(e) => {
            out!("{}: {e}", t.label);
            1
        }
    }
}

fn lint_only(t: &Target) -> usize {
    let model = LiPFormer::new(t.config.clone(), &t.spec, 7);
    let (g, _pred, loss) =
        record_forward_loss(&model, &t.batch, t.config.smooth_l1_beta, true, 11);
    let (gc, closs) = record_contrastive(&model, &t.batch);
    let findings = lint_graphs(&[(&g, loss, "forecast"), (&gc, closs, "contrastive")]);
    if findings.is_empty() {
        out!("{}: lints clean ({} + {} nodes)", t.label, g.len(), gc.len());
    } else {
        for f in &findings {
            out!("{}: {f}", t.label);
        }
    }
    findings.len()
}

/// Lift `config` under `spec`, then build and statically verify its
/// schedule, printing every finding under `label`. Returns
/// `(findings, schedules verified)`.
fn verify_schedules(label: &str, config: &LiPFormerConfig, spec: &CovariateSpec) -> (usize, usize) {
    let plan = match lift_plan(config, spec, false) {
        Ok(p) => p,
        Err(e) => {
            out!("{label}: plan rejected: {e}");
            return (1, 0);
        }
    };
    match InferenceSchedule::build(&plan) {
        Ok(sched) => {
            let findings = verify_schedule(&plan, &sched);
            for f in &findings {
                out!("{label}: {f}");
            }
            (findings.len(), 1)
        }
        Err(e) => {
            out!("{label}: schedule rejected: {e}");
            (1, 0)
        }
    }
}

/// A named architecture tweak applied on top of a dataset's base config.
type ConfigVariant = fn(LiPFormerConfig) -> LiPFormerConfig;

/// `--verify-plan`: the full static verification sweep. Every finding is
/// printed; the count feeds the exit code. The only tensor work is the two
/// small recordings each plan is lifted from; datasets are generated only
/// for their channel counts.
fn verify_plan_sweep() -> usize {
    let mut findings = 0usize;

    // -- schedules: nine benchmarks x variants x policies --
    let variants: [(&str, ConfigVariant); 7] = [
        ("default", |c| c),
        ("ln", LiPFormerConfig::with_ln),
        ("ffn", LiPFormerConfig::with_ffns),
        ("ln+ffn", |c| c.with_ln().with_ffns()),
        ("no-cross", LiPFormerConfig::without_cross_patch),
        ("no-inter", LiPFormerConfig::without_inter_patch),
        ("linear-only", |c| c.without_cross_patch().without_inter_patch()),
    ];
    let policies = [
        ("implicit", CovariateSpec { numerical: 0, cardinalities: vec![], time_features: 4 }),
        ("explicit", CovariateSpec { numerical: 2, cardinalities: vec![5, 3], time_features: 4 }),
    ];
    let mut verified = 0usize;
    for name in DatasetName::all() {
        let ds = generate(name, GeneratorConfig::test(3));
        let prep = prepare(&ds, 48, 24);
        let base = LiPFormerConfig::small(48, 24, prep.channels);
        for (vlabel, variant) in &variants {
            let config = variant(base.clone());
            for (plabel, spec) in &policies {
                let label = format!("{name:?}/{vlabel}/{plabel}");
                let (found, ok) = verify_schedules(&label, &config, spec);
                findings += found;
                verified += ok;
            }
        }
    }
    out!(
        "schedules: {verified} verified (def-before-use, liveness, arena bounds \
         for all B >= 1)"
    );

    // -- stage compositions: every registered stage triple, both policies --
    // Each composition gets the full treatment: the model check (plan lift,
    // recorded-tape validation, lints) plus schedule verification, so a
    // stage pair that records but does not lift, or lifts but cannot
    // compile, is a finding, not a surprise at serving time.
    let mut comp_verified = 0usize;
    let compositions = lipformer::registered_compositions();
    for (clabel, stages) in &compositions {
        let config = LiPFormerConfig::small(48, 24, 3).with_stages(*stages);
        for (plabel, spec) in &policies {
            let label = format!("stages/{clabel}/{plabel}");
            let batch = synthetic_batch(&config, spec, 2);
            let report = check_model(&config, spec, &batch, &label);
            for f in &report.findings {
                out!("{label}: {f}");
            }
            let (found, ok) = verify_schedules(&label, &config, spec);
            findings += report.findings.len() + found;
            comp_verified += ok;
        }
    }
    out!(
        "stage compositions: {comp_verified} schedule(s) verified across {} \
         registered compositions (plan lift + schedule)",
        compositions.len()
    );

    // -- partition disjointness: symbolic proof + bounded real-code sweep --
    for f in verify_partition_symbolic() {
        out!("partition: {f}");
        findings += 1;
    }
    for f in verify_partition_bounded(1024, 40) {
        out!("partition: {f}");
        findings += 1;
    }
    out!(
        "partition: chunk windows pairwise disjoint and exactly covering \
         (symbolic proof for all n, c; Partition::ranges() swept to n <= 1024)"
    );

    // -- kernel-source audit: mutation only through the disjoint-chunk API --
    let tensor_src = concat!(env!("CARGO_MANIFEST_DIR"), "/../tensor/src");
    let mut mutating_sites = 0usize;
    for file in ["elementwise.rs", "kernel.rs", "reduce.rs", "matmul.rs"] {
        let path = format!("{tensor_src}/{file}");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let (sites, audit) = audit_kernel_source(file, &text);
                mutating_sites += sites;
                for f in audit {
                    out!("kernel audit: {f}");
                    findings += 1;
                }
            }
            Err(e) => {
                out!("kernel audit: cannot read {path}: {e}");
                findings += 1;
            }
        }
    }
    if mutating_sites == 0 {
        out!(
            "kernel audit: no par_chunks_mut call site found — parallel mutation \
             moved off the audited API?"
        );
        findings += 1;
    } else {
        out!(
            "kernel audit: {mutating_sites} par_chunks_mut site(s); no unsafe, \
             no raw threads, no direct for_each_chunk, no core-count lookups \
             in tensor kernels"
        );
    }
    findings
}

fn main() -> ExitCode {
    let opts = parse_args();
    let targets = targets(&opts);
    let mut findings = 0usize;

    if opts.plan {
        out!("== lifted plan (forward + loss, training mode) ==");
        let full = targets.len() == 1;
        for t in &targets {
            findings += print_plan(t, full);
        }
    }

    if opts.check {
        out!(
            "== model check (batch size {}, {} threads) ==",
            opts.batch,
            lip_par::max_threads()
        );
        let tuples: Vec<_> = targets
            .iter()
            .map(|t| (&t.config, &t.spec, &t.batch, t.label.as_str()))
            .collect();
        for report in check_models(&tuples) {
            if report.clean() {
                out!(
                    "{}: clean — {} forecast + {} contrastive nodes, MACs {}",
                    report.label,
                    report.forward_nodes,
                    report.contrastive_nodes,
                    report.forward_macs
                );
            } else {
                for f in &report.findings {
                    out!("{}: {f}", report.label);
                }
                findings += report.findings.len();
            }
        }
    } else if opts.lint {
        out!("== tape lints (batch size {}) ==", opts.batch);
        for t in &targets {
            findings += lint_only(t);
        }
    }

    if opts.verify {
        out!("== static plan verification (schedules, partitions, kernels) ==");
        findings += verify_plan_sweep();
    }

    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        out!("{findings} finding(s)");
        ExitCode::FAILURE
    }
}
