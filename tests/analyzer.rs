//! Integration tests for `lip-analyze`: the plan lifted from two synthetic
//! recordings must match tapes recorded on real data at another batch size
//! node-for-node across every synthetic benchmark,
//! planted defects (dead params, detached subgraphs, reused dropout masks,
//! NaN injections) must be caught, and inconsistent configurations must be
//! rejected before any tensor kernel runs.

use lip_analyze::harness::{check_model, synthetic_batch};
use lip_analyze::infer::validate_graph;
use lip_analyze::lint::{lint_graphs, LintKind};
use lip_analyze::plan::{plan_contrastive, plan_forward_loss, validate_config};
use lip_analyze::sym::eval_shape;
use lip_autograd::Graph;
use lipformer::analysis::{batch_contract, record_contrastive, record_forward_loss};
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig};
use lip_data::pipeline::prepare;
use lip_data::{generate, CovariateSpec, DatasetName, GeneratorConfig};
use lip_tensor::Tensor;

const B: usize = 3;

fn implicit_spec() -> CovariateSpec {
    CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    }
}

/// Assert plan ↔ runtime parity for every node: op name, concrete shape at
/// batch size `b`, and the MAC total.
fn assert_parity(tape: &lip_analyze::SymTape, g: &Graph, b: usize, label: &str) {
    assert_eq!(tape.len(), g.len(), "{label}: node count");
    for i in 0..g.len() {
        let planned = &tape.nodes()[i];
        assert_eq!(
            planned.op,
            g.op_at(i).name(),
            "{label}: op at node {i}"
        );
        assert_eq!(
            eval_shape(&planned.shape, b),
            g.shape_at(i),
            "{label}: shape at node {i} ({})",
            planned.op
        );
    }
    assert_eq!(
        tape.macs().eval(b as u64),
        g.macs(),
        "{label}: MAC total at B={b}"
    );
}

#[test]
fn plan_matches_runtime_across_all_nine_benchmarks() {
    for name in DatasetName::all() {
        let ds = generate(name, GeneratorConfig::test(3));
        let prep = prepare(&ds, 48, 24);
        let config = LiPFormerConfig::small(48, 24, prep.channels);
        let model = LiPFormer::new(config.clone(), &prep.spec, 5);
        let indices: Vec<usize> = (0..B).collect();
        let batch = prep.train.batch(&indices);
        batch_contract(&config, &prep.spec).check(&batch).unwrap();

        let label = format!("{name:?}/forecast");
        let (g, pred, loss) =
            record_forward_loss(&model, &batch, config.smooth_l1_beta, true, 9);
        let summary = validate_graph(&g).unwrap_or_else(|v| {
            panic!("{label}: recorded tape has violations: {v:?}")
        });
        assert_eq!(summary.macs, g.macs(), "{label}: recomputed MACs");

        let plan = plan_forward_loss(&model, &prep.spec, true).unwrap();
        assert_parity(&plan.tape, &g, B, &label);
        assert_eq!(plan.pred.0, pred.index(), "{label}: pred node index");
        assert_eq!(plan.loss.0, loss.index(), "{label}: loss node index");

        let label = format!("{name:?}/contrastive");
        let (gc, closs) = record_contrastive(&model, &batch);
        validate_graph(&gc).unwrap_or_else(|v| {
            panic!("{label}: recorded tape has violations: {v:?}")
        });
        let cplan = plan_contrastive(&model, &prep.spec).unwrap();
        assert_parity(&cplan.tape, &gc, B, &label);
        assert_eq!(cplan.loss.0, closs.index(), "{label}: loss node index");
    }
}

#[test]
fn plan_matches_runtime_for_every_architecture_variant() {
    let spec = implicit_spec();
    let mut variants: Vec<(LiPFormerConfig, &str)> = Vec::new();
    let base = LiPFormerConfig::small(48, 24, 2);
    variants.push((base.clone(), "base/train"));
    let mut v = base.clone();
    v.with_layer_norm = true;
    v.with_ffn = true;
    variants.push((v, "layernorm+ffn"));
    let mut v = base.clone();
    v.use_cross_patch = false;
    variants.push((v, "no-cross-patch"));
    let mut v = base.clone();
    v.use_inter_patch = false;
    variants.push((v, "no-inter-patch"));

    for (config, label) in &variants {
        for training in [false, true] {
            let model = LiPFormer::new(config.clone(), &spec, 5);
            let batch = synthetic_batch(config, &spec, B);
            let (g, _pred, _loss) =
                record_forward_loss(&model, &batch, config.smooth_l1_beta, training, 13);
            validate_graph(&g).unwrap_or_else(|v| {
                panic!("{label}(training={training}): violations: {v:?}")
            });
            let plan = plan_forward_loss(&model, &spec, training).unwrap();
            assert_parity(&plan.tape, &g, B, &format!("{label}(training={training})"));
        }
    }
}

#[test]
fn check_model_is_clean_for_all_nine_benchmarks() {
    for name in DatasetName::all() {
        let ds = generate(name, GeneratorConfig::test(3));
        let prep = prepare(&ds, 48, 24);
        let config = LiPFormerConfig::small(48, 24, prep.channels);
        let indices: Vec<usize> = (0..B).collect();
        let batch = prep.train.batch(&indices);
        let report = check_model(&config, &prep.spec, &batch, &format!("{name:?}"));
        assert!(
            report.clean(),
            "{name:?}: unexpected findings {:#?}",
            report.findings
        );
        assert!(report.forward_nodes > 0 && report.contrastive_nodes > 0);
    }
}

#[test]
fn off_by_one_patch_len_is_rejected_before_any_kernel() {
    let mut config = LiPFormerConfig::small(48, 24, 2);
    config.patch_len += 1; // 48 % 7 != 0 — the runtime would panic in validate()
    let spec = implicit_spec();
    let err = validate_config(&config, &spec).unwrap_err();
    assert_eq!(err.stage, "config");
    assert!(err.message.contains("evenly divide"), "{}", err.message);

    // The harness surfaces the same rejection as a finding, without ever
    // constructing the model (no tensor is allocated, nothing panics).
    let good = LiPFormerConfig::small(48, 24, 2);
    let batch = synthetic_batch(&good, &spec, 2);
    let report = check_model(&config, &spec, &batch, "bad-patch");
    assert!(!report.clean());
    assert!(
        report.findings[0].contains("plan rejected at config"),
        "{:?}",
        report.findings
    );
}

#[test]
fn zero_channel_spec_is_a_config_finding_not_a_panic() {
    // check_model builds the model to lift its plans; a spec the covariate
    // encoder would assert on must be rejected before that
    let config = LiPFormerConfig::small(48, 24, 2);
    let spec = CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 0,
    };
    let batch = synthetic_batch(&config, &spec, 2);
    let report = check_model(&config, &spec, &batch, "no-covariates");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(
        report.findings[0].contains("plan rejected at config"),
        "{:?}",
        report.findings
    );
}

#[test]
fn planted_dead_param_and_detached_subgraph_are_flagged() {
    let spec = implicit_spec();
    let config = LiPFormerConfig::small(48, 24, 2);
    let mut model = LiPFormer::new(config.clone(), &spec, 5);
    model
        .store_mut()
        .add("planted.orphan", Tensor::ones(&[4, 4]));
    let batch = synthetic_batch(&config, &spec, 2);

    let (g, _pred, loss) =
        record_forward_loss(&model, &batch, config.smooth_l1_beta, false, 9);
    let (gc, closs) = record_contrastive(&model, &batch);

    // A healthy pair of tapes flags exactly the orphan and nothing else.
    let findings = lint_graphs(&[(&g, loss, "forecast"), (&gc, closs, "contrastive")]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].kind, LintKind::DeadParam);
    assert!(findings[0].message.contains("planted.orphan"));

    // Now plant a detached branch: forward work that never feeds the loss.
    let (mut g, pred2, loss2) =
        record_forward_loss(&model, &batch, config.smooth_l1_beta, false, 9);
    let dangling = g.relu(pred2);
    let findings = lint_graphs(&[(&g, loss2, "forecast"), (&gc, closs, "contrastive")]);
    let detached: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == LintKind::DetachedSubgraph)
        .collect();
    assert_eq!(detached.len(), 1, "{findings:?}");
    assert_eq!(detached[0].node, Some(dangling.index()));
}

#[test]
fn injected_nan_is_pinned_to_the_producing_op_with_provenance() {
    let spec = implicit_spec();
    let config = LiPFormerConfig::small(48, 24, 2);
    let mut model = LiPFormer::new(config.clone(), &spec, 5);

    // Poison the contrastive temperature: exp(1e9) overflows to +Inf, so the
    // Exp node is the *producer* (its Param input is still finite).
    let log_temp = model
        .store()
        .ids()
        .find(|&id| model.store().name(id).ends_with("log_temp"))
        .expect("model must own a log_temp parameter");
    model.store_mut().set_value(log_temp, Tensor::scalar(1e9));

    let batch = synthetic_batch(&config, &spec, 2);
    let (g, _loss) = record_contrastive(&model, &batch);
    let reports = g.sanitizer_reports();
    assert!(!reports.is_empty(), "sanitizer must fire");
    let r = &reports[0];
    assert_eq!(r.op, "Exp", "eruption site is the exponent");
    assert!(r.shape.is_empty(), "temperature is a scalar");
    assert_eq!(r.provenance[0].op, "Param", "provenance walks to the parameter");
    assert!(r.provenance[0].finite, "the parameter itself was finite");
    // Downstream nodes inherit the poison but are not re-reported.
    assert_eq!(reports.len(), 1, "{reports:?}");
}

#[test]
fn dropout_mask_reuse_and_rank_promotion_are_linted() {
    let store = lip_autograd::ParamStore::new();
    let mut g = Graph::new(&store);
    let x = g.constant(Tensor::ones(&[2, 3, 4]));

    // Reused mask: both dropout sites share one storage.
    let mask = Tensor::from_vec(vec![2.0; 24], &[2, 3, 4]);
    let d1 = g.dropout_mask(x, mask.clone());
    let d2 = g.dropout_mask(d1, mask);

    // Silent rank promotion: [3, 1] is not a trailing suffix of [2, 3, 4].
    let odd = g.constant(Tensor::ones(&[3, 1]));
    let promoted = g.mul(d2, odd);
    let loss = g.mean(promoted);

    let findings = lint_graphs(&[(&g, loss, "test")]);
    assert!(findings
        .iter()
        .any(|f| f.kind == LintKind::DropoutMaskReuse && f.node == Some(d2.index())));
    assert!(findings
        .iter()
        .any(|f| f.kind == LintKind::SuspiciousBroadcast && f.node == Some(promoted.index())));
}

#[test]
fn batch_contract_violations_are_findings_not_panics() {
    let spec = implicit_spec();
    let config = LiPFormerConfig::small(48, 24, 2);
    let wrong = LiPFormerConfig::small(96, 24, 2);
    let batch = synthetic_batch(&wrong, &spec, 2); // seq_len 96 ≠ 48
    let report = check_model(&config, &spec, &batch, "bad-batch");
    assert!(!report.clean());
    assert!(
        report.findings.iter().any(|f| f.contains("batch contract")),
        "{:?}",
        report.findings
    );
}

/// A usage error exits 2 even when stderr cannot be written: the binary
/// must not panic (exit 101) on a full device.
#[test]
fn usage_error_exits_2_with_stderr_on_dev_full() {
    let full = match std::fs::OpenOptions::new().write(true).open("/dev/full") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("skipping: cannot open /dev/full: {e}");
            return;
        }
    };
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_lip-analyze"))
        .arg("--bogus-flag")
        .stdout(std::process::Stdio::null())
        .stderr(full)
        .status()
        .expect("run lip-analyze");
    assert_eq!(status.code(), Some(2), "usage error with stderr on /dev/full");
}

/// `--help` and the reports keep their exit codes when stdout cannot be
/// written: a full device must not turn them into a panic (exit 101).
#[test]
fn help_and_reports_keep_exit_codes_with_stdout_on_dev_full() {
    use std::process::{Command, Stdio};
    let open_full = || std::fs::OpenOptions::new().write(true).open("/dev/full");
    if let Err(e) = open_full() {
        eprintln!("skipping: cannot open /dev/full: {e}");
        return;
    }
    let run = |args: &[&str], stdout: Stdio| {
        Command::new(env!("CARGO_BIN_EXE_lip-analyze"))
            .args(args)
            .stdout(stdout)
            .stderr(Stdio::null())
            .status()
            .expect("run lip-analyze")
            .code()
    };
    let full = || Stdio::from(open_full().expect("open /dev/full"));
    assert_eq!(run(&["--help"], full()), Some(0), "--help with stdout on /dev/full");

    let mut config = LiPFormerConfig::small(24, 8, 2);
    (config.patch_len, config.hidden, config.heads, config.encoder_hidden) = (6, 8, 2, 8);
    let path = std::env::temp_dir().join(format!("lip_analyze_tiny_{}.json", std::process::id()));
    std::fs::write(&path, lip_serde::to_string(&config)).expect("write config");
    let args = ["--plan", "--check-model", path.to_str().expect("utf-8 temp path")];
    let on_null = run(&args, Stdio::null());
    let on_full = run(&args, full());
    let _ = std::fs::remove_file(&path);
    assert!(matches!(on_null, Some(0 | 1)), "report exit code {on_null:?}");
    assert_eq!(on_full, on_null, "report exit code with stdout on /dev/full");
}
