//! End-to-end model check: validate the configuration, build the model and
//! lift both plans from it, record both training tapes with the numerical
//! sanitizer armed, validate every node's shape, run the lints, and surface
//! any NaN/Inf eruption with provenance — all from a configuration and one
//! (possibly synthetic) batch.

use lipformer::analysis::{batch_contract, record_contrastive, record_forward_loss};
use lipformer::{LiPFormer, LiPFormerConfig};
use lip_data::window::Batch;
use lip_data::CovariateSpec;
use lip_tensor::Tensor;

use crate::infer::validate_graph;
use crate::lint::lint_graphs;
use crate::plan::{plan_contrastive, plan_forward_loss, validate_config};

/// Outcome of one model check.
#[derive(Debug)]
pub struct CheckReport {
    /// What was checked (dataset or config-file label).
    pub label: String,
    /// Nodes on the forecasting (forward + loss) tape.
    pub forward_nodes: usize,
    /// Nodes on the contrastive tape.
    pub contrastive_nodes: usize,
    /// Forward-pass MAC plan as a polynomial in the batch size `B`.
    pub forward_macs: String,
    /// Every problem found, already formatted. Empty = model is clean.
    pub findings: Vec<String>,
}

impl CheckReport {
    /// True when the model passed every check.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A deterministic batch satisfying `config` + `spec`'s contract, for
/// checking a configuration without any dataset (`--check-model conf.json`)
/// and for recording the tapes a plan is lifted from. Values are small and
/// varied so every kernel sees non-degenerate data.
pub fn synthetic_batch(config: &LiPFormerConfig, spec: &CovariateSpec, b: usize) -> Batch {
    let fill = |shape: &[usize], phase: f32| {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|i| ((i as f32 * 0.37 + phase).sin()) * 0.5)
            .collect();
        Tensor::from_vec(data, shape)
    };
    let (tl, l, c) = (config.seq_len, config.pred_len, config.channels);
    Batch {
        x: fill(&[b, tl, c], 0.0),
        y: fill(&[b, l, c], 1.0),
        time_feats: fill(&[b, l, spec.time_features], 2.0),
        cov_numerical: (spec.numerical > 0).then(|| fill(&[b, l, spec.numerical], 3.0)),
        cov_categorical: (!spec.cardinalities.is_empty()).then(|| {
            spec.cardinalities
                .iter()
                .map(|&card| (0..b * l).map(|i| i % card).collect())
                .collect()
        }),
    }
}

/// Run the complete static + recorded-tape check for one model
/// configuration against one batch.
pub fn check_model(
    config: &LiPFormerConfig,
    spec: &CovariateSpec,
    batch: &Batch,
    label: &str,
) -> CheckReport {
    let mut report = CheckReport {
        label: label.into(),
        forward_nodes: 0,
        contrastive_nodes: 0,
        forward_macs: "-".into(),
        findings: Vec::new(),
    };

    // 1. Configuration + spec: rejects inconsistent ones (e.g. a patch_len
    //    that does not divide seq_len) before the model is constructed.
    if let Err(e) = validate_config(config, spec) {
        report.findings.push(e.to_string());
        return report;
    }

    // 2. Lift both plans from the model itself.
    let model = LiPFormer::new(config.clone(), spec, 7);
    match plan_forward_loss(&model, spec, true) {
        Ok(plan) => report.forward_macs = plan.tape.macs().to_string(),
        Err(e) => report.findings.push(e.to_string()),
    }
    if let Err(e) = plan_contrastive(&model, spec) {
        report.findings.push(e.to_string());
    }

    // 3. Batch contract.
    if let Err(e) = batch_contract(config, spec).check(batch) {
        report.findings.push(format!("batch contract: {e}"));
        return report;
    }

    // 4. Record both training tapes with the sanitizer armed.
    let (g, _pred, loss) =
        record_forward_loss(&model, batch, config.smooth_l1_beta, true, 11);
    let (gc, closs) = record_contrastive(&model, batch);
    report.forward_nodes = g.len();
    report.contrastive_nodes = gc.len();

    // 5. Per-node shape validation of what was actually recorded.
    for (graph, name) in [(&g, "forecast"), (&gc, "contrastive")] {
        if let Err(violations) = validate_graph(graph) {
            for v in violations {
                report.findings.push(format!("{name} tape: {v}"));
            }
        }
    }

    // 6. Lints over both tapes (dead params are judged across the union).
    for f in lint_graphs(&[(&g, loss, "forecast"), (&gc, closs, "contrastive")]) {
        report.findings.push(f.to_string());
    }

    // 7. Sanitizer eruptions with provenance.
    for (graph, name) in [(&g, "forecast"), (&gc, "contrastive")] {
        for r in graph.sanitizer_reports() {
            report.findings.push(format!("{name} tape: {r}"));
        }
    }
    report
}

/// Check a whole sweep of models, fanning one [`check_model`] per target
/// across the `lip-par` thread budget. Reports come back in target order and
/// are identical to running the checks serially: each check is a pure
/// function of its `(config, spec, batch, label)` tuple (model seeds are
/// fixed inside `check_model`).
pub fn check_models(
    targets: &[(&LiPFormerConfig, &CovariateSpec, &Batch, &str)],
) -> Vec<CheckReport> {
    lip_par::map_chunks(lip_par::Partition::new(targets.len(), 1), |i, _| {
        let (config, spec, batch, label) = targets[i];
        check_model(config, spec, batch, label)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn implicit_spec() -> CovariateSpec {
        CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        }
    }

    #[test]
    fn synthetic_batch_passes_its_own_contract() {
        let config = LiPFormerConfig::small(48, 24, 3);
        let spec = CovariateSpec {
            numerical: 2,
            cardinalities: vec![5],
            time_features: 4,
        };
        let batch = synthetic_batch(&config, &spec, 3);
        batch_contract(&config, &spec).check(&batch).unwrap();
    }

    #[test]
    fn clean_model_checks_clean() {
        let config = LiPFormerConfig::small(48, 24, 2);
        let spec = implicit_spec();
        let batch = synthetic_batch(&config, &spec, 2);
        let report = check_model(&config, &spec, &batch, "unit");
        assert!(report.clean(), "unexpected findings: {:#?}", report.findings);
        assert!(report.forward_nodes > 0);
        assert!(report.contrastive_nodes > 0);
    }

    #[test]
    fn parallel_sweep_matches_serial_checks() {
        let spec = implicit_spec();
        let good = LiPFormerConfig::small(48, 24, 2);
        let mut bad = LiPFormerConfig::small(48, 24, 3);
        bad.patch_len += 1;
        let gb = synthetic_batch(&good, &spec, 2);
        let bb = synthetic_batch(&bad, &spec, 2);
        let targets: Vec<(&LiPFormerConfig, &CovariateSpec, &Batch, &str)> = vec![
            (&good, &spec, &gb, "good"),
            (&bad, &spec, &bb, "bad"),
            (&good, &spec, &gb, "good-again"),
        ];
        let swept = lip_par::with_threads(4, || check_models(&targets));
        assert_eq!(swept.len(), 3);
        // order preserved
        assert_eq!(swept[0].label, "good");
        assert_eq!(swept[1].label, "bad");
        assert_eq!(swept[2].label, "good-again");
        for (i, report) in swept.iter().enumerate() {
            let (config, spec, batch, label) = targets[i];
            let serial = lip_par::with_threads(1, || check_model(config, spec, batch, label));
            assert_eq!(serial.findings, report.findings, "target {label}");
            assert_eq!(serial.forward_nodes, report.forward_nodes);
            assert_eq!(serial.forward_macs, report.forward_macs);
        }
    }

    #[test]
    fn every_registered_composition_checks_clean() {
        // both plans lift, and both tapes validate, for every composition
        let spec = implicit_spec();
        for (label, stages) in lipformer::registered_compositions() {
            let config = LiPFormerConfig::small(48, 24, 2).with_stages(stages);
            let batch = synthetic_batch(&config, &spec, 2);
            let report = check_model(&config, &spec, &batch, label);
            assert!(report.clean(), "{label}: {:#?}", report.findings);
        }
    }

    #[test]
    fn bad_patch_len_is_a_config_finding() {
        let mut config = LiPFormerConfig::small(48, 24, 2);
        config.patch_len += 1;
        let spec = implicit_spec();
        let batch = synthetic_batch(&config, &spec, 2);
        let report = check_model(&config, &spec, &batch, "unit");
        assert!(!report.clean());
        assert!(report.findings[0].contains("plan rejected at config"));
    }
}
