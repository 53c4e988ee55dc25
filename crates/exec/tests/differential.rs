//! Differential tests: the compiled executor must be **byte-identical** to
//! tape (`Graph`-recorded) inference — across all nine benchmark datasets,
//! every architecture variant, multiple batch sizes served by one compiled
//! plan, and every thread budget. Comparisons go through fnv1a-64 hashes of
//! the serialized prediction so a divergence prints as one number, not two
//! tensors.

use std::collections::HashMap;

use lip_analyze::synthetic_batch;
use lip_autograd::Graph;
use lip_data::pipeline::prepare;
use lip_data::window::Batch;
use lip_data::{generate, CovariateSpec, DatasetName, GeneratorConfig};
use lip_exec::compile_inference;
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The tape engine's prediction bytes (eval mode, like the executor).
fn tape_pred_bytes(model: &LiPFormer, batch: &Batch) -> Vec<u8> {
    tape_forward(model, batch).0
}

/// [`tape_pred_bytes`] plus the tape's peak allocation: the bytes of every
/// distinct storage buffer the recorded graph retains (views share storage
/// and count once).
fn tape_forward(model: &LiPFormer, batch: &Batch) -> (Vec<u8>, usize) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut g = Graph::new(model.store());
    let y = model.forward(&mut g, batch, false, &mut rng);
    let mut storages: HashMap<usize, usize> = HashMap::new();
    for i in 0..g.len() {
        let t = g.value(g.var(i));
        let elems = t.view_ref().data.len();
        let entry = storages.entry(t.storage_ptr()).or_insert(0);
        *entry = (*entry).max(elems);
    }
    let peak = storages.values().sum::<usize>() * std::mem::size_of::<f32>();
    (g.value(y).to_bytes(), peak)
}

fn implicit_spec() -> CovariateSpec {
    CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    }
}

fn explicit_spec() -> CovariateSpec {
    CovariateSpec {
        numerical: 2,
        cardinalities: vec![5, 3],
        time_features: 4,
    }
}

/// Small-but-structured config used by the variant sweep (mirrors the model
/// crate's unit-test config so debug-mode runtime stays reasonable).
fn toy_config() -> LiPFormerConfig {
    let mut c = LiPFormerConfig::small(24, 8, 2);
    c.patch_len = 6;
    c.hidden = 8;
    c.heads = 2;
    c.encoder_hidden = 8;
    c
}

#[test]
fn nine_benchmarks_byte_identical_across_batch_sizes_and_threads() {
    for name in DatasetName::all() {
        let ds = generate(name, GeneratorConfig::test(3));
        let prep = prepare(&ds, 48, 24);
        let config = LiPFormerConfig::small(48, 24, prep.channels);
        let model = LiPFormer::new(config, &prep.spec, 7);
        // one compiled plan serves every batch size below
        let compiled = compile_inference(&model, &prep.spec)
            .unwrap_or_else(|e| panic!("{name:?}: {e}"));
        for &b in &[1usize, 2, 7, 32] {
            let b = b.min(prep.train.len());
            let indices: Vec<usize> = (0..b).collect();
            let batch = prep.train.batch(&indices);
            let mut bound = compiled.bind(b);
            // the dynamic shadow-writes checker must agree with the static
            // verifier's claims at this concrete B
            let shadow = bound.shadow_check();
            assert!(shadow.is_empty(), "{name:?}: b={b} shadow violations: {shadow:?}");
            let (tape_bytes, tape_peak) =
                lip_par::with_threads(1, || tape_forward(&model, &batch));
            if b == 32 {
                // the executor's reason to exist at serving batch sizes: one
                // liveness-packed arena smaller than the tape's live tensors
                assert!(
                    bound.arena_bytes() < tape_peak,
                    "{name:?}: arena {} B does not undercut tape peak {tape_peak} B",
                    bound.arena_bytes()
                );
            }
            let want = fnv1a(&tape_bytes);
            for &t in &[1usize, 8] {
                let got = fnv1a(&lip_par::with_threads(t, || bound.run(&batch).to_bytes()));
                assert_eq!(got, want, "{name:?}: b={b} threads={t} diverged from tape");
            }
        }
    }
}

#[test]
fn architecture_variants_byte_identical_for_both_covariate_policies() {
    let base = toy_config();
    let variants: Vec<(&str, LiPFormerConfig)> = vec![
        ("default", base.clone()),
        ("ln", base.clone().with_ln()),
        ("ffn", base.clone().with_ffns()),
        ("ln+ffn", base.clone().with_ln().with_ffns()),
        ("no-cross", base.clone().without_cross_patch()),
        ("no-inter", base.clone().without_inter_patch()),
        ("linear-only", base.without_cross_patch().without_inter_patch()),
    ];
    for (label, config) in &variants {
        for spec in [implicit_spec(), explicit_spec()] {
            let model = LiPFormer::new(config.clone(), &spec, 11);
            let compiled = compile_inference(&model, &spec)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            for &b in &[1usize, 2, 7] {
                let batch = synthetic_batch(config, &spec, b);
                let mut bound = compiled.bind(b);
                let shadow = bound.shadow_check();
                assert!(
                    shadow.is_empty(),
                    "{label} (explicit={}) b={b} shadow violations: {shadow:?}",
                    spec.has_explicit()
                );
                let want =
                    fnv1a(&lip_par::with_threads(1, || tape_pred_bytes(&model, &batch)));
                for &t in &[1usize, 2, 3, 8] {
                    let got =
                        fnv1a(&lip_par::with_threads(t, || bound.run(&batch).to_bytes()));
                    assert_eq!(
                        got, want,
                        "{label} (explicit={}) b={b} threads={t} diverged",
                        spec.has_explicit()
                    );
                }
            }
        }
    }
}

#[test]
fn every_registered_composition_compiles_byte_identical() {
    for (label, stages) in lipformer::registered_compositions() {
        let config = toy_config().with_stages(stages);
        for spec in [implicit_spec(), explicit_spec()] {
            let model = LiPFormer::new(config.clone(), &spec, 23);
            let compiled = compile_inference(&model, &spec)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            for &b in &[1usize, 7] {
                let batch = synthetic_batch(&config, &spec, b);
                let mut bound = compiled.bind(b);
                let shadow = bound.shadow_check();
                assert!(
                    shadow.is_empty(),
                    "{label} (explicit={}) b={b} shadow violations: {shadow:?}",
                    spec.has_explicit()
                );
                let want =
                    fnv1a(&lip_par::with_threads(1, || tape_pred_bytes(&model, &batch)));
                for &t in &[1usize, 4] {
                    let got =
                        fnv1a(&lip_par::with_threads(t, || bound.run(&batch).to_bytes()));
                    assert_eq!(
                        got, want,
                        "{label} (explicit={}) b={b} threads={t} diverged",
                        spec.has_explicit()
                    );
                }
            }
        }
    }
}

#[test]
fn checkpointed_model_compiles_byte_identical() {
    let config = toy_config();
    let spec = explicit_spec();
    let model = LiPFormer::new(config.clone(), &spec, 42);
    let dir = std::env::temp_dir().join("lip_exec_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("differential_roundtrip.ckpt");
    lipformer::checkpoint::save(&path, &config, model.store()).unwrap();

    let loaded = lipformer::checkpoint::load_model(&path, &spec).unwrap();
    let compiled = compile_inference(&loaded, &spec).unwrap();
    let batch = synthetic_batch(&config, &spec, 3);
    let mut bound = compiled.bind(3);
    assert_eq!(
        fnv1a(&bound.run(&batch).to_bytes()),
        fnv1a(&tape_pred_bytes(&model, &batch)),
        "checkpoint → load_model → compile must reproduce the original model's bytes"
    );
}

#[test]
fn base_only_model_is_rejected() {
    match compile_inference(
        &LiPFormer::without_enriching(toy_config(), 1),
        &implicit_spec(),
    ) {
        Err(e @ lip_exec::CompileError::Unsupported(_)) => {
            assert!(e.to_string().contains("enriching"), "{e}");
        }
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("base-only model must not compile"),
    }
}
