//! Seeded inputs: the nine synthetic datasets, their untrained small
//! LiPFormer checkpoints, the window pools requests draw from, the golden
//! per-window forecast hashes and the request bodies sent to `lip-serve`.

use std::path::Path;
use std::time::Instant;

use lip_autograd::{Graph, ParamStore, Var};
use lip_data::pipeline::prepare;
use lip_data::window::Batch;
use lip_data::{generate, CovariateSpec, DatasetName, GeneratorConfig};
use lip_exec::{compile_inference, CompiledModel};
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lip_serve::proto::{ForecastRequest, ForecastWindow};
use lip_tensor::Tensor;
use lipformer::stages::{build_stages, StageSet};
use lipformer::{checkpoint, Forecaster, LiPFormer, LiPFormerConfig, WeakEnriching};

use crate::sys::bits_hash;
use crate::trace::Tracer;

/// History length of every window.
pub const SEQ_LEN: usize = 96;
/// Forecast horizon of every window.
pub const PRED_LEN: usize = 24;
/// Windows drawn per dataset; requests pick from this pool.
pub const POOL: usize = 64;
/// Windows per `serve_bulk` request.
pub const BULK_WINDOWS: usize = 32;

/// Seed of the model built for dataset `index` under workload seed `seed`.
pub fn model_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (index as u64 + 1)
}

/// One dataset as served: its saved checkpoint and its window pool.
pub struct Dataset {
    pub name: DatasetName,
    /// Checkpoint path, relative to the working directory.
    pub ckpt: String,
    pub spec: CovariateSpec,
    pub config: LiPFormerConfig,
    pub model_seed: u64,
    pub model: LiPFormer,
    /// `POOL` windows of the test split, drawn from the seed.
    pub pool: Batch,
}

/// The in-process half of the serving set-up: generate all nine datasets,
/// build one model per dataset and save its checkpoint under `dir`.
pub fn build_serving_set(seed: u64, dir: &Path) -> Result<Vec<Dataset>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    DatasetName::all()
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let ds = generate(name, GeneratorConfig::bench(seed));
            let prep = prepare(&ds, SEQ_LEN, PRED_LEN);
            let config = LiPFormerConfig::small(SEQ_LEN, PRED_LEN, prep.channels);
            let seed_i = model_seed(seed, i);
            let model = LiPFormer::new(config.clone(), &prep.spec, seed_i);
            let ckpt = dir.join(format!("{name:?}.ckpt"));
            checkpoint::save(&ckpt, &config, model.store())
                .map_err(|e| format!("{name:?}: cannot save checkpoint: {e}"))?;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_55ed ^ i as u64);
            let order = prep.test.epoch_order(true, &mut rng);
            if order.len() < POOL {
                return Err(format!(
                    "{name:?}: test split has only {} windows",
                    order.len()
                ));
            }
            Ok(Dataset {
                name,
                ckpt: ckpt.to_string_lossy().into_owned(),
                spec: prep.spec.clone(),
                config,
                model_seed: seed_i,
                model,
                pool: prep.test.batch(&order[..POOL]),
            })
        })
        .collect()
}

/// A dataset plus everything the load generator and the checks need.
pub struct Served {
    pub ds: Dataset,
    pub compiled: CompiledModel,
    /// fnv1a hash of each pool window's forecast from a direct forward.
    pub golden: Vec<u64>,
    /// Wall time of `compile_inference`, milliseconds.
    pub compile_ms: f64,
    /// Single-window request body of each pool window.
    pub single: Vec<Vec<u8>>,
    /// `BULK_WINDOWS`-window request bodies: pool windows `[k·32, (k+1)·32)`.
    pub bulk: Vec<Vec<u8>>,
}

impl Served {
    /// Compile the dataset's model, hash the direct forecast of every pool
    /// window and render the request bodies.
    pub fn new(ds: Dataset) -> Result<Served, String> {
        let started = Instant::now();
        let compiled = compile_inference(&ds.model, &ds.spec)
            .map_err(|e| format!("{:?}: compile failed: {e}", ds.name))?;
        let compile_ms = started.elapsed().as_secs_f64() * 1e3;
        let pred = compiled.bind(POOL).run(&ds.pool).contiguous();
        let per = PRED_LEN * ds.config.channels;
        let golden = pred.data().chunks(per).map(bits_hash).collect();
        let windows: Vec<ForecastWindow> = (0..POOL).map(|i| window(&ds, i)).collect();
        let single = windows.iter().map(|w| body(&ds, vec![w.clone()])).collect();
        let bulk = windows
            .chunks(BULK_WINDOWS)
            .map(|ws| body(&ds, ws.to_vec()))
            .collect();
        Ok(Served {
            ds,
            compiled,
            golden,
            compile_ms,
            single,
            bulk,
        })
    }
}

/// A single-window body for pool window 0 (the set-up's first request).
pub fn first_body(ds: &Dataset) -> Vec<u8> {
    body(ds, vec![window(ds, 0)])
}

fn rows(t: &Tensor, i: usize, height: usize, width: usize) -> Vec<Vec<f32>> {
    let dense = t.contiguous();
    let per = height * width;
    dense.data()[i * per..(i + 1) * per]
        .chunks(width)
        .map(<[f32]>::to_vec)
        .collect()
}

/// Pool window `i` in request form.
fn window(ds: &Dataset, i: usize) -> ForecastWindow {
    let p = &ds.pool;
    ForecastWindow {
        x: rows(&p.x, i, SEQ_LEN, ds.config.channels),
        time_feats: rows(&p.time_feats, i, PRED_LEN, ds.spec.time_features),
        cov_numerical: p
            .cov_numerical
            .as_ref()
            .map(|t| rows(t, i, PRED_LEN, ds.spec.numerical)),
        cov_categorical: p.cov_categorical.as_ref().map(|chans| {
            chans
                .iter()
                .map(|c| c[i * PRED_LEN..(i + 1) * PRED_LEN].to_vec())
                .collect()
        }),
    }
}

/// A request body: the single-window form for one window, the
/// multi-window form otherwise.
fn body(ds: &Dataset, mut windows: Vec<ForecastWindow>) -> Vec<u8> {
    let req = if windows.len() == 1 {
        let one = windows.pop().expect("one window");
        ForecastRequest {
            checkpoint: ds.ckpt.clone(),
            spec: ds.spec.clone(),
            x: one.x,
            time_feats: one.time_feats,
            cov_numerical: one.cov_numerical,
            cov_categorical: one.cov_categorical,
            windows: None,
        }
    } else {
        ForecastRequest {
            checkpoint: ds.ckpt.clone(),
            spec: ds.spec.clone(),
            x: vec![],
            time_feats: vec![],
            cov_numerical: None,
            cov_categorical: None,
            windows: Some(windows),
        }
    };
    lip_serde::to_vec(&req)
}

/// The model's stages and weak-data enriching rebuilt from its
/// construction seed, holding the model's current parameters, so each
/// stage of the forward can be timed on its own.
pub struct Staged {
    store: ParamStore,
    stages: StageSet,
    enrich: WeakEnriching,
}

impl Staged {
    /// Rebuild `model` (constructed with `seed` under `spec`).
    pub fn rebuild(model: &LiPFormer, spec: &CovariateSpec, seed: u64) -> Staged {
        let config = model.config();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let stages = build_stages(&mut store, "base", config, &mut rng);
        let enrich = WeakEnriching::new(
            &mut store,
            "enrich",
            spec,
            config.pred_len,
            config.channels,
            config.encoder_hidden,
            config.categorical_embed,
            &mut rng,
        );
        store.restore(&model.store().snapshot());
        Staged {
            store,
            stages,
            enrich,
        }
    }

    /// One tape forward of `batch`, stage by stage, under spans
    /// `lipformer.{repr,extract,project,enrich}` with their MACs and the
    /// `lip-tensor` copy counters as counts. Returns the forecast bits.
    pub fn forward(
        &self,
        tr: &mut Tracer,
        req: u64,
        batch: &Batch,
        training: bool,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        fn stage<T>(
            tr: &mut Tracer,
            g: &mut Graph<'_>,
            req: u64,
            (name, macs): (&'static str, &'static str),
            f: impl FnOnce(&mut Graph<'_>) -> T,
        ) -> T {
            let before = g.macs();
            let out = tr.time(name, req, || f(g));
            tr.count(macs, req, (g.macs() - before) as f64);
            out
        }

        let copies = lip_tensor::stats::snapshot();
        let mut g = Graph::new(&self.store);
        let root = tr.open("lipformer.forward", req);
        let repr = stage(
            tr,
            &mut g,
            req,
            ("lipformer.repr", "lipformer.repr_macs"),
            |g| {
                let x = g.constant(batch.x.clone());
                self.stages.repr.forward(g, x)
            },
        );
        let h = stage(
            tr,
            &mut g,
            req,
            ("lipformer.extract", "lipformer.extract_macs"),
            |g| self.stages.extract.forward(g, repr.tokens, training, rng),
        );
        let y_base = stage(
            tr,
            &mut g,
            req,
            ("lipformer.project", "lipformer.project_macs"),
            |g| self.stages.project.forward(g, h, &repr),
        );
        let y: Var = stage(
            tr,
            &mut g,
            req,
            ("lipformer.enrich", "lipformer.enrich_macs"),
            |g| self.enrich.guide(g, y_base, batch),
        );
        tr.close(root);
        let moved = lip_tensor::stats::snapshot().since(&copies);
        tr.count("lip-tensor.copied_bytes", req, moved.copied_bytes() as f64);
        tr.count(
            "lip-tensor.pack_bytes",
            req,
            moved.kind(lip_tensor::stats::CopyKind::Pack).copy_bytes as f64,
        );
        tr.count("lipformer.forward_macs", req, g.macs() as f64);
        g.value(y).to_vec().iter().map(|v| v.to_bits()).collect()
    }
}

/// Bits of `model.forward` on `batch` — the reference the staged forward
/// must equal byte for byte.
pub fn model_forward_bits(
    model: &LiPFormer,
    batch: &Batch,
    training: bool,
    rng: &mut StdRng,
) -> Vec<u32> {
    let mut g = Graph::new(model.store());
    let y = model.forward(&mut g, batch, training, rng);
    g.value(y).to_vec().iter().map(|v| v.to_bits()).collect()
}
