//! Checkpoint sessions: validated, compiled models cached by content hash,
//! each owning a micro-batcher over the `lip-exec` executor.
//!
//! Loading order is chosen so nothing can panic on hostile input:
//!
//! 1. read the checkpoint file and decode it (`checkpoint::load_bytes`) —
//!    corrupt bundles return typed `CheckpointError`s;
//! 2. validate the decoded configuration together with the request's
//!    covariate spec with `LiPFormerConfig::check_for` — the rules
//!    `LiPFormerConfig::validate` and the model's covariate asserts
//!    enforce, as a `Result`, so a checkpoint header asking for an
//!    impossible architecture, or a spec the covariate encoder cannot take
//!    (no dense input channel, a zero cardinality), is rejected *before*
//!    `LiPFormer::new` (which asserts) ever runs;
//! 3. restore parameters (name/shape checked) and compile through
//!    `lip_exec::compile_inference`, which lifts the plan from the model's
//!    own tape and runs the static schedule verifier before trusting it.
//!
//! The cache key is the fnv1a mix of the config JSON, the covariate-spec
//! JSON **and the raw checkpoint bytes** — two checkpoints that share a
//! configuration but differ in weights never collide. Concurrent first
//! requests for one checkpoint coalesce on a per-key `OnceLock`: exactly
//! one thread compiles, everyone else blocks and shares the result (the
//! shared-cache race test pins this to `compiles == 1`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use lip_data::pipeline::CovariateSpec;
use lip_data::window::{Batch, BatchContract};
use lip_exec::{compile_inference, CompiledModel};
use lip_par::Partition;
use lip_tensor::Tensor;
use lipformer::checkpoint;
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig};

use crate::batcher::{BatchPolicy, BatchResult, Batcher, InFlight, Ticket};
use crate::error::ServeError;
use crate::fnv1a;
use crate::proto::{ForecastRequest, ForecastWindow};
use crate::stats::{ModelStats, StatsRegistry};

/// Windows per shard of a batch. A batch of `B` windows runs as
/// `⌈B / SHARD_WINDOWS⌉` forwards, each binding its own arena: a split by
/// `B` alone, never by the thread budget, as `lip-par`'s partitions are.
/// Up to this size a batch is one shard, whose kernels may fan out.
const SHARD_WINDOWS: usize = 8;

/// One window's inputs, flattened and validated, ready to coalesce.
pub struct Job {
    /// `[seq_len * channels]` history, row-major.
    pub x: Vec<f32>,
    /// `[pred_len * time_features]` future implicit features.
    pub time_feats: Vec<f32>,
    /// `[pred_len * numerical]` future numerical covariates, if the spec
    /// has any.
    pub cov_numerical: Option<Vec<f32>>,
    /// `[channels][pred_len]` categorical codes, if the spec has any.
    pub cov_categorical: Option<Vec<Vec<usize>>>,
    /// When the job entered the batcher (for `queue_us`).
    pub enqueued: Instant,
}

/// One window's forecast plus its batching telemetry.
pub struct JobOut {
    /// `[pred_len * channels]` forecast, row-major.
    pub rows: Vec<f32>,
    /// Coalesced batch size this job rode in.
    pub batched: usize,
    /// Microseconds queued before the batch flushed.
    pub queue_us: u64,
    /// Microseconds of the whole batch's sharded bind+run.
    pub run_us: u64,
}

/// A compiled checkpoint being served.
pub struct Session {
    /// Hex rendering of the cache key.
    pub key_hex: String,
    /// The checkpoint's configuration.
    pub config: LiPFormerConfig,
    /// The covariate layout it serves.
    pub spec: CovariateSpec,
    /// Per-request shape contract (`B = 1`).
    pub contract: BatchContract,
    /// Per-model counters.
    pub stats: Arc<ModelStats>,
    compiled: CompiledModel,
    batcher: Batcher<Job, JobOut>,
}

impl Session {
    /// Validate one window against this session's contract and flatten it
    /// into a [`Job`]. The window's rows are held to the same rules, with
    /// the same text, as a `B = 1` batch under `BatchContract::check`: the
    /// row count and every row's width, and the categorical channels'
    /// count, lengths and code ranges. Every violation is a typed error —
    /// nothing downstream can assert on request data.
    pub fn validate_window(&self, window: &ForecastWindow) -> Result<Job, ServeError> {
        check_window(&self.contract, window).map_err(|message| ServeError::Contract { message })?;
        Ok(Job {
            x: ForecastRequest::flatten(&window.x),
            time_feats: ForecastRequest::flatten(&window.time_feats),
            cov_numerical: window.cov_numerical.as_deref().map(ForecastRequest::flatten),
            cov_categorical: window.cov_categorical.clone(),
            enqueued: Instant::now(),
        })
    }

    /// Submit a job to the micro-batcher and wait for its forecast. The
    /// request's in-flight `ticket` is released once the job is queued.
    pub fn forecast(self: &Arc<Self>, job: Job, ticket: Ticket) -> Result<JobOut, ServeError> {
        let this = Arc::clone(self);
        self.batcher
            .submit_counted(job, ticket, move |jobs| this.run_batch(jobs))
            .map_err(|message| ServeError::Internal { message })
    }

    /// Run an explicit multi-window batch, bypassing the micro-batcher:
    /// the request already is a batch, so waiting for strangers to coalesce
    /// with would only add latency. It runs like a coalesced batch, in
    /// 8-window shards. Outputs come back in job order.
    pub fn forecast_many(&self, jobs: Vec<Job>) -> Result<Vec<JobOut>, ServeError> {
        self.run_batch(jobs)
            .into_iter()
            .collect::<Result<Vec<_>, String>>()
            .map_err(|message| ServeError::Internal { message })
    }

    /// Batches executed so far (test hook).
    pub fn batches_run(&self) -> u64 {
        self.batcher.batches_run()
    }

    /// Run `jobs` as one batch of `B` windows, split into shards of
    /// `SHARD_WINDOWS` that run in one `lip-par` region (each shard's
    /// kernels then run serially on the thread that took it), and hand each
    /// job its prediction rows in submission order. `batched`, `run_us` and
    /// the stats describe the whole batch.
    fn run_batch(&self, jobs: Vec<Job>) -> Vec<BatchResult<JobOut>> {
        let b = jobs.len();
        let started = Instant::now();
        let queue_us: Vec<u64> = jobs
            .iter()
            .map(|j| j.enqueued.elapsed().as_micros() as u64)
            .collect();

        let shards = lip_par::map_chunks(Partition::new(b, SHARD_WINDOWS), |_, range| {
            self.run_shard(&jobs[range])
        });
        let run_us = started.elapsed().as_micros() as u64;
        self.stats.batch(b);

        shards
            .into_iter()
            .flatten()
            .zip(queue_us)
            .map(|(rows, queue_us)| rows.map(|rows| JobOut { rows, batched: b, queue_us, run_us }))
            .collect()
    }

    /// Coalesce one shard's jobs into one `[b, …]` batch, bind the compiled
    /// plan at `b` in its own arena, run one forward, and de-interleave the
    /// prediction rows back to per-job outputs in submission order.
    fn run_shard(&self, jobs: &[Job]) -> Vec<Result<Vec<f32>, String>> {
        let b = jobs.len();
        let mut x = Vec::with_capacity(b * self.contract.seq_len * self.contract.channels);
        let mut tf = Vec::with_capacity(b * self.contract.pred_len * self.contract.time_features);
        let mut cov_n: Option<Vec<f32>> = self.spec.numerical.gt(&0).then(Vec::new);
        let mut cov_c: Option<Vec<Vec<usize>>> = (!self.spec.cardinalities.is_empty())
            .then(|| vec![Vec::new(); self.spec.cardinalities.len()]);
        for job in jobs {
            x.extend_from_slice(&job.x);
            tf.extend_from_slice(&job.time_feats);
            if let (Some(dst), Some(src)) = (cov_n.as_mut(), job.cov_numerical.as_ref()) {
                dst.extend_from_slice(src);
            }
            if let (Some(dst), Some(src)) = (cov_c.as_mut(), job.cov_categorical.as_ref()) {
                for (d, s) in dst.iter_mut().zip(src) {
                    d.extend_from_slice(s);
                }
            }
        }
        let batch = match assemble(&self.contract, b, x, tf, cov_n, cov_c) {
            Ok(batch) => batch,
            Err(e) => return vec![Err(format!("batch assembly: {e}")); b],
        };
        // belt and braces: per-request validation makes this unfailable,
        // and checking keeps `BoundModel::run`'s asserts unreachable
        if let Err(message) = self.contract.check_batch(&batch, b) {
            return vec![Err(message); b];
        }

        let pred = self.compiled.bind(b).run(&batch);
        let per = self.contract.pred_len * self.contract.channels;
        pred.contiguous().data().chunks(per).map(|rows| Ok(rows.to_vec())).collect()
    }
}

/// `window` against `c` as a `B = 1` batch, part by part.
fn check_window(c: &BatchContract, window: &ForecastWindow) -> Result<(), String> {
    let x = window_shape(&window.x, c.channels);
    BatchContract::check_shape("x", &x, &[1, c.seq_len, c.channels])?;
    let tf = window_shape(&window.time_feats, c.time_features);
    BatchContract::check_shape("time_feats", &tf, &[1, c.pred_len, c.time_features])?;
    let numerical = window.cov_numerical.as_deref().map(|n| window_shape(n, c.numerical));
    c.check_numerical(1, numerical.as_ref().map(|shape| shape.as_slice()))?;
    c.check_categorical(1, window.cov_categorical.as_deref().unwrap_or(&[]))
}

/// A window part's `[1, rows, width]` shape for a contract that wants rows
/// `width` wide. Parsed requests are rectangular, but a direct caller's
/// window may not be: the first row of another width stands for the whole
/// part, so a ragged part never passes.
fn window_shape(rows: &[Vec<f32>], width: usize) -> [usize; 3] {
    let got = rows.iter().map(Vec::len).find(|&w| w != width).unwrap_or(width);
    [1, rows.len(), got]
}

/// Build a `Batch` from flattened row-major buffers; length mismatches are
/// typed errors (the contract check reports shape detail afterwards).
fn assemble(
    contract: &BatchContract,
    b: usize,
    x: Vec<f32>,
    tf: Vec<f32>,
    cov_numerical: Option<Vec<f32>>,
    cov_categorical: Option<Vec<Vec<usize>>>,
) -> Result<Batch, ServeError> {
    let tensor = |name: &str, data: Vec<f32>, shape: [usize; 3]| -> Result<Tensor, ServeError> {
        let want: usize = shape.iter().product();
        if data.len() != want {
            return Err(ServeError::Contract {
                message: format!(
                    "'{name}' has {} values, the model's contract wants {:?}",
                    data.len(),
                    shape
                ),
            });
        }
        Ok(Tensor::from_vec(data, &shape))
    };
    let c = contract.channels;
    let x = tensor("x", x, [b, contract.seq_len, c])?;
    let y = Tensor::zeros(&[b, contract.pred_len, c]);
    let time_feats = tensor("time_feats", tf, [b, contract.pred_len, contract.time_features])?;
    let cov_numerical = match cov_numerical {
        Some(n) => Some(tensor("cov_numerical", n, [b, contract.pred_len, contract.numerical])?),
        None => None,
    };
    Ok(Batch { x, y, time_feats, cov_numerical, cov_categorical })
}

/// `BatchContract::check` wrapper used by the batch runner (distinct name so
/// profiles attribute it).
trait CheckBatch {
    fn check_batch(&self, batch: &Batch, b: usize) -> Result<(), String>;
}

impl CheckBatch for BatchContract {
    fn check_batch(&self, batch: &Batch, b: usize) -> Result<(), String> {
        if batch.x.shape()[0] != b {
            return Err(format!("assembled {} rows for {b} jobs", batch.x.shape()[0]));
        }
        self.check(batch)
    }
}

/// How sessions run their forwards.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Micro-batch flush policy.
    pub batch: BatchPolicy,
}

type Slot = Arc<OnceLock<Result<Arc<Session>, ServeError>>>;

/// `(file len, mtime nanos, cache key)` for the hot-path map.
type PathKey = (u64, u128, u64);

/// The checkpoint → compiled-session cache.
pub struct SessionCache {
    slots: Mutex<HashMap<u64, Slot>>,
    /// `(path, spec JSON) → (file len, mtime nanos, key)` fast path so hot
    /// requests skip re-reading and re-hashing the checkpoint file.
    path_keys: Mutex<HashMap<(String, String), PathKey>>,
    compiles: AtomicU64,
    options: SessionOptions,
    in_flight: Arc<InFlight>,
}

impl SessionCache {
    /// An empty cache serving with `options`.
    pub fn new(options: SessionOptions) -> Self {
        SessionCache {
            slots: Mutex::new(HashMap::new()),
            path_keys: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            options,
            in_flight: Arc::default(),
        }
    }

    /// Requests read but not yet queued, shared by every session's
    /// batcher: their leaders flush once it reaches zero.
    pub fn in_flight(&self) -> &Arc<InFlight> {
        &self.in_flight
    }

    /// Model compilations performed (the race test asserts one per
    /// checkpoint, however many clients raced the first load).
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Resolve the session serving `(checkpoint, spec)`, loading, validating
    /// and compiling it on first use.
    pub fn get(
        &self,
        path: &str,
        spec: &CovariateSpec,
        registry: &StatsRegistry,
    ) -> Result<Arc<Session>, ServeError> {
        let spec_json = lip_serde::to_string(spec);
        let meta = std::fs::metadata(path).map_err(|e| ServeError::Checkpoint {
            message: format!("checkpoint '{path}': {e}"),
        })?;
        let len = meta.len();
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());

        let fast_key = {
            let keys = lock(&self.path_keys);
            keys.get(&(path.to_string(), spec_json.clone()))
                .filter(|(l, m, _)| *l == len && *m == mtime)
                .map(|&(_, _, k)| k)
        };
        if let Some(key) = fast_key {
            let slot = lock(&self.slots).get(&key).cloned();
            if let Some(slot) = slot {
                if let Some(res) = slot.get() {
                    return res.clone();
                }
            }
            // the fast map is only populated after init, so this is
            // unreachable; fall through to the full path regardless
        }

        let raw = std::fs::read(path).map_err(|e| ServeError::Checkpoint {
            message: format!("checkpoint '{path}': {e}"),
        })?;
        let (header, tensors) =
            checkpoint::load_bytes(&raw).map_err(|e| ServeError::Checkpoint {
                message: format!("checkpoint '{path}': {e}"),
            })?;
        // typed validation BEFORE LiPFormer::new — a hostile header or
        // spec must never reach the constructor's asserts
        header.config.check_for(spec).map_err(|m| ServeError::Config {
            message: format!("config rejected: {m}"),
        })?;

        let config_json = lip_serde::to_string(&header.config);
        let key = fnv1a(config_json.as_bytes())
            ^ fnv1a(spec_json.as_bytes()).rotate_left(21)
            ^ fnv1a(&raw).rotate_left(42);

        let slot: Slot = {
            let mut slots = lock(&self.slots);
            Arc::clone(slots.entry(key).or_default())
        };
        let res = slot.get_or_init(|| {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            let key_hex = format!("{key:016x}");
            let mut model = LiPFormer::new(header.config.clone(), spec, 0);
            checkpoint::restore_into(&header, &tensors, model.store_mut()).map_err(|e| {
                ServeError::Checkpoint { message: format!("checkpoint '{path}': {e}") }
            })?;
            let compiled = compile_inference(&model, spec)
                .map_err(|e| ServeError::Compile { message: e.to_string() })?;
            let contract =
                spec.batch_contract(header.config.seq_len, header.config.pred_len, header.config.channels);
            Ok(Arc::new(Session {
                key_hex: key_hex.clone(),
                config: header.config.clone(),
                spec: spec.clone(),
                contract,
                stats: registry.model(&key_hex),
                compiled,
                batcher: Batcher::with_in_flight(self.options.batch, Arc::clone(&self.in_flight)),
            }))
        });
        if res.is_ok() {
            lock(&self.path_keys)
                .insert((path.to_string(), spec_json), (len, mtime, key));
        }
        res.clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
