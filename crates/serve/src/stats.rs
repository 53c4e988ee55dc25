//! Request accounting: per-model counters, batch-size histograms and
//! latency quantiles behind `GET /stats`.
//!
//! Service latency (microseconds from request-parsed to response-ready) and
//! queue wait (microseconds a single-window request spent in the batcher
//! before its batch flushed) are each tracked as a bounded ring of the most
//! recent samples, so quantiles track current behaviour instead of
//! averaging over the process lifetime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use lip_serde::{Json, Num};

/// Samples kept per model for the quantile window.
const LATENCY_WINDOW: usize = 4096;

/// The most recent [`LATENCY_WINDOW`] samples of one quantity.
#[derive(Default)]
struct Ring {
    samples: Vec<u64>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
}

impl Ring {
    fn push(&mut self, v: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(v);
        } else {
            // overwrite round-robin: quantiles don't care about ordering
            // inside the window
            self.samples[self.next] = v;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }
}

/// `(p50, p99)` over a ring's window, `(0, 0)` when empty. Sorts a copy,
/// so recording never waits on a `/stats` read.
fn quantiles(ring: &Mutex<Ring>) -> (u64, u64) {
    let mut w = relock(ring).samples.clone();
    if w.is_empty() {
        return (0, 0);
    }
    w.sort_unstable();
    (nearest_rank(&w, 0.50), nearest_rank(&w, 0.99))
}

/// Counters for one cached model session.
pub struct ModelStats {
    /// Hex content hash (the session cache key).
    pub key: String,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Forecast rows produced (= requests answered OK).
    forecasts: AtomicU64,
    /// Batched forwards executed.
    batches: AtomicU64,
    /// `hist[b]` counts batches that coalesced exactly `b` requests
    /// (index 0 unused).
    hist: Mutex<Vec<u64>>,
    latency_us: Mutex<Ring>,
    queue_us: Mutex<Ring>,
    created: Instant,
}

fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ModelStats {
    fn new(key: String) -> Self {
        ModelStats {
            key,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            forecasts: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            hist: Mutex::new(Vec::new()),
            latency_us: Mutex::default(),
            queue_us: Mutex::default(),
            created: Instant::now(),
        }
    }

    /// Count one accepted request.
    pub fn request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one failed request.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed batched forward of `b` coalesced requests.
    pub fn batch(&self, b: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.forecasts.fetch_add(b as u64, Ordering::Relaxed);
        let mut hist = relock(&self.hist);
        if hist.len() <= b {
            hist.resize(b + 1, 0);
        }
        hist[b] += 1;
    }

    /// Record one request's total service time.
    pub fn latency(&self, us: u64) {
        relock(&self.latency_us).push(us);
    }

    /// Record how long one single-window request waited in the batcher.
    pub fn queue(&self, us: u64) {
        relock(&self.queue_us).push(us);
    }

    /// Forecast rows produced so far.
    pub fn forecasts(&self) -> u64 {
        self.forecasts.load(Ordering::Relaxed)
    }

    /// Batched forwards executed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The batch-size histogram as `(size, count)` pairs.
    pub fn histogram(&self) -> Vec<(usize, u64)> {
        relock(&self.hist)
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }

    /// `(p50, p99)` service latency in microseconds over the window.
    pub fn quantiles(&self) -> (u64, u64) {
        quantiles(&self.latency_us)
    }

    fn snapshot(&self) -> Json {
        let (p50, p99) = self.quantiles();
        let (queue_p50, queue_p99) = quantiles(&self.queue_us);
        let elapsed = self.created.elapsed().as_secs_f64().max(1e-9);
        let hist = Json::Array(
            self.histogram()
                .into_iter()
                .map(|(b, c)| {
                    Json::Array(vec![
                        Json::Num(Num::U(b as u64)),
                        Json::Num(Num::U(c)),
                    ])
                })
                .collect(),
        );
        Json::Object(vec![
            ("model".into(), Json::Str(self.key.clone())),
            ("requests".into(), Json::Num(Num::U(self.requests.load(Ordering::Relaxed)))),
            ("errors".into(), Json::Num(Num::U(self.errors.load(Ordering::Relaxed)))),
            ("forecasts".into(), Json::Num(Num::U(self.forecasts()))),
            ("batches".into(), Json::Num(Num::U(self.batches()))),
            ("forecasts_per_sec".into(), Json::Num(Num::F(self.forecasts() as f64 / elapsed))),
            ("p50_us".into(), Json::Num(Num::U(p50))),
            ("p99_us".into(), Json::Num(Num::U(p99))),
            ("queue_p50_us".into(), Json::Num(Num::U(queue_p50))),
            ("queue_p99_us".into(), Json::Num(Num::U(queue_p99))),
            ("batch_hist".into(), hist),
        ])
    }
}

/// Nearest-rank quantile over a sorted slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Server-wide stats: totals plus one [`ModelStats`] per cached session.
pub struct StatsRegistry {
    started: Instant,
    /// Requests that reached routing (any outcome).
    pub requests: AtomicU64,
    /// Requests answered with an error status.
    pub errors: AtomicU64,
    /// Worker panics caught by the connection guard (must stay 0; the
    /// fault-injection battery asserts it).
    pub panics: AtomicU64,
    models: Mutex<Vec<Arc<ModelStats>>>,
}

impl Default for StatsRegistry {
    fn default() -> Self {
        StatsRegistry {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            models: Mutex::new(Vec::new()),
        }
    }
}

impl StatsRegistry {
    /// Get or create the per-model stats for `key`.
    pub fn model(&self, key: &str) -> Arc<ModelStats> {
        let mut models = relock(&self.models);
        if let Some(m) = models.iter().find(|m| m.key == key) {
            return Arc::clone(m);
        }
        let m = Arc::new(ModelStats::new(key.to_string()));
        models.push(Arc::clone(&m));
        m
    }

    /// The `GET /stats` document.
    pub fn snapshot(&self, alive_workers: usize, workers: usize, compiles: u64) -> Json {
        let models = relock(&self.models);
        Json::Object(vec![
            ("uptime_s".into(), Json::Num(Num::F(self.started.elapsed().as_secs_f64()))),
            ("requests".into(), Json::Num(Num::U(self.requests.load(Ordering::Relaxed)))),
            ("errors".into(), Json::Num(Num::U(self.errors.load(Ordering::Relaxed)))),
            ("panics".into(), Json::Num(Num::U(self.panics.load(Ordering::Relaxed)))),
            ("workers".into(), Json::Num(Num::U(workers as u64))),
            ("alive_workers".into(), Json::Num(Num::U(alive_workers as u64))),
            ("compiles".into(), Json::Num(Num::U(compiles))),
            (
                "models".into(),
                Json::Array(models.iter().map(|m| m.snapshot()).collect()),
            ),
        ])
    }
}
