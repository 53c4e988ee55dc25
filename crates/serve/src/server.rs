//! The server proper: an acceptor thread feeding a fixed worker pool over
//! an in-process channel, each worker speaking the [`crate::http`] subset
//! and dispatching to routes.
//!
//! Fault posture: a worker wraps every connection in `catch_unwind` (and
//! counts any caught panic — the fault battery asserts the counter stays
//! 0), answers every failure with a typed [`ServeError`] body, and decides
//! per error whether the connection framing is still sound enough to keep
//! alive. Shutdown is deterministic: flag + self-connect to unblock
//! `accept`, channel drop to drain workers, then `join` everything.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use lip_serde::Json;

use crate::error::ServeError;
use crate::http::{self, Limits, ReadOutcome, Request};
use crate::proto::{BatchForecastResponse, ForecastRequest, ForecastResponse};
use crate::session::{SessionCache, SessionOptions};
use crate::stats::StatsRegistry;

/// Everything tunable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Batching options shared by all sessions.
    pub session: SessionOptions,
    /// Per-request size/time ceilings.
    pub limits: Limits,
    /// When set, checkpoint paths must be relative, `..`-free, and resolve
    /// under this directory.
    pub checkpoint_root: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            session: SessionOptions::default(),
            limits: Limits::default(),
            checkpoint_root: None,
        }
    }
}

struct Shared {
    cache: SessionCache,
    stats: StatsRegistry,
    limits: Limits,
    checkpoint_root: Option<std::path::PathBuf>,
    shutdown: AtomicBool,
    /// Worker threads started.
    workers: usize,
    /// Worker threads still running their loop.
    alive_workers: AtomicUsize,
}

/// A running server; dropping it without [`Server::shutdown`] leaks the
/// threads (they keep serving), so tests always call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            cache: SessionCache::new(config.session.clone()),
            stats: StatsRegistry::default(),
            limits: config.limits.clone(),
            checkpoint_root: config.checkpoint_root.clone(),
            shutdown: AtomicBool::new(false),
            workers,
            alive_workers: AtomicUsize::new(workers),
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lip-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lip-serve-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(s) => {
                                if tx.send(s).is_err() {
                                    break;
                                }
                            }
                            Err(_) => continue,
                        }
                    }
                    // dropping tx drains the workers
                })
                .expect("spawn acceptor")
        };

        Ok(Server { addr, shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Model compilations so far (cache-race test hook).
    pub fn compiles(&self) -> u64 {
        self.shared.cache.compiles()
    }

    /// Worker panics caught so far (fault battery asserts 0).
    pub fn panics(&self) -> u64 {
        self.shared.stats.panics.load(Ordering::Relaxed)
    }

    /// How many worker threads are still running their loop.
    pub fn alive_workers(&self) -> usize {
        self.shared.alive_workers.load(Ordering::Relaxed)
    }

    /// Total worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Stop accepting, drain workers, join all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // unblock accept() with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Counts a worker out of `alive_workers` however its loop ends.
struct Alive<'a>(&'a AtomicUsize);

impl Drop for Alive<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    let _alive = Alive(&shared.alive_workers);
    loop {
        let stream = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(stream) = stream else { return };
        if shared.shutdown.load(Ordering::SeqCst) {
            continue; // drain the backlog without serving during shutdown
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, shared)));
        if outcome.is_err() {
            // the contract is that this never happens; count it so tests
            // (and /stats readers) can prove it didn't
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // once per connection: `read_request` relies on it for every read
    if let Err(e) = stream.set_read_timeout(Some(shared.limits.read_timeout)) {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        let e = ServeError::Internal { message: format!("set_read_timeout: {e}") };
        let _ = write_error(&mut stream, &e, false);
        return;
    }
    loop {
        let request = match http::read_request(&mut stream, &shared.limits) {
            Ok(ReadOutcome::Request(r)) => r,
            Ok(ReadOutcome::Closed) => return,
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_error(&mut stream, &e, false);
                return;
            }
        };
        let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let started = Instant::now();
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        match route(&request, shared, started) {
            Ok(body) => {
                if http::write_response(&mut stream, 200, &body, keep_alive).is_err() {
                    return;
                }
            }
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let keep = keep_alive && e.recoverable();
                if write_error(&mut stream, &e, keep).is_err() || !keep {
                    return;
                }
                continue;
            }
        }
        if !keep_alive {
            return;
        }
    }
}

fn write_error(stream: &mut TcpStream, e: &ServeError, keep_alive: bool) -> std::io::Result<()> {
    let body = e.body().dump();
    http::write_response(stream, e.status(), &body, keep_alive)?;
    stream.flush()
}

fn route(req: &Request, shared: &Arc<Shared>, started: Instant) -> Result<String, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/forecast") => forecast(req, shared, started),
        ("GET", "/stats") => Ok(shared
            .stats
            .snapshot(
                shared.alive_workers.load(Ordering::Relaxed),
                shared.workers,
                shared.cache.compiles(),
            )
            .dump_pretty()),
        ("GET", "/healthz") => Ok(Json::Object(vec![(
            "ok".into(),
            Json::Bool(true),
        )])
        .dump()),
        ("POST", p) | ("GET", p) => Err(ServeError::NotFound { path: p.to_string() }),
        (m, p) => Err(ServeError::MethodNotAllowed {
            method: m.to_string(),
            path: p.to_string(),
        }),
    }
}

fn forecast(req: &Request, shared: &Arc<Shared>, started: Instant) -> Result<String, ServeError> {
    // counted in flight from here until queued, sent past the batcher, or
    // failed: every early return drops the ticket and wakes the leaders
    let ticket = shared.cache.in_flight().enter();
    let parsed = ForecastRequest::parse(&req.body)?;
    let path = resolve_checkpoint(&parsed.checkpoint, shared)?;
    let session = shared.cache.get(&path, &parsed.spec, &shared.stats)?;
    session.stats.request();
    let fail = |e: ServeError| {
        session.stats.error();
        e
    };
    let multi = parsed.windows.is_some();
    let jobs = parsed
        .into_windows()
        .iter()
        .map(|w| session.validate_window(w))
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail)?;

    let c = session.contract.channels;
    let rows_of = |out: &crate::session::JobOut| -> Vec<Vec<f32>> {
        out.rows.chunks(c).map(<[f32]>::to_vec).collect()
    };
    let body = if multi {
        // an explicit batch: no coalescing wait
        drop(ticket);
        let outs = session.forecast_many(jobs).map_err(fail)?;
        if let Some(k) = outs.iter().position(|o| !finite(&o.rows)) {
            return Err(fail(ServeError::NonFiniteOutput { window: Some(k) }));
        }
        let response = BatchForecastResponse {
            batched: outs.len(),
            run_us: outs.first().map_or(0, |o| o.run_us),
            forecasts: outs.iter().map(rows_of).collect(),
            model: session.key_hex.clone(),
        };
        lip_serde::to_string(&response)
    } else {
        let job = jobs.into_iter().next().expect("legacy form is one window");
        let out = session.forecast(job, ticket).map_err(fail)?;
        session.stats.queue(out.queue_us);
        if !finite(&out.rows) {
            return Err(fail(ServeError::NonFiniteOutput { window: None }));
        }
        let response = ForecastResponse {
            forecast: rows_of(&out),
            model: session.key_hex.clone(),
            batched: out.batched,
            queue_us: out.queue_us,
            run_us: out.run_us,
        };
        lip_serde::to_string(&response)
    };
    session.stats.latency(started.elapsed().as_micros() as u64);
    Ok(body)
}

/// Whether every value of a forecast can be encoded as a JSON number.
fn finite(rows: &[f32]) -> bool {
    rows.iter().all(|v| v.is_finite())
}

/// Apply the optional checkpoint-root jail.
fn resolve_checkpoint(path: &str, shared: &Arc<Shared>) -> Result<String, ServeError> {
    match &shared.checkpoint_root {
        None => Ok(path.to_string()),
        Some(root) => {
            let p = std::path::Path::new(path);
            let escapes = p.is_absolute()
                || p.components().any(|c| matches!(c, std::path::Component::ParentDir));
            if escapes {
                return Err(ServeError::Checkpoint {
                    message: format!(
                        "checkpoint '{path}' must be a relative path inside the serving root"
                    ),
                });
            }
            Ok(root.join(p).to_string_lossy().into_owned())
        }
    }
}
