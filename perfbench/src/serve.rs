//! The serving workloads, driven against the shipped `lip-serve` binary run
//! as a child process with its default flags.
//!
//! - `serve_online`: an open loop. Arrivals are Poisson at [`ONLINE_RATE`];
//!   half go to the ElectriPrice checkpoint, the rest uniformly to the other
//!   eight. A due request goes out on whichever of [`ONLINE_CONNS`]
//!   keep-alive connections is free, and its latency counts from when it
//!   was due.
//! - `serve_bulk`: a closed loop on one connection; each request carries
//!   [`BULK_WINDOWS`] windows of one checkpoint, round-robin over all nine.
//!
//! With `--trace 1` the timed phase is split into an untraced and a traced
//! half (client spans only), then a sample of the requests is replayed
//! in-process through the layers' public functions under spans.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lip_data::window::{Batch, BatchContract};
use lip_data::DatasetName;
use lip_rng::rngs::StdRng;
use lip_rng::{Rng, SeedableRng};
use lip_serde::Json;
use lip_serve::proto::{BatchForecastResponse, ForecastRequest, ForecastResponse};
use lip_serve::session::{Job, SessionCache, SessionOptions};
use lip_serve::stats::StatsRegistry;
use lip_tensor::Tensor;

use crate::client::{Conn, ServerProc};
use crate::fixture::{self, Served, Staged, BULK_WINDOWS, POOL};
use crate::report::{Outcome, Phase};
use crate::sys::{self, bits_hash, median, quantile};
use crate::trace::Tracer;
use crate::Args;

/// `serve_online` arrival rate, requests per second: about a seventh of the
/// closed-loop capacity of the same mix on two connections (415-425
/// requests/s on a 2-core x86-64 host). Near half that capacity, waits for
/// a free connection amplify the host's own stalls into the latency tail.
pub const ONLINE_RATE: f64 = 60.0;
/// `serve_online` latency limit from due time, milliseconds.
pub const ONLINE_SLO_MS: f64 = 10.0;
/// `serve_bulk` latency limit per 32-window request, milliseconds.
pub const BULK_SLO_MS: f64 = 100.0;
/// Connections (and client threads) of `serve_online`.
pub const ONLINE_CONNS: usize = 2;
/// A request sent more than this long after it was due counts as late.
const LATE_MS: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Open-loop warm-up before the timed phase, seconds.
const WARMUP_S: f64 = 1.0;
/// Requests replayed in-process under spans by a traced run.
const REPLAY_ONLINE: usize = 270;
const REPLAY_BULK: usize = 18;

/// Index of ElectriPrice in `DatasetName::all()`.
fn electri_price() -> usize {
    DatasetName::all()
        .iter()
        .position(|&n| n == DatasetName::ElectriPrice)
        .expect("ElectriPrice is a benchmark dataset")
}

/// Which body a request sends: dataset, and pool window (online) or bulk
/// body (bulk).
#[derive(Clone, Copy)]
struct Pick {
    ds: usize,
    item: usize,
}

/// One finished request.
struct Done {
    pick: Pick,
    /// HTTP status, 0 on a transport error.
    status: u16,
    body: Vec<u8>,
    latency: Duration,
    late: Duration,
}

struct Setup {
    sets: Vec<Served>,
    server: ServerProc,
    setup_s: Vec<f64>,
    ckpt_dir: PathBuf,
}

/// Generate data, build models, save checkpoints, start the server and
/// compile every checkpoint with a first request — [`SETUP_REPEATS`] times,
/// keeping the last server.
fn setup(args: &Args, out_dir: &Path) -> Result<Setup, String> {
    let ckpt_dir = out_dir.join(format!("ckpt-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        let sets = fixture::build_serving_set(args.seed, &ckpt_dir)?;
        let server = ServerProc::spawn(&args.serve_bin)?;
        let mut conn = Conn::new(server.addr);
        for ds in &sets {
            match conn.post("/forecast", &fixture::first_body(ds)) {
                Ok((200, _)) => {}
                Ok((status, body)) => {
                    return Err(format!(
                        "{:?}: first request answered {status}: {}",
                        ds.name,
                        String::from_utf8_lossy(&body)
                    ))
                }
                Err(e) => return Err(format!("{:?}: first request failed: {e}", ds.name)),
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some((sets, server));
    }
    let (sets, server) = last.expect("at least one set-up");
    let sets = sets
        .into_iter()
        .map(Served::new)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        sets,
        server,
        setup_s,
        ckpt_dir,
    })
}

impl Setup {
    fn finish(self) {
        drop(self.server);
        let _ = std::fs::remove_dir_all(&self.ckpt_dir);
    }
}

/// Which serving workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Online,
    Bulk,
}

impl Mix {
    fn slo_ms(self) -> f64 {
        match self {
            Mix::Online => ONLINE_SLO_MS,
            Mix::Bulk => BULK_SLO_MS,
        }
    }
}

fn context(out: &mut Outcome, args: &Args, s: &Setup, mix: Mix) {
    match mix {
        Mix::Online => {
            out.context(
                "why",
                "single-window Poisson arrivals: latency comes from the micro-batcher's flush \
                 timer, session lookup, bind and per-request overhead, not from the kernels",
            );
            out.context("poisson_rate_per_s", &ONLINE_RATE);
            out.context("connections", &ONLINE_CONNS);
            out.context("late_threshold_ms", &LATE_MS);
        }
        Mix::Bulk => {
            out.context(
                "why",
                "32-window requests bypass the batcher: lip-serde parsing of 180-570 KB bodies \
                 and the B=32 executor forward dominate, and one client leaves the second core \
                 to the forward",
            );
            out.context("connections", &1);
            out.context("windows_per_request", &BULK_WINDOWS);
        }
    }
    out.context("slo_ms", &mix.slo_ms());
    out.context("nproc", &sys::nproc());
    out.context("lip_par_max_threads", &lip_par::max_threads());
    out.context("lip_serve_banner", s.server.banner.as_str());
    out.context("seed", &args.seed);
    out.context("setup_s_each", &s.setup_s);
    out.context(
        "compile_ms_each",
        &s.sets.iter().map(|x| x.compile_ms).collect::<Vec<_>>(),
    );
}

/// Poisson arrivals over `span_s` seconds from `rng`.
fn poisson(rng: &mut StdRng, span_s: f64) -> Vec<(Duration, Pick)> {
    let others: Vec<usize> = (0..DatasetName::all().len())
        .filter(|&i| i != electri_price())
        .collect();
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / ONLINE_RATE;
        if t >= span_s {
            return out;
        }
        let ds = if rng.gen_bool(0.5) {
            electri_price()
        } else {
            others[rng.gen_range(0..others.len())]
        };
        out.push((
            Duration::from_secs_f64(t),
            Pick {
                ds,
                item: rng.gen_range(0..POOL),
            },
        ));
    }
}

/// Drive the open loop; returns the finished requests in schedule order and
/// the wall time from the first due time to the last answer. When traced,
/// each request's client span goes into `tracer`.
fn open_loop(
    addr: SocketAddr,
    sets: &[Served],
    arrivals: &[(Duration, Pick)],
    tracer: Option<&mut Tracer>,
) -> (Vec<Done>, Duration) {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let t0 = Instant::now() + Duration::from_millis(5);
    let traced = tracer.is_some();
    let mut results: Vec<(usize, Done)> = Vec::with_capacity(arrivals.len());
    let mut end = t0;
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ONLINE_CONNS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut tr = Tracer::new(origin);
                    let mut done = Vec::new();
                    let mut last = t0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, pick)) = arrivals.get(i) else {
                            break;
                        };
                        let due = t0 + offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let span = traced.then(|| tr.open("loadgen.request", i as u64));
                        let res = conn.post("/forecast", &sets[pick.ds].single[pick.item]);
                        if let Some(span) = span {
                            tr.close(span);
                        }
                        last = Instant::now();
                        let (status, body) = res.unwrap_or((0, Vec::new()));
                        done.push((
                            i,
                            Done {
                                pick,
                                status,
                                body,
                                latency: last - due,
                                late: sent.saturating_duration_since(due),
                            },
                        ));
                    }
                    (done, tr, last)
                })
            })
            .collect();
        for w in workers {
            let (done, tr, last) = w.join().expect("client thread panicked");
            results.extend(done);
            spans.push(tr);
            end = end.max(last);
        }
    });
    if let Some(t) = tracer {
        for s in spans {
            t.merge(s);
        }
    }
    results.sort_by_key(|(i, _)| *i);
    (results.into_iter().map(|(_, d)| d).collect(), end - t0)
}

/// Drive the bulk closed loop for `seconds`, starting at request `first`.
fn bulk_loop(
    addr: SocketAddr,
    sets: &[Served],
    first: usize,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Done>, Duration) {
    let mut conn = Conn::new(addr);
    let started = Instant::now();
    let mut done = Vec::new();
    let mut k = first;
    while done.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let pick = bulk_pick(sets, k);
        let span = tracer.as_mut().map(|t| t.open("loadgen.request", k as u64));
        let sent = Instant::now();
        let res = conn.post("/forecast", &sets[pick.ds].bulk[pick.item]);
        let latency = sent.elapsed();
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
        let (status, body) = res.unwrap_or((0, Vec::new()));
        done.push(Done {
            pick,
            status,
            body,
            latency,
            late: Duration::ZERO,
        });
        k += 1;
    }
    (done, started.elapsed())
}

/// Request `k` of the bulk sequence: checkpoints round-robin, then the
/// next bulk body of each.
fn bulk_pick(sets: &[Served], k: usize) -> Pick {
    let n = sets.len();
    Pick {
        ds: k % n,
        item: (k / n) % sets[k % n].bulk.len(),
    }
}

/// What the checks found in one phase's answers.
#[derive(Default)]
struct Checked {
    /// What each request sent, in schedule order.
    picks: Vec<Pick>,
    attempted: u64,
    failed: u64,
    parity_failures: u64,
    windows_ok: u64,
    /// Latency of each answered request.
    latency_ms: Vec<f64>,
    /// Its latency from when it was sent, not from when it was due.
    service_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_us: Vec<f64>,
    batched: Vec<f64>,
    outside_us: Vec<f64>,
}

/// Check every answer bit for bit against the golden hashes and collect
/// latencies and the server-reported timings.
fn check(sets: &[Served], done: &[Done], bulk: bool) -> Checked {
    let mut c = Checked {
        attempted: done.len() as u64,
        ..Checked::default()
    };
    for d in done {
        c.picks.push(d.pick);
        let lat_ms = sys::ms(d.latency);
        c.late_ms.push(sys::ms(d.late));
        let verdict = (d.status == 200)
            .then(|| verify(&sets[d.pick.ds], d, bulk))
            .flatten();
        match verdict {
            Some(Ok(v)) => {
                c.windows_ok += v.windows;
                c.latency_ms.push(lat_ms);
                c.service_ms.push(lat_ms - sys::ms(d.late));
                c.queue_us.push(v.queue_us);
                c.batched.push(v.batched);
                c.outside_us.push(lat_ms * 1e3 - v.queue_us - v.run_us);
            }
            Some(Err(())) => {
                c.failed += 1;
                c.parity_failures += 1;
            }
            None => c.failed += 1,
        }
    }
    c
}

struct Verified {
    windows: u64,
    queue_us: f64,
    run_us: f64,
    batched: f64,
}

/// `None` when the body does not decode, `Err` on a parity mismatch.
fn verify(s: &Served, d: &Done, bulk: bool) -> Option<Result<Verified, ()>> {
    let json = lip_serde::from_slice::<Json>(&d.body).ok()?;
    let num = |k: &str| json.field::<f64>(k).ok();
    let (hashes, first): (Vec<u64>, usize) = if bulk {
        let fs: Vec<Vec<Vec<f32>>> = json.field("forecasts").ok()?;
        (
            fs.iter().map(|f| bits_hash(&f.concat())).collect(),
            d.pick.item * BULK_WINDOWS,
        )
    } else {
        let f: Vec<Vec<f32>> = json.field("forecast").ok()?;
        (vec![bits_hash(&f.concat())], d.pick.item)
    };
    let want = &s.golden[first..first + if bulk { BULK_WINDOWS } else { 1 }];
    if hashes != want {
        return Some(Err(()));
    }
    Some(Ok(Verified {
        windows: hashes.len() as u64,
        queue_us: num("queue_us").unwrap_or(0.0),
        run_us: num("run_us")?,
        batched: num("batched")?,
    }))
}

/// The end-to-end metrics of one checked phase. A failed request misses
/// the latency limit.
fn end_to_end(
    c: &Checked,
    slo_ms: f64,
    wall: Duration,
    cpu_ms: f64,
    rss_mb: f64,
    setup_s: &[f64],
) -> BTreeMap<&'static str, f64> {
    let mut lat = c.latency_ms.clone();
    lat.sort_by(f64::total_cmp);
    let within = lat.iter().filter(|&&l| l <= slo_ms).count() as f64;
    let attempted = c.attempted.max(1) as f64;
    BTreeMap::from([
        ("throughput_wps", c.windows_ok as f64 / wall.as_secs_f64()),
        ("latency_p50_ms", quantile(&lat, 0.50)),
        ("slo_share", within / attempted),
        ("cpu_ms_per_window", cpu_ms / c.windows_ok.max(1) as f64),
        ("peak_rss_mb", rss_mb),
        ("setup_s", median(setup_s)),
        ("ok_share", (c.attempted - c.failed) as f64 / attempted),
    ])
}

fn phase(out: &mut Outcome, name: &str, timed: bool, c: &Checked) {
    out.phases.push(Phase {
        name: name.into(),
        timed,
        attempted: c.attempted,
        failed: c.failed,
    });
    out.check(
        format!("{name}: every answer bit-exact"),
        c.parity_failures == 0,
    );
}

/// The layer-level numbers the load phase's answers carry.
fn answer_layers(out: &mut Outcome, c: &Checked, online: bool) {
    let mut service = c.service_ms.clone();
    service.sort_by(f64::total_cmp);
    let mut latency = c.latency_ms.clone();
    latency.sort_by(f64::total_cmp);
    let qs = [0.5, 0.9, 0.95, 0.99];
    out.context(
        "latency_p50_p90_p95_p99_ms",
        &qs.map(|q| quantile(&latency, q)).to_vec(),
    );
    out.context(
        "service_p50_p90_p95_p99_ms",
        &qs.map(|q| quantile(&service, q)).to_vec(),
    );
    let mut late = c.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let late_share =
        c.late_ms.iter().filter(|&&l| l > LATE_MS).count() as f64 / c.attempted.max(1) as f64;
    out.per_layer
        .insert("lip-serve.batch_mean", sys::mean(&c.batched));
    out.per_layer
        .insert("lip-serve.outside_us", median(&c.outside_us));
    if online {
        out.per_layer
            .insert("lip-serve.queue_us", median(&c.queue_us));
        out.per_layer
            .insert("loadgen.late_p99_ms", quantile(&late, 0.99));
        out.per_layer.insert("loadgen.late_share", late_share);
    }
}

/// Child CPU milliseconds, failing loudly when `/proc` is unreadable.
fn child_cpu(server: &ServerProc) -> Result<f64, String> {
    sys::cpu_ms(&server.pid()).ok_or_else(|| "cannot read the server's /proc stat".to_string())
}

/// The load of one workload against the running server.
struct Load<'a> {
    s: &'a Setup,
    mix: Mix,
    rng: StdRng,
    /// Requests sent so far (the bulk sequence continues across phases).
    sent: usize,
}

impl Load<'_> {
    /// Drive one phase of `seconds`; returns its checked answers and their
    /// end-to-end metrics.
    fn phase(
        &mut self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Result<(Checked, BTreeMap<&'static str, f64>), String> {
        let (server, sets) = (&self.s.server, &self.s.sets);
        let cpu0 = child_cpu(server)?;
        let (done, wall) = match self.mix {
            Mix::Online => {
                let arrivals = poisson(&mut self.rng, seconds);
                open_loop(server.addr, sets, &arrivals, tracer)
            }
            Mix::Bulk => bulk_loop(server.addr, sets, self.sent, seconds, tracer),
        };
        let cpu = child_cpu(server)? - cpu0;
        let rss = sys::peak_rss_mb(&server.pid()).unwrap_or(0.0);
        self.sent += done.len();
        let checked = check(sets, &done, self.mix == Mix::Bulk);
        let metrics = end_to_end(&checked, self.mix.slo_ms(), wall, cpu, rss, &self.s.setup_s);
        Ok((checked, metrics))
    }
}

/// Run `serve_online` or `serve_bulk`: set up, warm up, measure; when
/// traced, measure a traced half and replay a sample of its requests.
pub fn run(args: &Args, out_dir: &Path, mix: Mix) -> Result<Outcome, String> {
    let s = setup(args, out_dir)?;
    let mut out = Outcome::default();
    context(&mut out, args, &s, mix);
    let mut load = Load {
        s: &s,
        mix,
        rng: StdRng::seed_from_u64(args.seed ^ 0xa771_7a15),
        sent: 0,
    };

    let (warm, _) = load.phase(WARMUP_S, None)?;
    phase(&mut out, "warmup", false, &warm);

    let span = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, metrics) = load.phase(span, None)?;
    let name = if args.trace {
        "timed-untraced"
    } else {
        "timed"
    };
    phase(&mut out, name, true, &untraced);
    out.end_to_end = metrics;
    out.context("requests_timed", &untraced.attempted);
    answer_layers(&mut out, &untraced, mix == Mix::Online);

    if args.trace {
        let mut tr = Tracer::new(Instant::now());
        let (traced, metrics) = load.phase(span, Some(&mut tr))?;
        phase(&mut out, "timed-traced", true, &traced);
        out.traced_end_to_end = metrics;
        let sample = match mix {
            Mix::Online => REPLAY_ONLINE,
            Mix::Bulk => REPLAY_BULK,
        };
        let picks: Vec<Pick> = traced.picks.iter().take(sample).copied().collect();
        replay(&mut out, &s.sets, &picks, mix == Mix::Bulk, &mut tr)?;
        write_spans(&mut out, args, out_dir, &tr);
    }
    s.finish();
    Ok(out)
}

/// Rebuild the `[B, …]` batch from validated jobs, as the server's batch
/// runner does.
fn assemble(jobs: &[Job], c: &BatchContract) -> Batch {
    let b = jobs.len();
    let cat = |chan: usize| {
        jobs.iter()
            .flat_map(|j| j.cov_categorical.as_ref().expect("categorical job")[chan].clone())
            .collect()
    };
    Batch {
        x: Tensor::from_vec(
            jobs.iter().flat_map(|j| j.x.iter().copied()).collect(),
            &[b, c.seq_len, c.channels],
        ),
        y: Tensor::zeros(&[b, c.pred_len, c.channels]),
        time_feats: Tensor::from_vec(
            jobs.iter()
                .flat_map(|j| j.time_feats.iter().copied())
                .collect(),
            &[b, c.pred_len, c.time_features],
        ),
        cov_numerical: (c.numerical > 0).then(|| {
            Tensor::from_vec(
                jobs.iter()
                    .flat_map(|j| j.cov_numerical.iter().flatten().copied())
                    .collect(),
                &[b, c.pred_len, c.numerical],
            )
        }),
        cov_categorical: (!c.cardinalities.is_empty())
            .then(|| (0..c.cardinalities.len()).map(cat).collect()),
    }
}

/// Replay `picks` in-process through the serving layers' public functions
/// under spans, check the results against the golden hashes and against
/// `model.forward`, and derive the per-layer metrics.
fn replay(
    out: &mut Outcome,
    sets: &[Served],
    picks: &[Pick],
    bulk: bool,
    tr: &mut Tracer,
) -> Result<(), String> {
    let cache = SessionCache::new(SessionOptions::default());
    let registry = StatsRegistry::default();
    for s in sets {
        // the first lookup compiles; the replay times the warm path
        cache
            .get(&s.ds.ckpt, &s.ds.spec, &registry)
            .map_err(|e| format!("{:?}: in-process session: {e}", s.ds.name))?;
    }
    let staged: Vec<Staged> = sets
        .iter()
        .map(|s| Staged::rebuild(&s.ds.model, &s.ds.spec, s.ds.model_seed))
        .collect();
    let (mut parity, mut stages_equal, mut failed) = (true, true, 0u64);
    for (i, pick) in picks.iter().enumerate() {
        let req = 1_000_000 + i as u64;
        let s = &sets[pick.ds];
        let body = if bulk {
            &s.bulk[pick.item]
        } else {
            &s.single[pick.item]
        };
        tr.count("lip-serde.body_kb", req, body.len() as f64 / 1024.0);
        let root = tr.open("replay.request", req);
        let result = (|| -> Result<Batch, String> {
            let parsed = tr
                .time("lip-serde.parse", req, || ForecastRequest::parse(body))
                .map_err(|e| e.to_string())?;
            let session = tr
                .time("lip-serve.session_get", req, || {
                    cache.get(&parsed.checkpoint, &parsed.spec, &registry)
                })
                .map_err(|e| e.to_string())?;
            let windows = parsed.into_windows();
            let jobs = tr
                .time("lip-serve.validate", req, || {
                    windows
                        .iter()
                        .map(|w| session.validate_window(w))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let batch = tr.time("replay.assemble", req, || {
                assemble(&jobs, &session.contract)
            });
            let b = jobs.len();
            let mut bound = tr.time("lip-exec.bind", req, || s.compiled.bind(b));
            let run_started = Instant::now();
            let pred = tr.time("lip-exec.run", req, || bound.run(&batch));
            let run_us = run_started.elapsed().as_secs_f64() * 1e6;
            tr.count("lip-exec.arena_bytes", req, bound.arena_bytes() as f64);
            tr.count("replay.run_us", req, run_us);

            let c = session.contract.channels;
            let dense = pred.contiguous();
            let forecasts: Vec<Vec<Vec<f32>>> = dense
                .data()
                .chunks(session.contract.pred_len * c)
                .map(|w| w.chunks(c).map(<[f32]>::to_vec).collect())
                .collect();
            let first = if bulk {
                pick.item * BULK_WINDOWS
            } else {
                pick.item
            };
            let hashes: Vec<u64> = forecasts.iter().map(|f| bits_hash(&f.concat())).collect();
            parity &= hashes == s.golden[first..first + b];
            let model = session.key_hex.clone();
            let encoded = if bulk {
                let resp = BatchForecastResponse {
                    forecasts,
                    model,
                    batched: b,
                    run_us: run_us as u64,
                };
                tr.time("lip-serde.encode", req, || lip_serde::to_string(&resp))
            } else {
                let forecast = forecasts.into_iter().next().expect("one window");
                let resp = ForecastResponse {
                    forecast,
                    model,
                    batched: b,
                    queue_us: 0,
                    run_us: run_us as u64,
                };
                tr.time("lip-serde.encode", req, || lip_serde::to_string(&resp))
            };
            std::hint::black_box(encoded);
            Ok(batch)
        })();
        tr.close(root);
        let batch = match result {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perfbench: replay request {i}: {e}");
                failed += 1;
                continue;
            }
        };
        let bits = staged[pick.ds].forward(tr, req, &batch, false, &mut StdRng::seed_from_u64(0));
        let macs = *tr
            .counter("lipformer.forward_macs")
            .last()
            .expect("forward counted");
        let run_us = *tr.counter("replay.run_us").last().expect("run timed");
        tr.count("lip-exec.gflops", req, 2.0 * macs / run_us / 1e3);
        let reference =
            fixture::model_forward_bits(&s.ds.model, &batch, false, &mut StdRng::seed_from_u64(0));
        stages_equal &= bits == reference;
    }
    out.phases.push(Phase {
        name: "replay".into(),
        timed: true,
        attempted: picks.len() as u64,
        failed,
    });
    out.check("replay: in-process forecasts bit-exact", parity);
    out.check(
        "replay: staged tape forward equals model.forward",
        stages_equal,
    );

    let selfs = tr.self_times_us();
    let self_median = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
    for (metric, span) in [
        ("lip-serve.session_get_us", "lip-serve.session_get"),
        ("lip-serve.validate_us", "lip-serve.validate"),
        ("lip-exec.bind_us", "lip-exec.bind"),
        ("lip-exec.run_us", "lip-exec.run"),
        ("lip-serde.parse_us", "lip-serde.parse"),
        ("lip-serde.encode_us", "lip-serde.encode"),
        ("lipformer.repr_us", "lipformer.repr"),
        ("lipformer.extract_us", "lipformer.extract"),
        ("lipformer.project_us", "lipformer.project"),
        ("lipformer.enrich_us", "lipformer.enrich"),
    ] {
        out.per_layer.insert(metric, self_median(span));
    }
    for name in [
        "lip-serde.body_kb",
        "lip-exec.arena_bytes",
        "lipformer.repr_macs",
        "lipformer.extract_macs",
        "lipformer.project_macs",
        "lipformer.enrich_macs",
        "lip-tensor.copied_bytes",
        "lip-tensor.pack_bytes",
    ] {
        out.per_layer.insert(name, sys::mean(&tr.counter(name)));
    }
    out.per_layer
        .insert("lip-exec.gflops", median(&tr.counter("lip-exec.gflops")));
    out.per_layer.insert(
        "lip-exec.compile_ms",
        median(&sets.iter().map(|s| s.compile_ms).collect::<Vec<_>>()),
    );
    Ok(())
}

/// Write the run's spans under `.bench_out/spans/` and note where.
pub fn write_spans(out: &mut Outcome, args: &Args, out_dir: &Path, tr: &Tracer) {
    let path = out_dir
        .join("spans")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    match tr.write_json(&path) {
        Ok(()) => out.context("spans_file", path.to_string_lossy().as_ref()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    out.context("spans", &tr.len());
}
