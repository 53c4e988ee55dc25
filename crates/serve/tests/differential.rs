//! Differential contract: forecasts served over the socket are
//! **byte-identical** (fnv1a golden hashes over the f32 bit patterns) to
//! running the same windows directly through `lip-exec`'s `BoundModel::run`
//! — on all nine benchmark datasets, across batch sizes, and coalesced vs
//! sequential serving. The served path runs at the process thread budget,
//! so the test suite's default and `LIP_THREADS=1` passes cover both.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use lip_data::DatasetName;
use lip_exec::compile_inference;
use lip_serve::batcher::BatchPolicy;
use lip_serve::session::SessionOptions;
use lip_serve::ServerConfig;
use lipformer::checkpoint;

/// Direct-path golden hashes: one `bind(B)` forward over windows
/// `0..count`, hashed per window.
fn direct_hashes(fx: &common::Fixture, count: usize, threads: usize) -> Vec<u64> {
    let model = checkpoint::load_model(&fx.ckpt, &fx.prep.spec).expect("load checkpoint");
    let compiled = compile_inference(&model, &fx.prep.spec).expect("compile");
    let indices: Vec<usize> = (0..count).collect();
    let batch = fx.prep.train.batch(&indices);
    let mut bound = compiled.bind(count);
    let pred = lip_par::with_threads(threads, || bound.run(&batch));
    let dense = pred.contiguous();
    let per = fx.config.pred_len * fx.prep.channels;
    (0..count)
        .map(|i| common::row_hash(&dense.data()[i * per..(i + 1) * per]))
        .collect()
}

/// Serve windows `0..count` one at a time over one connection; hash each.
fn sequential_hashes(
    fx: &common::Fixture,
    addr: std::net::SocketAddr,
    count: usize,
) -> Vec<u64> {
    let mut stream = common::connect(addr);
    (0..count)
        .map(|w| {
            let body = common::request_body(fx, w);
            common::write_request(&mut stream, "POST", "/forecast", &body, true);
            let resp = common::read_response(&mut stream).expect("response");
            assert_eq!(resp.status, 200, "window {w}: {}", resp.body);
            let rows = common::forecast_rows(&resp.body);
            let flat: Vec<f32> = rows.into_iter().flatten().collect();
            common::row_hash(&flat)
        })
        .collect()
}

/// Serve windows `0..count` from `count` concurrent clients released by a
/// barrier, with the batcher tuned to coalesce them. Returns the hashes in
/// window order plus the largest coalesced batch any response rode in.
fn coalesced_hashes(
    fx: &common::Fixture,
    addr: std::net::SocketAddr,
    count: usize,
) -> (Vec<u64>, usize) {
    let barrier = Arc::new(Barrier::new(count));
    let max_batched = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..count)
        .map(|w| {
            let body = common::request_body(fx, w);
            let barrier = Arc::clone(&barrier);
            let max_batched = Arc::clone(&max_batched);
            std::thread::spawn(move || {
                barrier.wait();
                let resp = common::post(addr, "/forecast", &body);
                assert_eq!(resp.status, 200, "window {w}: {}", resp.body);
                let batched = resp
                    .json()
                    .field::<u64>("batched")
                    .expect("batched field") as usize;
                max_batched.fetch_max(batched, Ordering::Relaxed);
                let rows = common::forecast_rows(&resp.body);
                let flat: Vec<f32> = rows.into_iter().flatten().collect();
                (w, common::row_hash(&flat))
            })
        })
        .collect();
    let mut hashes = vec![0u64; count];
    for h in handles {
        let (w, hash) = h.join().expect("client thread");
        hashes[w] = hash;
    }
    (hashes, max_batched.load(Ordering::Relaxed))
}

fn coalescing_config(max_batch: usize) -> ServerConfig {
    ServerConfig {
        workers: max_batch.max(4),
        session: SessionOptions {
            batch: BatchPolicy {
                max_batch,
                // generous so a leader waits for every barrier-released
                // client still in flight
                max_wait: Duration::from_millis(150),
            },
        },
        ..ServerConfig::default()
    }
}

#[test]
fn socket_forecasts_match_direct_execution() {
    for name in DatasetName::all() {
        // ETTh1 sweeps the batch sizes; one size per other dataset keeps
        // the debug-build runtime down
        let sizes: &[usize] = if name == DatasetName::ETTh1 { &[1, 7, 32] } else { &[7] };
        let fx = common::fixture(name, "diff-main");
        for &b in sizes {
            let golden = direct_hashes(&fx, b, 1);
            let server = common::start(coalescing_config(b.max(2)));
            let sequential = sequential_hashes(&fx, server.addr(), b);
            assert_eq!(sequential, golden, "{name:?}: sequential serving diverged at B={b}");
            server.shutdown();
        }
    }
}

#[test]
fn coalesced_equals_sequential_equals_direct() {
    let fx = common::fixture(DatasetName::ETTm2, "diff-coalesce");
    let b = 7usize;
    let golden = direct_hashes(&fx, b, 1);

    // retry the concurrency: coalescing depends on scheduling, so demand
    // at least one multi-request batch within a few attempts
    let mut best_batch = 0;
    for attempt in 0..5 {
        let server = common::start(coalescing_config(b));
        let (hashes, max_batched) = coalesced_hashes(&fx, server.addr(), b);
        assert_eq!(
            hashes, golden,
            "coalesced serving diverged (attempt {attempt}, max batch {max_batched})"
        );
        assert_eq!(server.panics(), 0);
        server.shutdown();
        best_batch = best_batch.max(max_batched);
        if best_batch > 1 {
            break;
        }
    }
    assert!(
        best_batch > 1,
        "no request ever coalesced (best batch {best_batch}); batcher never engaged"
    );
}

#[test]
fn forward_thread_budget_does_not_change_bytes() {
    let fx = common::fixture(DatasetName::Electricity, "diff-threads");
    let b = 7usize;
    // direct path at 1 and 4 threads must agree (lip-par determinism)…
    let golden1 = direct_hashes(&fx, b, 1);
    let golden4 = direct_hashes(&fx, b, 4);
    assert_eq!(golden1, golden4, "direct execution is thread-count dependent");

    // …and so must the served path at the process budget, which the
    // default and `LIP_THREADS=1` test passes set to two different values
    let server = common::start(coalescing_config(b));
    let (hashes, _) = coalesced_hashes(&fx, server.addr(), b);
    assert_eq!(
        hashes,
        golden1,
        "served bytes diverged at {} thread(s)",
        lip_par::max_threads()
    );
    server.shutdown();
}

#[test]
fn batched_direct_rows_match_single_window_rows() {
    // the batch-invariance property the whole coalescing design rests on,
    // pinned at the exec level with the serve fixture
    let fx = common::fixture(DatasetName::Weather, "diff-invariance");
    let b32 = direct_hashes(&fx, 32, 1);
    for w in [0usize, 7, 31] {
        let model = checkpoint::load_model(&fx.ckpt, &fx.prep.spec).expect("load");
        let compiled = compile_inference(&model, &fx.prep.spec).expect("compile");
        let batch = fx.prep.train.batch(&[w]);
        let mut bound = compiled.bind(1);
        let pred = lip_par::with_threads(1, || bound.run(&batch));
        let dense = pred.contiguous();
        assert_eq!(
            common::row_hash(dense.data()),
            b32[w],
            "window {w}: B=1 bytes differ from its row in the B=32 forward"
        );
    }
}
