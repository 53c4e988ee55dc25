//! Multi-window requests: a `windows` array runs as one batch of `B`
//! windows, split like a coalesced batch into fixed 8-window shards, and
//! must return forecasts byte-identical to submitting the same windows
//! sequentially as single-window requests and to one direct `bind(B)`
//! forward in `lip-exec`. The shard size is fixed, so the split is taken
//! at every thread budget.

mod common;

use lip_data::DatasetName;
use lip_exec::compile_inference;
use lip_serve::proto::MAX_WINDOWS;
use lip_serve::ServerConfig;
use lipformer::checkpoint;

/// Per-window hashes of a multi-window 200 body, asserting the single-batch
/// contract on the way.
fn multi_hashes(body: &str, want: usize) -> Vec<u64> {
    let json = lip_serde::from_str::<lip_serde::Json>(body).expect("JSON body");
    let batched = json.field::<u64>("batched").expect("batched field") as usize;
    assert_eq!(batched, want, "windows did not ride one batch: {body}");
    assert!(
        json.get("forecast").is_none(),
        "multi-window response must not carry a single 'forecast': {body}"
    );
    let forecasts = json
        .field::<Vec<Vec<Vec<f32>>>>("forecasts")
        .expect("forecasts field");
    assert_eq!(forecasts.len(), want);
    forecasts
        .into_iter()
        .map(|rows| {
            let flat: Vec<f32> = rows.into_iter().flatten().collect();
            common::row_hash(&flat)
        })
        .collect()
}

#[test]
fn multi_window_equals_sequential_equals_direct() {
    let fx = common::fixture(DatasetName::ETTh1, "multi-diff");
    let count = 5usize;

    // direct lip-exec golden hashes for the same windows
    let model = checkpoint::load_model(&fx.ckpt, &fx.prep.spec).expect("load checkpoint");
    let compiled = compile_inference(&model, &fx.prep.spec).expect("compile");
    let indices: Vec<usize> = (0..count).collect();
    let batch = fx.prep.train.batch(&indices);
    let mut bound = compiled.bind(count);
    let pred = lip_par::with_threads(1, || bound.run(&batch));
    let dense = pred.contiguous();
    let per = fx.config.pred_len * fx.prep.channels;
    let golden: Vec<u64> = (0..count)
        .map(|i| common::row_hash(&dense.data()[i * per..(i + 1) * per]))
        .collect();

    let server = common::start(ServerConfig::default());

    // sequential single-window submissions over one connection
    let mut stream = common::connect(server.addr());
    let sequential: Vec<u64> = (0..count)
        .map(|w| {
            let body = common::request_body(&fx, w);
            common::write_request(&mut stream, "POST", "/forecast", &body, true);
            let resp = common::read_response(&mut stream).expect("response");
            assert_eq!(resp.status, 200, "window {w}: {}", resp.body);
            let rows = common::forecast_rows(&resp.body);
            let flat: Vec<f32> = rows.into_iter().flatten().collect();
            common::row_hash(&flat)
        })
        .collect();
    assert_eq!(sequential, golden, "sequential serving diverged from direct");

    // the same windows in one multi-window body
    let windows = (0..count).map(|w| common::window(&fx, w)).collect();
    let resp = common::post(server.addr(), "/forecast", &common::windows_body(&fx, windows));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let multi = multi_hashes(&resp.body, count);
    assert_eq!(
        multi, sequential,
        "multi-window batch diverged from sequential submission"
    );

    assert_eq!(server.panics(), 0);
    server.shutdown();
}

#[test]
fn sharded_batches_serve_the_bytes_of_one_direct_forward() {
    let fx = common::fixture(DatasetName::ETTh1, "multi-shards");
    let model = checkpoint::load_model(&fx.ckpt, &fx.prep.spec).expect("load checkpoint");
    let compiled = compile_inference(&model, &fx.prep.spec).expect("compile");
    let server = common::start(ServerConfig::default());

    // one short shard, one full, and full shards with 1 left over
    let sizes = [7usize, 8, 9, 17, 33];
    for (served, &b) in sizes.iter().enumerate() {
        let indices: Vec<usize> = (0..b).collect();
        let batch = fx.prep.train.batch(&indices);
        let pred = lip_par::with_threads(1, || compiled.bind(b).run(&batch));
        let want: Vec<u32> = pred.contiguous().data().iter().map(|v| v.to_bits()).collect();

        let windows = (0..b).map(|w| common::window(&fx, w)).collect();
        let resp = common::post(server.addr(), "/forecast", &common::windows_body(&fx, windows));
        assert_eq!(resp.status, 200, "B = {b}: {}", resp.body);
        let json = resp.json();
        assert_eq!(json.field::<u64>("batched"), Ok(b as u64), "B = {b}");
        let forecasts = json
            .field::<Vec<Vec<Vec<f32>>>>("forecasts")
            .expect("forecasts field");
        let got: Vec<u32> = forecasts.into_iter().flatten().flatten().map(f32::to_bits).collect();
        assert!(got == want, "B = {b}: served bytes differ from one direct forward");

        // each request is one batch of its full size in /stats
        let stats = common::get(server.addr(), "/stats").json();
        let models = stats.get("models").expect("models").as_array().expect("array");
        let hist = models[0].field::<Vec<Vec<u64>>>("batch_hist").expect("batch_hist");
        let want_hist: Vec<Vec<u64>> = sizes[..=served].iter().map(|&s| vec![s as u64, 1]).collect();
        assert_eq!(hist, want_hist, "B = {b}");
    }

    assert_eq!(server.panics(), 0);
    server.shutdown();
}

#[test]
fn malformed_multi_window_bodies_are_rejected() {
    let fx = common::fixture(DatasetName::ETTh2, "multi-bad");
    let server = common::start(ServerConfig::default());
    let ckpt = fx.ckpt.to_string_lossy().into_owned();

    // empty windows array
    let body = format!(r#"{{"checkpoint": "{ckpt}", "windows": []}}"#);
    let resp = common::post(server.addr(), "/forecast", &body);
    assert_eq!(resp.status, 400, "{}", resp.body);

    // both a windows array and a top-level window
    let one = lip_serde::to_string(&common::window(&fx, 0));
    let body = format!(
        r#"{{"checkpoint": "{ckpt}", "windows": [{one}], "x": [[1.0]], "time_feats": []}}"#
    );
    let resp = common::post(server.addr(), "/forecast", &body);
    assert_eq!(resp.status, 400, "{}", resp.body);

    // over the per-request window cap
    let tiny = r#"{"x": [[1.0]], "time_feats": []}"#;
    let many = vec![tiny; MAX_WINDOWS + 1].join(",");
    let body = format!(r#"{{"checkpoint": "{ckpt}", "windows": [{many}]}}"#);
    let resp = common::post(server.addr(), "/forecast", &body);
    assert_eq!(resp.status, 400, "{}", resp.body);

    // a ragged window inside the array is named in the error
    let ragged = r#"{"x": [[1.0, 2.0], [3.0]], "time_feats": []}"#;
    let body = format!(r#"{{"checkpoint": "{ckpt}", "windows": [{one}, {ragged}]}}"#);
    let resp = common::post(server.addr(), "/forecast", &body);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("windows[1]"),
        "error should name the offending window: {}",
        resp.body
    );

    assert_eq!(server.panics(), 0);
    server.shutdown();
}
