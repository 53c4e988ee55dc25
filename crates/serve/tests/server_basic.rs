//! End-to-end smoke: a real server on an ephemeral port answers health,
//! forecast, stats and routing-error requests over actual sockets.

mod common;

use std::time::Duration;

use lip_data::DatasetName;
use lip_serve::batcher::BatchPolicy;
use lip_serve::session::SessionOptions;
use lip_serve::ServerConfig;

#[test]
fn healthz_and_routing() {
    let server = common::start(ServerConfig::default());
    let addr = server.addr();

    let ok = common::get(addr, "/healthz");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.json().field::<bool>("ok"), Ok(true));

    let missing = common::get(addr, "/nope");
    assert_eq!(missing.status, 404);
    assert_eq!(missing.error_code(), "not_found");

    let bad_method = {
        let mut s = common::connect(addr);
        common::write_request(&mut s, "DELETE", "/forecast", "", false);
        common::read_response(&mut s).expect("response")
    };
    assert_eq!(bad_method.status, 405);
    assert_eq!(bad_method.error_code(), "method_not_allowed");

    assert_eq!(server.panics(), 0);
    assert_eq!(server.alive_workers(), server.workers());
    server.shutdown();
}

#[test]
fn forecast_roundtrip_and_stats() {
    let fx = common::fixture(DatasetName::ETTh1, "basic");
    // a max_wait no sequential request may pay: nothing else is in flight
    let max_wait = Duration::from_secs(1);
    let server = common::start(ServerConfig {
        workers: 6,
        session: SessionOptions {
            batch: BatchPolicy { max_batch: 8, max_wait },
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let body = common::request_body(&fx, 0);
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let rows = common::forecast_rows(&resp.body);
    assert_eq!(rows.len(), fx.config.pred_len);
    assert!(rows.iter().all(|r| r.len() == fx.prep.channels));
    assert!(rows.iter().flatten().all(|v| v.is_finite()));

    // keep-alive: several requests on one connection, same session
    let mut stream = common::connect(addr);
    for w in 1..4 {
        let body = common::request_body(&fx, w);
        common::write_request(&mut stream, "POST", "/forecast", &body, true);
        let r = common::read_response(&mut stream).expect("keep-alive response");
        assert_eq!(r.status, 200, "window {w}: {}", r.body);
    }

    let stats = common::get(addr, "/stats");
    assert_eq!(stats.status, 200);
    let json = stats.json();
    assert!(json.field::<u64>("requests").expect("requests") >= 4);
    assert_eq!(json.field::<u64>("panics"), Ok(0));
    assert_eq!(json.field::<u64>("compiles"), Ok(1), "one model, one compile");
    assert_eq!(json.field::<u64>("workers"), Ok(6));
    assert_eq!(json.field::<u64>("alive_workers"), Ok(6));
    let models = json.get("models").expect("models").as_array().expect("array");
    assert_eq!(models.len(), 1);
    let m = &models[0];
    assert!(m.field::<u64>("forecasts").expect("forecasts") >= 4);
    assert!(m.field::<u64>("p99_us").expect("p99") >= m.field::<u64>("p50_us").expect("p50"));
    let queue_p50 = m.field::<u64>("queue_p50_us").expect("queue_p50_us");
    assert!(m.field::<u64>("queue_p99_us").expect("queue_p99_us") >= queue_p50);
    assert!(
        queue_p50 < max_wait.as_micros() as u64 / 10,
        "sequential requests queued {queue_p50} us at the median"
    );

    assert_eq!(server.panics(), 0);
    server.shutdown();
}

#[test]
fn checkpoint_root_jails_paths() {
    let fx = common::fixture(DatasetName::Weather, "jail");
    let root = fx.ckpt.parent().expect("fixture dir").to_path_buf();
    let server = common::start(ServerConfig {
        checkpoint_root: Some(root),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // relative name inside the root works
    let name = fx.ckpt.file_name().expect("name").to_string_lossy().to_string();
    let body = common::request_body(&fx, 0).replace(&fx.ckpt.to_string_lossy().to_string(), &name);
    let ok = common::post(addr, "/forecast", &body);
    assert_eq!(ok.status, 200, "body: {}", ok.body);

    // absolute and parent-escaping paths are rejected with a typed error
    for bad in [fx.ckpt.to_string_lossy().to_string(), format!("../{name}")] {
        let body = common::request_body(&fx, 0)
            .replace(&fx.ckpt.to_string_lossy().to_string(), &bad);
        let resp = common::post(addr, "/forecast", &body);
        assert_eq!(resp.status, 422, "path {bad}: {}", resp.body);
        assert_eq!(resp.error_code(), "bad_checkpoint");
    }

    assert_eq!(server.panics(), 0);
    server.shutdown();
}
