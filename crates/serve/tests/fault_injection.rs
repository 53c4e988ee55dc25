//! The fault-injection battery: every hostile client behaviour the server
//! claims to survive, driven over real sockets against a live server.
//!
//! After **every** scenario the same three invariants are re-asserted:
//! zero caught panics, every worker thread still alive, and a subsequent
//! well-formed request answered 200 — i.e. the fault neither crashed nor
//! wedged anything.

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::time::Duration;

use std::sync::{Arc, Barrier};

use lip_data::{CovariateSpec, DatasetName};
use lip_serve::http::Limits;
use lip_serve::proto::{ForecastRequest, ForecastWindow};
use lip_serve::{Server, ServerConfig};
use lip_tensor::Tensor;
use lipformer::{checkpoint, Forecaster, LiPFormer, LiPFormerConfig};

/// Short timeouts so the slow-writer scenarios finish in milliseconds.
fn fast_limits() -> Limits {
    Limits {
        max_header: 2 * 1024,
        max_body: 64 * 1024,
        read_timeout: Duration::from_millis(150),
        request_deadline: Duration::from_millis(600),
    }
}

struct Battery {
    server: Server,
    fx: common::Fixture,
    good_body: String,
}

impl Battery {
    fn new(tag: &str) -> Battery {
        Battery::on(DatasetName::ETTh1, tag)
    }

    /// A battery serving a checkpoint trained on `name`.
    fn on(name: DatasetName, tag: &str) -> Battery {
        let fx = common::fixture(name, tag);
        let server = common::start(ServerConfig {
            workers: 4,
            limits: fast_limits(),
            ..ServerConfig::default()
        });
        let good_body = common::request_body(&fx, 0);
        Battery { server, fx, good_body }
    }

    /// The post-scenario health check: no panics, all workers alive, and
    /// the server still answers a good request.
    fn assert_healthy(&self, scenario: &str) {
        assert_eq!(self.server.panics(), 0, "{scenario}: worker panicked");
        assert_eq!(
            self.server.alive_workers(),
            self.server.workers(),
            "{scenario}: a worker thread died"
        );
        let resp = common::post(self.server.addr(), "/forecast", &self.good_body);
        assert_eq!(resp.status, 200, "{scenario}: good request failed: {}", resp.body);
    }
}

#[test]
fn disconnects_and_truncation() {
    let b = Battery::new("faults-disconnect");
    let addr = b.server.addr();

    // disconnect mid-headers: write half a request line, vanish
    let mut s = common::connect(addr);
    s.write_all(b"POST /fore").expect("partial write");
    s.shutdown(Shutdown::Both).expect("shutdown");
    drop(s);
    b.assert_healthy("mid-header disconnect");

    // disconnect mid-body: full headers, a quarter of the declared body
    let mut s = common::connect(addr);
    let head = format!(
        "POST /forecast HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        b.good_body.len()
    );
    s.write_all(head.as_bytes()).expect("head");
    s.write_all(&b.good_body.as_bytes()[..b.good_body.len() / 4]).expect("partial body");
    s.shutdown(Shutdown::Write).expect("shutdown write");
    // server answers 400 (closed mid-body) or just closes — both are clean
    let _ = common::read_response(&mut s);
    drop(s);
    b.assert_healthy("mid-body disconnect");

    // truncated body with the connection held open: the read times out
    let mut s = common::connect(addr);
    s.write_all(head.as_bytes()).expect("head");
    s.write_all(b"{\"checkpoint").expect("stub body");
    let resp = common::read_response(&mut s).expect("timeout response");
    assert_eq!(resp.status, 408, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "timeout");
    b.assert_healthy("truncated body");

    b.server.shutdown();
}

#[test]
fn oversized_payloads() {
    let b = Battery::new("faults-oversize");
    let addr = b.server.addr();
    let limits = fast_limits();

    // declared body over the cap: refused from the Content-Length alone,
    // before a single body byte is read
    let mut s = common::connect(addr);
    let head = format!(
        "POST /forecast HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        limits.max_body + 1
    );
    s.write_all(head.as_bytes()).expect("head");
    let resp = common::read_response(&mut s).expect("413 response");
    assert_eq!(resp.status, 413, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "payload_too_large");
    b.assert_healthy("oversized declared body");

    // header block over the cap
    let mut s = common::connect(addr);
    s.write_all(b"POST /forecast HTTP/1.1\r\n").expect("line");
    let filler = format!("X-Pad: {}\r\n", "a".repeat(900));
    for _ in 0..4 {
        if s.write_all(filler.as_bytes()).is_err() {
            break; // server may already have refused and closed
        }
    }
    if let Ok(resp) = common::read_response(&mut s) {
        assert_eq!(resp.status, 413, "body: {}", resp.body);
    }
    b.assert_healthy("oversized headers");

    b.server.shutdown();
}

/// A `GET /healthz` whose header block, blank line included, is `len`
/// bytes, sent in one write.
fn padded_healthz(len: usize) -> Vec<u8> {
    let line = "GET /healthz HTTP/1.1\r\n";
    let pad = len - line.len() - "X-Pad: \r\n\r\n".len();
    format!("{line}X-Pad: {}\r\n\r\n", "a".repeat(pad)).into_bytes()
}

#[test]
fn header_block_past_the_cap_in_one_read_is_refused() {
    let b = Battery::new("faults-header-cap");
    let addr = b.server.addr();
    let cap = fast_limits().max_header;

    // the whole block arrives at once, so the cap is crossed inside a read
    let mut s = common::connect(addr);
    s.write_all(&padded_healthz(cap + 702)).expect("headers");
    let resp = common::read_response(&mut s).expect("413 response");
    assert_eq!(resp.status, 413, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "payload_too_large");
    b.assert_healthy("header block past the cap");

    // a block that ends exactly at the cap is still served
    let mut s = common::connect(addr);
    s.write_all(&padded_healthz(cap)).expect("headers");
    let resp = common::read_response(&mut s).expect("response");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    b.assert_healthy("header block at the cap");

    b.server.shutdown();
}

#[test]
fn slow_writers_hit_timeouts() {
    let b = Battery::new("faults-slow");
    let addr = b.server.addr();

    // slow loris on the headers: one byte, then silence past read_timeout
    let mut s = common::connect(addr);
    s.write_all(b"P").expect("one byte");
    let resp = common::read_response(&mut s).expect("408 response");
    assert_eq!(resp.status, 408, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "timeout");
    b.assert_healthy("header slow-loris");

    // byte-at-a-time writer that keeps resetting the per-read timeout but
    // trips the whole-request deadline
    let mut s = common::connect(addr);
    let head = b"POST /forecast HTTP/1.1\r\nContent-Length: 4\r\n\r\n";
    let mut clean = true;
    for &byte in head.iter() {
        if s.write_all(&[byte]).is_err() {
            clean = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    if clean {
        if let Ok(resp) = common::read_response(&mut s) {
            assert_eq!(resp.status, 408, "body: {}", resp.body);
        }
    }
    b.assert_healthy("drip-feed deadline");

    b.server.shutdown();
}

#[test]
fn garbage_and_malformed_requests() {
    let b = Battery::new("faults-garbage");
    let addr = b.server.addr();

    // garbage bytes where a request line should be
    let mut s = common::connect(addr);
    s.write_all(b"\x00\xffnot http at all\r\n\r\n").expect("garbage");
    let resp = common::read_response(&mut s).expect("400 response");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_request");
    b.assert_healthy("binary garbage request line");

    // well-framed request whose body is garbage bytes before valid JSON:
    // the parser reports a position instead of panicking
    let body = format!("\x01\x02garbage{}", b.good_body);
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_request");
    assert!(
        resp.json().get("line").is_some(),
        "JSON errors carry a position: {}",
        resp.body
    );
    b.assert_healthy("garbage before JSON");

    // chunked encoding is a typed refusal, not a desync
    let mut s = common::connect(addr);
    s.write_all(b"POST /forecast HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .expect("chunked");
    let resp = common::read_response(&mut s).expect("400 response");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    b.assert_healthy("transfer-encoding refused");

    // bytes after the declared Content-Length break framing → typed 400
    let mut s = common::connect(addr);
    let head = "POST /forecast HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}EXTRA";
    s.write_all(head.as_bytes()).expect("overshoot");
    let resp = common::read_response(&mut s).expect("400 response");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    b.assert_healthy("bytes past Content-Length");

    // differing Content-Length headers leave the body length undefined
    // (RFC 7230 §3.3.3): a typed 400, and the server closes the connection
    let mut s = common::connect(addr);
    let head = "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello";
    s.write_all(head.as_bytes()).expect("conflicting lengths");
    let resp = common::read_response(&mut s).expect("400 response");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_request");
    let after = s.read(&mut [0u8; 64]);
    assert!(
        matches!(&after, Ok(0))
            || matches!(&after, Err(e) if e.kind() == ErrorKind::ConnectionReset),
        "connection must close after conflicting Content-Length, got {after:?}"
    );
    b.assert_healthy("conflicting Content-Length");

    // repeated equal Content-Length headers stay accepted
    let mut s = common::connect(addr);
    let n = b.good_body.len();
    let head =
        format!("POST /forecast HTTP/1.1\r\nContent-Length: {n}\r\nContent-Length: {n}\r\n\r\n");
    s.write_all(head.as_bytes()).expect("head");
    s.write_all(b.good_body.as_bytes()).expect("body");
    let resp = common::read_response(&mut s).expect("200 response");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    b.assert_healthy("repeated equal Content-Length");

    // structurally valid JSON of the wrong shape: typed 400 with context
    let resp = common::post(addr, "/forecast", r#"{"checkpoint": 42}"#);
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    b.assert_healthy("wrong-typed JSON");

    // x rows of the wrong width: typed 422 from the batch contract
    let wrong = b.good_body.replacen("[", "[[0.0],", 1);
    let resp = common::post(addr, "/forecast", &wrong);
    assert!(
        resp.status == 400 || resp.status == 422,
        "ragged x must be a typed error: {} {}",
        resp.status,
        resp.body
    );
    b.assert_healthy("ragged x rows");

    // one history row short: the batch contract reports it as a typed 422
    let mut json = lip_serde::from_str::<lip_serde::Json>(&b.good_body).expect("good body");
    if let lip_serde::Json::Object(pairs) = &mut json {
        for (k, v) in pairs.iter_mut() {
            if k == "x" {
                if let lip_serde::Json::Array(rows) = v {
                    rows.pop();
                }
            }
        }
    }
    let resp = common::post(addr, "/forecast", &json.dump());
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_batch");
    b.assert_healthy("short x");

    b.server.shutdown();
}

/// `rows` regrouped into rows of `width`: the same values in the same
/// order, so only the row structure differs.
fn regroup(rows: &[Vec<f32>], width: usize) -> Vec<Vec<f32>> {
    rows.concat().chunks(width).map(<[f32]>::to_vec).collect()
}

#[test]
fn window_shapes_are_checked_by_rows_not_totals() {
    // a covariate checkpoint, so every part of a window has a contract
    let b = Battery::on(DatasetName::ElectriPrice, "faults-rows");
    let addr = b.server.addr();
    let w = common::window(&b.fx, 0);
    let spec = &b.fx.prep.spec;
    assert!(spec.numerical > 0 && !spec.cardinalities.is_empty(), "{spec:?}");
    let (c, tf, n) = (b.fx.prep.channels, spec.time_features, spec.numerical);

    // the first three keep the value count the contract wants but regroup
    // it into half as many rows, twice as wide; the rest break the
    // covariate channels
    let mut codes = w.clone();
    codes.cov_categorical.as_mut().expect("categorical codes")[0][3] = spec.cardinalities[0];
    let mut short = w.clone();
    short.cov_categorical.as_mut().expect("categorical codes")[1].pop();
    for (scenario, window, want) in [
        ("x regrouped", ForecastWindow { x: regroup(&w.x, 2 * c), ..w.clone() }, "x has shape"),
        (
            "time_feats regrouped",
            ForecastWindow { time_feats: regroup(&w.time_feats, 2 * tf), ..w.clone() },
            "time_feats has shape",
        ),
        (
            "cov_numerical regrouped",
            ForecastWindow {
                cov_numerical: w.cov_numerical.as_deref().map(|rows| regroup(rows, 2 * n)),
                ..w.clone()
            },
            "cov_numerical has shape",
        ),
        ("cov_numerical missing", ForecastWindow { cov_numerical: None, ..w.clone() }, "missing"),
        ("categorical code out of range", codes, "cardinality"),
        ("categorical channel short", short, "codes, expected"),
        (
            "categorical channel missing",
            ForecastWindow {
                cov_categorical: w.cov_categorical.as_deref().map(|ch| ch[..1].to_vec()),
                ..w.clone()
            },
            "categorical covariate channels",
        ),
    ] {
        let resp = common::post(addr, "/forecast", &common::window_body(&b.fx, window));
        assert_eq!(resp.status, 422, "{scenario}: {}", resp.body);
        assert_eq!(resp.error_code(), "bad_batch", "{scenario}: {}", resp.body);
        assert!(resp.body.contains(want), "{scenario}: {}", resp.body);
        b.assert_healthy(scenario);
    }
    b.server.shutdown();
}

/// `json` with the value at `path` (object keys and array indices, from
/// the root) replaced by the number `value`.
fn set_number(json: &mut lip_serde::Json, path: &[&str], value: f64) {
    use lip_serde::Json;
    let mut at = json;
    for step in path {
        at = match at {
            Json::Object(pairs) => {
                &mut pairs.iter_mut().find(|(k, _)| k == step).expect("key on the path").1
            }
            Json::Array(items) => &mut items[step.parse::<usize>().expect("index on the path")],
            other => panic!("path runs past the leaf {other:?}"),
        };
    }
    *at = Json::Num(lip_serde::Num::F(value));
}

#[test]
fn non_finite_inputs_are_typed_with_their_path() {
    let b = Battery::new("faults-non-finite-input");
    let addr = b.server.addr();
    let multi = common::windows_body(&b.fx, (0..3).map(|w| common::window(&b.fx, w)).collect());

    // a value past the f32 range: a typed 400 naming where it sits, not a
    // 200 of nulls
    for (body, path, value, want) in [
        (&b.good_body, &["x", "3", "0"][..], 1e39, "x[3][0]"),
        (&b.good_body, &["time_feats", "2", "1"][..], -1e300, "time_feats[2][1]"),
        (&multi, &["windows", "1", "x", "3", "0"][..], 1e39, "windows[1].x[3][0]"),
    ] {
        let mut json = lip_serde::from_str::<lip_serde::Json>(body).expect("good body");
        set_number(&mut json, path, value);
        let resp = common::post(addr, "/forecast", &json.dump());
        assert_eq!(resp.status, 400, "{want}: {}", resp.body);
        assert_eq!(resp.error_code(), "non_finite_input", "{want}: {}", resp.body);
        assert_eq!(resp.json().field::<String>("path").as_deref(), Ok(want), "{}", resp.body);
        assert!(resp.body.contains("not a finite f32"), "{want}: {}", resp.body);
        b.assert_healthy(&format!("non-finite input at {want}"));
    }

    b.server.shutdown();
}

#[test]
fn hostile_checkpoints() {
    let b = Battery::new("faults-checkpoints");
    let addr = b.server.addr();
    let dir = b.fx.ckpt.parent().expect("fixture dir");

    // missing file
    let body = b
        .good_body
        .replace(&b.fx.ckpt.to_string_lossy().to_string(), "/nonexistent/nope.ckpt");
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_checkpoint");
    b.assert_healthy("missing checkpoint");

    // truncated file
    let mut raw = std::fs::read(&b.fx.ckpt).expect("read fixture checkpoint");
    raw.truncate(raw.len() / 3);
    let trunc = dir.join("truncated.ckpt");
    std::fs::write(&trunc, raw).expect("write truncated");
    let body = b
        .good_body
        .replace(&b.fx.ckpt.to_string_lossy().to_string(), &trunc.to_string_lossy());
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_checkpoint");
    b.assert_healthy("truncated checkpoint");

    // a structurally valid bundle whose header asks for an impossible
    // architecture: `patch_len` does not divide `seq_len`. The config
    // validator must reject it with a typed error BEFORE the model
    // constructor (which would assert) ever runs.
    let mut bad_config = LiPFormerConfig::small(48, 24, b.fx.prep.channels);
    bad_config.patch_len = 7; // 48 % 7 != 0
    let evil = header_only_checkpoint(&b.fx, "bad_config.ckpt", &bad_config);
    let body = b
        .good_body
        .replace(&b.fx.ckpt.to_string_lossy().to_string(), &evil.to_string_lossy());
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_config", "body: {}", resp.body);
    b.assert_healthy("hostile config checkpoint");

    // a well-formed bundle with one NaN weight: refused at load, by name,
    // instead of compiling into a model that forecasts nothing but NaN
    let (header, mut tensors) = checkpoint::load(&b.fx.ckpt).expect("load fixture checkpoint");
    let mut data = tensors[0].contiguous().data().to_vec();
    data[0] = f32::NAN;
    tensors[0] = Tensor::from_vec(data, tensors[0].shape());
    let mut model = LiPFormer::new(header.config.clone(), &b.fx.prep.spec, 0);
    model.store_mut().restore(&tensors);
    let nan = dir.join("nan_weight.ckpt");
    checkpoint::save(&nan, &header.config, model.store()).expect("write NaN checkpoint");
    let body = b
        .good_body
        .replace(&b.fx.ckpt.to_string_lossy().to_string(), &nan.to_string_lossy());
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_checkpoint", "body: {}", resp.body);
    assert!(resp.body.contains(&header.param_names[0]), "body: {}", resp.body);
    b.assert_healthy("NaN weight in checkpoint");

    // a header with fewer freeze flags than parameters: refused at decode,
    // not a panic in the restore that reads one flag per parameter
    let raw = std::fs::read(&b.fx.ckpt).expect("read fixture checkpoint");
    let header_len = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes")) as usize;
    let (mut header, _) = checkpoint::load_bytes(&raw).expect("decode fixture checkpoint");
    header.frozen.clear();
    let header_json = lip_serde::to_vec(&header);
    let mut bundle = raw[..4].to_vec();
    bundle.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
    bundle.extend_from_slice(&header_json);
    bundle.extend_from_slice(&raw[8 + header_len..]);
    let short = dir.join("short_frozen.ckpt");
    std::fs::write(&short, bundle).expect("write short-frozen checkpoint");
    let body = b
        .good_body
        .replace(&b.fx.ckpt.to_string_lossy().to_string(), &short.to_string_lossy());
    let resp = common::post(addr, "/forecast", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_checkpoint", "body: {}", resp.body);
    b.assert_healthy("short freeze-flag list in checkpoint");

    b.server.shutdown();
}

/// A structurally valid bundle holding only a header with `config` and no
/// parameters, written next to the fixture's checkpoint as `name`.
fn header_only_checkpoint(
    fx: &common::Fixture,
    name: &str,
    config: &LiPFormerConfig,
) -> std::path::PathBuf {
    let header = lip_serde::Json::Object(vec![
        ("version".into(), lip_serde::Json::Num(lip_serde::Num::U(1))),
        ("config".into(), lip_serde::ToJson::to_json(config)),
        ("param_names".into(), lip_serde::Json::Array(vec![])),
        ("frozen".into(), lip_serde::Json::Array(vec![])),
    ]);
    let header_bytes = header.dump().into_bytes();
    let mut bundle = Vec::new();
    bundle.extend_from_slice(&0x4C49_5043u32.to_le_bytes()); // "LIPC"
    bundle.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    bundle.extend_from_slice(&header_bytes);
    let path = fx.ckpt.parent().expect("fixture dir").join(name);
    std::fs::write(&path, bundle).expect("write hostile checkpoint");
    path
}

/// The good request for window 0, sent against `ckpt` under `spec`.
fn body_with_spec(fx: &common::Fixture, ckpt: &std::path::Path, spec: CovariateSpec) -> String {
    let w = common::window(fx, 0);
    lip_serde::to_string(&ForecastRequest {
        checkpoint: ckpt.to_string_lossy().into_owned(),
        spec,
        x: w.x,
        time_feats: w.time_feats,
        cov_numerical: w.cov_numerical,
        cov_categorical: w.cov_categorical,
        windows: None,
    })
}

#[test]
fn hostile_specs_are_config_errors() {
    let b = Battery::new("faults-specs");
    let addr = b.server.addr();
    let spec = |numerical, cardinalities: Vec<usize>, time_features| CovariateSpec {
        numerical,
        cardinalities,
        time_features,
    };

    // the request's spec shapes the model: no covariate channel at all, a
    // category with no values, or categories without the numerical input
    // the encoder reads would trip the model's asserts
    for (scenario, hostile) in [
        ("spec without covariate channels", spec(0, vec![], 0)),
        ("spec with a zero cardinality", spec(2, vec![0], 4)),
        ("spec with categories only", spec(0, vec![5], 4)),
    ] {
        let resp = common::post(addr, "/forecast", &body_with_spec(&b.fx, &b.fx.ckpt, hostile));
        assert_eq!(resp.status, 422, "{scenario}: {}", resp.body);
        assert_eq!(resp.error_code(), "bad_config", "{scenario}: {}", resp.body);
        b.assert_healthy(scenario);
    }

    // a header with zero-width category embeddings, served under a spec
    // that has categorical covariates
    let mut no_embed = b.fx.config.clone();
    no_embed.categorical_embed = 0;
    let ckpt = header_only_checkpoint(&b.fx, "no_embed.ckpt", &no_embed);
    let resp = common::post(addr, "/forecast", &body_with_spec(&b.fx, &ckpt, spec(2, vec![5], 4)));
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "bad_config", "body: {}", resp.body);
    b.assert_healthy("categorical_embed 0 with categorical covariates");

    b.server.shutdown();
}

/// Window `w` with `x` at ±3e38 on alternate time steps: every value is
/// finite in `f32`, so the request decodes, but the forward overflows.
fn overflowing_window(fx: &common::Fixture, w: usize) -> ForecastWindow {
    let mut window = common::window(fx, w);
    for (t, row) in window.x.iter_mut().enumerate() {
        row.fill(if t % 2 == 0 { 3e38 } else { -3e38 });
    }
    window
}

#[test]
fn overflowing_forward_is_a_typed_error_not_nulls() {
    let b = Battery::new("faults-overflow");
    let addr = b.server.addr();
    let bad_body = common::window_body(&b.fx, overflowing_window(&b.fx, 0));

    let resp = common::post(addr, "/forecast", &bad_body);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "non_finite_output");
    assert!(!resp.body.contains("windows["), "body: {}", resp.body);
    let stats = common::get(addr, "/stats").json();
    assert_eq!(stats.field::<u64>("errors"), Ok(1), "counted as an error");
    let models = stats.get("models").expect("models").as_array().expect("array");
    assert_eq!(models[0].field::<u64>("errors"), Ok(1), "counted as a model error");
    b.assert_healthy("overflowing forward");

    // a good request racing the bad one keeps its own finite rows, whether
    // or not the two share a coalesced forward
    let barrier = Arc::new(Barrier::new(2));
    let clients: Vec<_> = [bad_body, b.good_body.clone()]
        .into_iter()
        .map(|body| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                common::post(addr, "/forecast", &body)
            })
        })
        .collect();
    let resps: Vec<_> = clients.into_iter().map(|c| c.join().expect("client")).collect();
    assert_eq!(resps[0].status, 422, "body: {}", resps[0].body);
    assert_eq!(resps[1].status, 200, "body: {}", resps[1].body);
    assert!(common::forecast_rows(&resps[1].body).iter().flatten().all(|v| v.is_finite()));
    b.assert_healthy("overflowing forward beside a good request");

    // in the multi-window form the error names the offending window
    let windows = vec![
        common::window(&b.fx, 0),
        overflowing_window(&b.fx, 1),
        common::window(&b.fx, 2),
    ];
    let resp = common::post(addr, "/forecast", &common::windows_body(&b.fx, windows));
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(resp.error_code(), "non_finite_output");
    assert!(resp.body.contains("windows[1]"), "body: {}", resp.body);
    b.assert_healthy("overflowing window in a multi-window request");

    b.server.shutdown();
}

#[test]
fn fault_storm_leaves_no_casualties() {
    // every scenario class in quick succession from many client threads,
    // then the standard health check — the server's worker pool must come
    // out intact with zero panics
    let b = Battery::new("faults-storm");
    let addr = b.server.addr();

    let handles: Vec<_> = (0..12)
        .map(|i| {
            let good = b.good_body.clone();
            std::thread::spawn(move || {
                let mut s = common::connect(addr);
                match i % 4 {
                    0 => {
                        let _ = s.write_all(b"GET /st");
                    }
                    1 => {
                        let _ = s.write_all(b"\xde\xad\xbe\xef\r\n\r\n");
                        let _ = common::read_response(&mut s);
                    }
                    2 => {
                        common::write_request(&mut s, "POST", "/forecast", "{broken", false);
                        let _ = common::read_response(&mut s);
                    }
                    _ => {
                        common::write_request(&mut s, "POST", "/forecast", &good, false);
                        let r = common::read_response(&mut s).expect("good response");
                        assert_eq!(r.status, 200, "storm good request: {}", r.body);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm client");
    }
    b.assert_healthy("fault storm");
    b.server.shutdown();
}
