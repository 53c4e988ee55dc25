//! Shared support for the lip-serve integration suites: checkpoint
//! fixtures built from the synthetic benchmark datasets, a tiny blocking
//! HTTP client, and JSON helpers.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use lip_data::pipeline::{prepare, PreparedData};
use lip_data::{generate, DatasetName, GeneratorConfig};
use lip_serve::proto::{ForecastRequest, ForecastWindow};
use lip_serve::{Server, ServerConfig};
use lipformer::{checkpoint, Forecaster, LiPFormer, LiPFormerConfig};

/// A saved checkpoint plus the windows that can legally be served from it.
pub struct Fixture {
    /// Absolute path of the saved checkpoint.
    pub ckpt: PathBuf,
    /// The model configuration the checkpoint carries.
    pub config: LiPFormerConfig,
    /// Prepared dataset (windows, spec, scalers).
    pub prep: PreparedData,
}

/// Build the standard small-model fixture for `name`: generate the
/// synthetic dataset, fit the (48, 24) pipeline, construct the small
/// LiPFormer at seed 7 and save it under a per-test temp directory.
pub fn fixture(name: DatasetName, tag: &str) -> Fixture {
    let ds = generate(name, GeneratorConfig::test(3));
    let prep = prepare(&ds, 48, 24);
    let config = LiPFormerConfig::small(48, 24, prep.channels);
    let model = LiPFormer::new(config.clone(), &prep.spec, 7);

    let dir = std::env::temp_dir()
        .join("lip_serve_tests")
        .join(format!("{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let ckpt = dir.join(format!("{name:?}.ckpt"));
    checkpoint::save(&ckpt, &config, model.store()).expect("save checkpoint");
    Fixture { ckpt, config, prep }
}

/// The `POST /forecast` body for window `i` of the fixture's train split.
pub fn request_body(fx: &Fixture, window: usize) -> String {
    window_body(fx, self::window(fx, window))
}

/// Window `w` of the fixture's train split as a request window.
pub fn window(fx: &Fixture, w: usize) -> ForecastWindow {
    let batch = fx.prep.train.batch(&[w]);
    let rows = |t: &lip_tensor::Tensor, width: usize| -> Vec<Vec<f32>> {
        t.contiguous().data().chunks(width).map(<[f32]>::to_vec).collect()
    };
    ForecastWindow {
        x: rows(&batch.x, fx.prep.channels),
        time_feats: rows(&batch.time_feats, fx.prep.spec.time_features),
        cov_numerical: batch
            .cov_numerical
            .as_ref()
            .map(|t| rows(t, fx.prep.spec.numerical)),
        cov_categorical: batch.cov_categorical.clone(),
    }
}

/// A single-window body carrying `window` against the fixture's checkpoint.
pub fn window_body(fx: &Fixture, window: ForecastWindow) -> String {
    lip_serde::to_string(&ForecastRequest {
        checkpoint: fx.ckpt.to_string_lossy().into_owned(),
        spec: fx.prep.spec.clone(),
        x: window.x,
        time_feats: window.time_feats,
        cov_numerical: window.cov_numerical,
        cov_categorical: window.cov_categorical,
        windows: None,
    })
}

/// A `windows`-form body carrying `windows` against the fixture's
/// checkpoint.
pub fn windows_body(fx: &Fixture, windows: Vec<ForecastWindow>) -> String {
    lip_serde::to_string(&ForecastRequest {
        checkpoint: fx.ckpt.to_string_lossy().into_owned(),
        spec: fx.prep.spec.clone(),
        x: vec![],
        time_feats: vec![],
        cov_numerical: None,
        cov_categorical: None,
        windows: Some(windows),
    })
}

/// Start a server with `config` (always on an ephemeral loopback port).
pub fn start(mut config: ServerConfig) -> Server {
    config.addr = "127.0.0.1:0".into();
    Server::start(config).expect("bind ephemeral server")
}

/// A parsed HTTP response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    /// Decode the body as JSON (all lip-serve responses are JSON).
    pub fn json(&self) -> lip_serde::Json {
        lip_serde::from_str::<lip_serde::Json>(&self.body)
            .unwrap_or_else(|e| panic!("non-JSON body {:?}: {e}", self.body))
    }

    /// The `error` code string of a failure body.
    pub fn error_code(&self) -> String {
        self.json()
            .field::<String>("error")
            .unwrap_or_else(|_| panic!("no error code in {:?}", self.body))
    }
}

/// One-shot `POST` with `Connection: close`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    let mut stream = connect(addr);
    write_request(&mut stream, "POST", path, body, false);
    read_response(&mut stream).expect("read response")
}

/// One-shot `GET` with `Connection: close`.
pub fn get(addr: SocketAddr, path: &str) -> Response {
    let mut stream = connect(addr);
    write_request(&mut stream, "GET", path, "", false);
    read_response(&mut stream).expect("read response")
}

/// Open a client connection with generous timeouts.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Write one well-formed request (keep-alive optional).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    // single write: two small packets would hit Nagle/delayed-ACK stalls
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    stream.write_all(&req).expect("write request");
    stream.flush().expect("flush");
}

/// Read one full HTTP response off `stream`.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(i) = find_blank(&buf) {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("connection closed mid-response after {} bytes", buf.len()),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let body_start = header_end + blank_len(&buf, header_end);
    let mut body = buf[body_start..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Response { status, body: String::from_utf8_lossy(&body).to_string() })
}

fn find_blank(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn blank_len(_buf: &[u8], _at: usize) -> usize {
    4
}

/// fnv1a-64 over the exact bytes of a forecast row (bit patterns, not
/// decimal renderings) — the golden-hash currency of the differential
/// suites.
pub fn row_hash(row: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(row.len() * 4);
    for v in row {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    lip_serve::fnv1a(&bytes)
}

/// Parse the `forecast` field of a 200 body into rows (through the same
/// `f32` decode path the crate round-trips bit-exactly).
pub fn forecast_rows(body: &str) -> Vec<Vec<f32>> {
    let json = lip_serde::from_str::<lip_serde::Json>(body).expect("forecast body is JSON");
    json.field::<Vec<Vec<f32>>>("forecast").expect("forecast field")
}
