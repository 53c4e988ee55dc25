//! End-to-end smoke for the `lip-serve` *binary*: spawn the real
//! executable, parse the bound address off its stdout, and drive the
//! full request surface over the socket — CLI parsing, startup, the
//! checkpoint-root jail, a real forecast, stats, and typed errors.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lip_data::DatasetName;

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lip-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--max-wait-ms", "1"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lip-serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner).expect("read banner");
        // "lip-serve listening on 127.0.0.1:PORT (...)"
        let addr = banner
            .split_whitespace()
            .find_map(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"));
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn binary_serves_forecasts_end_to_end() {
    let fx = common::fixture(DatasetName::ETTh1, "binary-smoke");
    let root = fx.ckpt.parent().expect("fixture dir").to_string_lossy().to_string();
    let daemon = Daemon::spawn(&["--checkpoint-root", &root]);

    // liveness
    let health = common::get(daemon.addr, "/healthz");
    assert_eq!(health.status, 200, "{}", health.body);

    // a real forecast through the jail (checkpoint named relative to root)
    let name = fx.ckpt.file_name().expect("file name").to_string_lossy().to_string();
    let body = common::request_body(&fx, 0).replace(&fx.ckpt.to_string_lossy().to_string(), &name);
    let resp = common::post(daemon.addr, "/forecast", &body);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let rows = common::forecast_rows(&resp.body);
    assert_eq!(rows.len(), fx.config.pred_len);
    assert!(rows.iter().all(|r| r.len() == fx.prep.channels && r.iter().all(|v| v.is_finite())));

    // escaping the jail is a typed 422, and bad routes stay typed
    let escape = common::post(daemon.addr, "/forecast", &body.replace(&name, "../escape.ckpt"));
    assert_eq!(escape.status, 422, "{}", escape.body);
    assert_eq!(escape.error_code(), "bad_checkpoint");
    assert_eq!(common::get(daemon.addr, "/nope").status, 404);

    // stats reflect the traffic
    let stats = common::get(daemon.addr, "/stats");
    assert_eq!(stats.status, 200, "{}", stats.body);
    assert!(stats.body.contains("\"requests\""), "{}", stats.body);
    assert!(stats.body.contains("\"compiles\": 1"), "{}", stats.body);
}

#[test]
fn binary_rejects_bad_flags() {
    let status = Command::new(env!("CARGO_BIN_EXE_lip-serve"))
        .arg("--no-such-flag")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run lip-serve");
    assert_eq!(status.code(), Some(2), "unknown flags must exit 2 (usage)");

    // an unwritable stderr must not turn the usage error into a panic (101)
    let full = match std::fs::OpenOptions::new().write(true).open("/dev/full") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("skipping the /dev/full case: {e}");
            return;
        }
    };
    let status = Command::new(env!("CARGO_BIN_EXE_lip-serve"))
        .arg("--no-such-flag")
        .stdout(Stdio::null())
        .stderr(full)
        .status()
        .expect("run lip-serve");
    assert_eq!(status.code(), Some(2), "usage error with stderr on /dev/full");
}

#[test]
fn binary_serves_with_stdout_on_dev_full() {
    let full = match std::fs::OpenOptions::new().write(true).open("/dev/full") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("skipping the /dev/full case: {e}");
            return;
        }
    };
    // the banner naming the port goes nowhere, so pick the port first
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port");
    let child = Command::new(env!("CARGO_BIN_EXE_lip-serve"))
        .args(["--addr", &addr.to_string(), "--workers", "2"])
        .stdout(full)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lip-serve");
    let mut daemon = Daemon { child, addr };
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(addr).is_err() {
        if let Some(status) = daemon.child.try_wait().expect("poll lip-serve") {
            panic!("lip-serve exited with {status} when its stdout was unwritable");
        }
        assert!(Instant::now() < deadline, "lip-serve never listened on {addr}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let health = common::get(daemon.addr, "/healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    let exited = daemon.child.try_wait().expect("poll lip-serve");
    assert!(exited.is_none(), "lip-serve exited with {exited:?} after serving");
}
