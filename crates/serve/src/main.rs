//! `lip-serve` CLI: bind a forecast server and run until killed.
//!
//! ```text
//! lip-serve [--addr 127.0.0.1:7878] [--workers 8] [--max-batch 16]
//!           [--max-wait-ms 2] [--checkpoint-root DIR]
//! ```
//!
//! A batch runs once it holds `--max-batch` requests or no other request
//! is in flight; `--max-wait-ms` caps how long it waits for in-flight
//! requests.

use std::io::Write;
use std::time::Duration;

use lip_serve::batcher::BatchPolicy;
use lip_serve::{Server, ServerConfig};

/// Print the usage text to stderr and exit 2. A failed write (stderr
/// closed or full) is ignored: the exit code still reports it.
fn usage() -> ! {
    let _ = writeln!(
        std::io::stderr(),
        "usage: lip-serve [--addr HOST:PORT] [--workers N] [--max-batch N] \
         [--max-wait-ms N] [--checkpoint-root DIR]\n\
         a batch runs once it holds --max-batch requests or no other request is \
         in flight;\n--max-wait-ms caps how long it waits for in-flight requests"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| {
            let _ = writeln!(std::io::stderr(), "missing value for {flag}");
            usage()
        });
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--max-batch" => match value("--max-batch").parse() {
                Ok(n) if n > 0 => config.session.batch.max_batch = n,
                _ => usage(),
            },
            "--max-wait-ms" => match value("--max-wait-ms").parse::<u64>() {
                Ok(ms) => config.session.batch.max_wait = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--checkpoint-root" => {
                config.checkpoint_root = Some(value("--checkpoint-root").into());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let BatchPolicy { max_batch, max_wait } = config.session.batch;
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "lip-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // a failed banner write (stdout closed or full) must not stop the
    // server: it is already bound and serving
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "lip-serve listening on {} ({} workers, max_batch {max_batch}, max_wait {:?})",
        server.addr(),
        server.workers(),
        max_wait,
    )
    .and_then(|()| out.flush());
    drop(out);
    // serve forever: the acceptor and workers do all the work
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
