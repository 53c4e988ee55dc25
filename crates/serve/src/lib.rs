//! # lip-serve
//!
//! A hermetic, std-only forecast server for compiled LiPFormer models: a
//! multi-threaded `TcpListener` front end speaking a minimal HTTP/1.1 +
//! JSON protocol (`lip-serde`, zero external crates) over the `lip-exec`
//! arena executor.
//!
//! The serving pipeline is:
//!
//! 1. **Session cache** ([`session`]) — checkpoints load once through
//!    `lipformer::checkpoint` into a cache keyed by a content hash covering
//!    the checkpoint's configuration, covariate spec and parameter bytes.
//!    Every configuration and covariate spec is validated with
//!    `LiPFormerConfig::check_for` *before* any model is constructed, so
//!    a malformed checkpoint or spec yields a typed error response, never a
//!    panic. Concurrent first loads coalesce:
//!    exactly one thread compiles, the rest block on the same slot.
//! 2. **Micro-batching** ([`batcher`]) — concurrent requests for the same
//!    session are coalesced into one batch, run as fixed 8-window shards
//!    (each one `CompiledModel::bind` + `BoundModel::run` forward in its
//!    own arena, the shards spread over the `lip-par` budget), then
//!    de-interleaved back to each requester in submission order. A batch
//!    flushes once it holds `max_batch` requests or no other request is in
//!    flight (read by the server but not
//!    yet queued, sent past the batcher, or failed), so a lone request never
//!    idles on a timer; `max_wait` only caps the wait for in-flight
//!    partners. Because the executor's kernels compute every output row with a
//!    batch-size-independent accumulation order, a coalesced forecast is
//!    bit-identical to serving the same request alone — the differential
//!    tests enforce this byte-for-byte.
//! 3. **Stats** ([`stats`]) — per-model request counts, batch-size
//!    histograms, p50/p99 service latency and p50/p99 batcher queue wait,
//!    exposed at `GET /stats`.
//!
//! Endpoints: `POST /forecast` (see [`proto`] for the schema),
//! `GET /stats`, `GET /healthz`. Every failure path — oversized or
//! truncated bodies, slow writers, garbage bytes, bad configs, shape
//! mismatches — maps to a typed [`error::ServeError`] with an HTTP status
//! and a JSON body; the fault-injection test battery asserts the server
//! never panics and never wedges a worker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod error;
pub mod http;
pub mod proto;
pub mod server;
pub mod session;
pub mod stats;

pub use batcher::{BatchPolicy, Batcher};
pub use error::ServeError;
pub use proto::{ForecastRequest, ForecastResponse};
pub use server::{Server, ServerConfig};

/// fnv1a-64 over arbitrary bytes: the workspace's standard content hash
/// (same constants as the golden-hash differential tests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
