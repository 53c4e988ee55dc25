#!/usr/bin/env sh
# Hermetic verification gate: the whole workspace must build and test
# offline (no registry, no network) — every dependency is an in-tree
# lip-* path crate — and must behave bit-identically at any thread count.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release --offline

echo "==> perfbench build (the repo benchmark compiles against the crates' public APIs,"
echo "    so an API change that breaks it fails here, not in the benchmark run)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc --no-deps (rustdoc warnings are errors; missing docs fail lip-par/lip-exec/lip-analyze/lip-tensor)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline

echo "==> cargo clippy --all-targets (lints are errors, workspace-wide)"
cargo clippy -q --all-targets --offline -- -D warnings

echo "==> cargo test -q --offline (host-default thread budget)"
cargo test -q --offline

echo "==> cargo test -q --offline under LIP_THREADS=1 (serial budget)"
LIP_THREADS=1 cargo test -q --offline

echo "==> lip-analyze --lint --check-model (static graph gate)"
cargo run -q --release --offline -p lip-analyze -- --lint --check-model

echo "==> lip-analyze --verify-plan (static schedule verifier: def-before-use,"
echo "    liveness, symbolic arena bounds, fusion legality, partition proof,"
echo "    kernel-source audit, and every registered stage composition swept"
echo "    through plan/runtime parity + fused/unfused schedule verification"
echo "    — exit 1 on any finding)"
cargo run -q --release --offline -p lip-analyze -- --verify-plan

echo "==> par_baseline bench smoke (serial vs parallel; fails on divergence)"
cargo run -q --release --offline -p lip-bench --bin par_baseline BENCH_pr4.json

echo "==> mem_baseline bench smoke (layout-copy accounting; fails on any copy)"
# the bin itself exits non-zero naming the offending op kinds if a pure
# layout op (permute/slice/broadcast/unfold) copied, or if a forward does
# not beat the pre-refactor copy baseline
cargo run -q --release --offline -p lip-bench --bin mem_baseline BENCH_pr5.json

echo "==> verify: BENCH_pr5.json records zero layout-copy allocations"
if grep -E '"(permute|slice|broadcast|unfold)_copied": *[1-9]' BENCH_pr5.json; then
  echo "FAIL: a layout op copied data on some benchmark (see fields above)" >&2
  exit 1
fi
if grep -E '"violations": *\[ *"' BENCH_pr5.json; then
  echo "FAIL: zero-copy violations recorded (op kinds listed above)" >&2
  exit 1
fi

echo "==> perf_suite (tiled-kernel perf suite; regression-gated vs committed BENCH_pr7.json)"
# the bin enforces: four-way byte parity (tape/exec × serial/parallel),
# fused_ops >= 1 and pack_copied <= the post-tiling ceiling on every
# benchmark, per-dataset counters never above the committed BENCH_pr7.json,
# and the nine-dataset CPU-time totals within LIP_PERF_TOL (default 10%)
# of it. The fresh run goes to a scratch file so the committed baseline
# stays the comparison anchor.
cargo run -q --release --offline -p lip-bench --bin perf_suite BENCH_pr7_check.json BENCH_pr7.json
rm -f BENCH_pr7_check.json

echo "==> verify: BENCH_pr7.json itself respects the pack ceiling and fused-op floor"
if grep -E '"pack_copied": *(4[5-9][0-9]{4}|[5-9][0-9]{5}|[0-9]{7,})' BENCH_pr7.json; then
  echo "FAIL: committed BENCH_pr7.json has pack_copied above the 450000 B ceiling" >&2
  exit 1
fi
if grep -E '"fused_ops": *0' BENCH_pr7.json; then
  echo "FAIL: committed BENCH_pr7.json records a benchmark with zero fused ops" >&2
  exit 1
fi

echo "==> lip-exec bench smoke (compiled executor vs tape; fails on byte divergence,"
echo "    including every registered stage composition)"
# the executor differential sweep itself runs inside both cargo test passes
# above (crates/exec/tests); this exercises the binary end-to-end and checks
# the arena-undercuts-tape-peak contract at the default thread budget…
cargo run -q --release --offline -p lip-exec BENCH_exec.json

echo "==> lip-exec bench smoke under LIP_THREADS=1"
# …and again on the serial budget: parity must hold at any thread count
LIP_THREADS=1 cargo run -q --release --offline -p lip-exec BENCH_exec_serial.json

echo "==> pretrain_zoo (cross-dataset transfer study; bit-gated vs committed BENCH_pr10.json)"
# sequential backbone pretrain over the nine benchmarks, then per-dataset
# zero-shot / few-shot / from-scratch MSE. The run is deterministic, so
# every numeric field must reproduce the committed report bit-for-bit; the
# fresh run goes to a scratch file so the committed baseline stays the
# comparison anchor.
cargo run -q --release --offline -p lip-bench --bin pretrain_zoo BENCH_pr10_check.json BENCH_pr10.json
rm -f BENCH_pr10_check.json

echo "==> serve_bench (micro-batching server sweep; regression-gated vs committed BENCH_serve.json)"
# the bin starts a live lip-serve server and, per benchmark dataset, runs
# 4 keep-alive clients x 32 requests, checking every socket response
# byte-for-byte against a direct lip-exec forward (fnv1a-64 row hashes).
# It exits non-zero on any parity break, request error, worker death, no
# observed coalescing, or a nine-dataset CPU total more than
# LIP_SERVE_TOL (default 50%) above the committed baseline. The fresh
# run goes to a scratch file so the committed baseline stays the anchor.
cargo run -q --release --offline -p lip-serve --bin serve_bench BENCH_serve_check.json BENCH_serve.json
rm -f BENCH_serve_check.json

echo "==> serve_bench under LIP_THREADS=1 (structural gates only: parity, errors,"
echo "    coalescing, worker health — serial CPU totals are not baseline-comparable)"
LIP_THREADS=1 cargo run -q --release --offline -p lip-serve --bin serve_bench BENCH_serve_serial.json
rm -f BENCH_serve_serial.json

echo "==> verify: BENCH_serve.json itself records parity, zero errors, and coalescing"
if grep -E '"errors": *[1-9]' BENCH_serve.json; then
  echo "FAIL: committed BENCH_serve.json records request errors" >&2
  exit 1
fi
if grep -E '"parity_ok": *false' BENCH_serve.json; then
  echo "FAIL: committed BENCH_serve.json records a served/direct parity break" >&2
  exit 1
fi
if grep -E '"coalesced_max": *[01],' BENCH_serve.json; then
  echo "FAIL: committed BENCH_serve.json shows no micro-batch coalescing" >&2
  exit 1
fi

echo "==> verify: only lip-* path dependencies in Cargo.tomls"
if grep -rhE '^[a-zA-Z0-9_-]+ *= *[{"]' Cargo.toml crates/*/Cargo.toml \
    | grep -vE '^(lip-[a-z]+|lipformer) *=' \
    | grep -vE '^(name|version|edition|path|test|harness|members|resolver|description|license|repository|lto) *='; then
  echo "FAIL: non lip-* dependency found above" >&2
  exit 1
fi

echo "OK: offline build + double test run green (LIP_THREADS=1 and default),"
echo "    perfbench builds against the current APIs,"
echo "    rustdoc clean under -D warnings, clippy clean under -D warnings,"
echo "    static plan verifier zero findings (schedules, partitions, kernels),"
echo "    parallel/serial bit-identical, zero layout-copy allocations,"
echo "    perf suite within tolerance (pack ceiling, fused-op floor, timings),"
echo "    compiled executor byte-identical to the tape on all nine benchmarks"
echo "    and on every registered stage composition,"
echo "    transfer zoo bit-identical to the committed BENCH_pr10.json,"
echo "    serving sweep byte-identical to direct execution with coalescing live,"
echo "    zero external dependencies"
