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

echo "==> cargo test --release -q --offline -p lip-tensor (the vectorized matmul"
echo "    tiles exist only in optimized builds; the passes above are debug builds)"
cargo test --release -q --offline -p lip-tensor

echo "==> cargo test --release -q --offline -p lip-par (a region takes back the helper"
echo "    jobs no worker has started; optimized builds time that race differently)"
cargo test --release -q --offline -p lip-par

echo "==> cargo test --release -q --offline -p lip-exec (the tape parity, shadow-check"
echo "    and poison suites against the optimized kernels, vectorized matmul tiles included)"
cargo test --release -q --offline -p lip-exec

echo "==> lip-analyze --plan --lint --check-model (static graph gate: lift each"
echo "    benchmark model's plan from its own tape, then the tape checks)"
cargo run -q --release --offline -p lip-analyze -- --plan --lint --check-model

echo "==> lip-analyze --verify-plan (static schedule verifier: def-before-use,"
echo "    liveness, symbolic arena bounds, partition proof, kernel-source"
echo "    audit, and every registered stage composition swept through the"
echo "    plan lift + schedule verification — exit 1 on any finding)"
cargo run -q --release --offline -p lip-analyze -- --verify-plan

echo "==> perf_suite (the kernel gate; regression-gated vs committed BENCH_pr7.json)"
# the bin enforces: four-way byte parity (tape/exec × serial/parallel),
# zero bytes copied by permute/slice/broadcast/unfold and total copies
# below the pre-view baseline, pack_copied <= the post-tiling ceiling on
# every benchmark, per-dataset pack_copied never above
# the committed BENCH_pr7.json, and the nine-dataset CPU-time totals within
# LIP_PERF_TOL (default 10%) of it. The fresh run goes to a scratch file so
# the committed baseline stays the comparison anchor.
cargo run -q --release --offline -p lip-bench --bin perf_suite BENCH_pr7_check.json BENCH_pr7.json
rm -f BENCH_pr7_check.json

echo "==> verify: BENCH_pr7.json itself respects the pack ceiling"
if grep -E '"pack_copied": *(4[5-9][0-9]{4}|[5-9][0-9]{5}|[0-9]{7,})' BENCH_pr7.json; then
  echo "FAIL: committed BENCH_pr7.json has pack_copied above the 450000 B ceiling" >&2
  exit 1
fi

echo "==> pretrain_zoo (cross-dataset transfer study; bit-gated vs committed BENCH_pr10.json)"
# sequential backbone pretrain over the nine benchmarks, then per-dataset
# zero-shot / few-shot / from-scratch MSE. The run is deterministic, so
# every numeric field must reproduce the committed report bit-for-bit; the
# fresh run goes to a scratch file so the committed baseline stays the
# comparison anchor.
cargo run -q --release --offline -p lip-bench --bin pretrain_zoo BENCH_pr10_check.json BENCH_pr10.json
rm -f BENCH_pr10_check.json

echo "==> verify: only lip-* path dependencies in Cargo.tomls"
if grep -rhE '^[a-zA-Z0-9_-]+ *= *[{"]' Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml \
    | grep -vE '^(lip-[a-z]+|lipformer) *=' \
    | grep -vE '^(name|version|edition|path|test|harness|members|resolver|description|license|repository|lto) *='; then
  echo "FAIL: non lip-* dependency found above" >&2
  exit 1
fi

echo "OK: offline build + double test run green (LIP_THREADS=1 and default),"
echo "    perfbench builds against the current APIs,"
echo "    lip-tensor, lip-par and lip-exec tests green under --release,"
echo "    rustdoc clean under -D warnings, clippy clean under -D warnings,"
echo "    static graph gate and static plan verifier zero findings,"
echo "    perf suite within tolerance (four-way parity, zero layout copies,"
echo "    pack ceiling, timings),"
echo "    transfer zoo bit-identical to the committed BENCH_pr10.json,"
echo "    zero external dependencies in every manifest"
