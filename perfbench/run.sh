#!/usr/bin/env bash
# Repository benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_online|serve_bulk|train \
#       --seed N --seconds S --trace 0|1
#
# Builds the shipped `lip-serve` binary and the `perfbench` program from
# source (offline, release profile) into $CARGO_TARGET_DIR (default
# `.bench_build`), then runs `perfbench`. Build output goes to stderr; the
# last stdout line is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p lip-serve --bin lip-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/lip-serve" "$@"
