#!/usr/bin/env bash
# The repository benchmark, run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Builds the `cps` binary and the benchmark (release, offline) into
# $CARGO_TARGET_DIR (default .bench_build), then runs the benchmark with
# its working files under $CARGO_TARGET_DIR/perfbench-work. Build output
# goes to standard error; the last line of standard output is the
# result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cps >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --cps "$CARGO_TARGET_DIR/release/cps" \
    --work "$CARGO_TARGET_DIR/perfbench-work" "$@"
