#!/usr/bin/env bash
# Builds the `cqa` binary and this benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload serve-ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); the run's socket and span files go to
# `.bench_build/perfbench-run/`. The last line of standard output is the
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cqa >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --cqa "$CARGO_TARGET_DIR/release/cqa" \
    --commit "$commit" \
    --rustc "$(rustc --version)" \
    "$@"
