#!/usr/bin/env bash
# Build and run the DCA simulator benchmark.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Builds this package and the `figures`
# binary in release mode (into $CARGO_TARGET_DIR, default .bench_build),
# then runs the benchmark. Build output goes to stderr; the last line of
# stdout is the result. Exits non-zero, printing no result, when the
# simulator sources are missing or the build fails.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet -p dca-bench --bin figures >&2

PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
export PERFBENCH_RUSTC PERFBENCH_GIT_COMMIT

exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --figures "$CARGO_TARGET_DIR/release/figures" \
    --work-dir .bench_build/perfbench-work \
    --goldens perfbench/goldens
