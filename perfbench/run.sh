#!/usr/bin/env bash
# Builds msocd and the benchmark from source, then runs one benchmark
# invocation from the root of the checkout:
#
#   bash perfbench/run.sh --workload <cold-plan|warm-hot|revise-reboot> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p msoc-net --bin msocd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)" \
BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" \
    git rev-parse --short=12 HEAD 2>/dev/null || echo none)" \
    exec "$CARGO_TARGET_DIR/release/msoc-perfbench" \
    --msocd "$CARGO_TARGET_DIR/release/msocd" "$@"
