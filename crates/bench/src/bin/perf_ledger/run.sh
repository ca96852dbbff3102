#!/usr/bin/env bash
# Builds perf_ledger (and the run_specs fleet worker it needs beside it)
# from source, then runs it with every argument passed through.
#
#   bash crates/bench/src/bin/perf_ledger/run.sh --workload fig4-interp --seed 3
#
# Run from the repository root. Build output and results both go under
# ${CARGO_TARGET_DIR:-target}, the workspace's own target directory, so the
# workspace crates are compiled once for both.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-target}"
cargo build --quiet --release --offline \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" --bins
exec "$target/release/perf_ledger" "$@"
