#!/usr/bin/env bash
# The one command: builds the benchmark (and with it the product crates)
# from source, optimised and offline, then runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Without --workload every workload runs; without --trace both the
# untraced (end-to-end) and the traced (per-layer) run are made. Run from
# the root of the checkout. The last line of each run's output is its
# result as one JSON object (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/gtopk-benchmark" --out-dir "$here/out" "$@"
