#!/usr/bin/env bash
# The command of BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source (a no-op after the first run), then
# becomes the binary `--trace` selects: `trajectory` measures end to end
# with tracing off, `trajectory-trace` replays the same op stream in
# process with a span around every layer. The last line of stdout is the
# result object. Without `--workload` the whole suite runs (see README.md).
set -euo pipefail

dir="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-target}"

# cargo's own chatter goes to stderr so that stdout ends with the result
cargo build --release --offline --quiet --bins \
    --manifest-path "$dir/Cargo.toml" --target-dir "$target" 1>&2

bin=trajectory
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=trajectory-trace
    fi
    prev="$arg"
done

CARGO_TARGET_DIR="$target" exec "$target/release/$bin" "$@"
