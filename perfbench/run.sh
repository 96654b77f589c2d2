#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs
# it with the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload host-meter --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay inside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"
