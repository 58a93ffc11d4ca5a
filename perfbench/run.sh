#!/usr/bin/env bash
# Builds the benchmark and the idylld daemon from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig11-suite --seed 1 --seconds 15 --trace 0
#
# Every build output, Go cache and per-run directory stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/idylld" idyll/cmd/idylld) >&2

exec "$out/perfbench" -idylld "$out/idylld" -work "$out" "$@"
