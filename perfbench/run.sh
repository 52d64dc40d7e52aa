#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload olap --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (binary, Go build cache, the go
# command's telemetry counters, span dumps) stays under .bench_build/ at
# the root of the checkout; CARGO_TARGET_DIR overrides that directory, as
# some harnesses set it for every language.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
