#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build under the current
# directory (the repository root) and runs it with the given flags:
#
#   bash perfbench/run.sh --workload echo-udp --seed 1 --seconds 12 --trace 0
#
# Every cache, temporary file and trace the build and the run leave
# behind stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
