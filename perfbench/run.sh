#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# durable data directories, span dumps) lands under .bench_build/ in the
# repository root. Without the engine's sources next to it (../go.mod)
# the build fails and the script exits non-zero without a result line.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root; the engine sources (go.mod) are missing" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" -spans "$out/spans" "$@"
