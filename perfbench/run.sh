#!/usr/bin/env bash
# Builds the benchmark and mpcgraphd from this checkout's sources into
# .bench_build/, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-matching --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/ too.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d cmd/mpcgraphd ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/mpcgraphd" ./cmd/mpcgraphd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$PWD" "$@"
