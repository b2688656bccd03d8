#!/usr/bin/env bash
# Builds dlexp, dlserve and the benchmark from source into .bench_build/,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, temporaries, binaries) stays
# under .bench_build/ in the checkout, and no module is fetched.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dlexp || ! -d cmd/dlserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

go build -o "$build/bin/" ./cmd/dlexp ./cmd/dlserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
