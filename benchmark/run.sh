#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it
# with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload cocomac_run --seed 1 --seconds 40 --trace 0
#   bash benchmark/run.sh compare OLD NEW
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, and
# traced runs' Chrome/Perfetto traces. The build never touches the
# network.
set -euo pipefail

out="$PWD/.bench_build/compass-bench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C benchmark build -buildvcs=false -o "$out/compass-bench" . >&2

BENCH_COMMIT=unknown
if [ -d .git ]; then
	BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export BENCH_COMMIT
exec "$out/compass-bench" "$@"
