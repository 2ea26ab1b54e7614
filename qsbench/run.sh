#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash qsbench/run.sh --workload lan-commit --seed 1 --seconds 10 --trace 0
#
# Build cache and binary stay under .bench_build/ in the
# current directory, so the benchmark writes nothing outside the tree.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
# The build needs nothing beyond the tree and the local toolchain: no
# downloads, no user configuration.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/qsbench" .) >&2
exec "$out/qsbench" -root "$root" "$@"
