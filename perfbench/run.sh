#!/usr/bin/env bash
# Builds texsim, texserve and the benchmark from source into
# .bench_build/bin, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, binaries, scratch stores, run records) stays
# under .bench_build in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/texsim" texcache/cmd/texsim >&2
go build -o "$out/bin/texserve" texcache/cmd/texserve >&2
cd "$root"

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
