#!/usr/bin/env bash
# Builds the end-to-end pub/sub benchmark from source and runs it.
#
#   bash pubsubbench/run.sh --workload filter --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs (binary, Go build cache,
# trace files) stay under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

# Keep the toolchain's caches and config writes inside the build directory,
# and never let it fetch a module or a toolchain.
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
	export GOPATH="$build/home/go" GOMODCACHE="$build/home/go/pkg/mod"
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	cd "$root/pubsubbench"
	go build -trimpath -o "$build/pubsubbench" .
) >&2
exec "$build/pubsubbench" --out "$build" "$@"
