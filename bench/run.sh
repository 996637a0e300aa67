#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash bench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and everything the run writes stay
# under .bench_build/ at the root of the checkout. Without the repository's
# sources beside bench/ the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
