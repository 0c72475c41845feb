#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the root of
# a checkout) and runs it with the given arguments. Every build and run
# artefact stays under .bench_build/perfbench in that directory.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
