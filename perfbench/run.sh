#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload. Run it from the checkout root:
#
#	bash perfbench/run.sh --workload bcast-oltp64 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# files, trace spans) stays under .bench_build/perfbench in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/run" "$@"
