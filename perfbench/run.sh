#!/usr/bin/env bash
# Builds the atmcac benchmark from the checkout in the current directory
# and runs one workload. Everything it builds or writes stays under
# .bench_build/ in that checkout.
#
#   bash perfbench/run.sh --workload dense-port --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home" "$out/state"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/state" "$@"
