#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload advise-features --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, module path, toolchain config and telemetry, binary, the
# trained model bundle) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
"$out/perfbench" -make-bundle >&2
exec "$out/perfbench" "$@"
