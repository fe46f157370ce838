#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the binary, the checkpoint journals
# (removed when the run ends) and a traced run's spans.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
