#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload checkin-commit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, module
# and config dirs, the binary, per-run scratch state, trace dumps) goes
# under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
