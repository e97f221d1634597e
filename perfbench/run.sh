#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload.
# Run from the repository root:
#   bash perfbench/run.sh --workload bulk-d4 --seed 42 --seconds 30 --trace 0
# Build outputs, the Go build cache and scratch files stay under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOMODCACHE=$out/gomod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off \
	GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
