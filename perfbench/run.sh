#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload dom|compute|tenants|all --seed N --seconds S --trace 0|1
#
# Everything it writes (Go build cache, binary, span files of traced runs)
# stays in .bench_build/ under the current directory, and the build uses
# the local toolchain and no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# --workload all runs each workload in turn.
args=("$@")
for i in "${!args[@]}"; do
	if [[ ${args[$i]} == --workload && ${args[$((i + 1))]:-} == all ]]; then
		for w in dom compute tenants; do
			args[$((i + 1))]=$w
			"$out/perfbench" "${args[@]}"
		done
		exit 0
	fi
done
exec "$out/perfbench" "$@"
