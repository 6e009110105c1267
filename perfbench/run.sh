#!/usr/bin/env bash
# Builds adjserved and the benchmark program from the checkout it is run in,
# then runs one benchmark workload against the built server.
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build output, generated input,
# server log and span file stays under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/adjserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/adjserved and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/adjserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" "$@"
