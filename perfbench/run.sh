#!/usr/bin/env bash
# Builds cmd/ehserver and the perfbench driver from this checkout into
# .bench_build/, then runs the driver with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload hot-get --seed 1 --seconds 10 --trace 0
#
# Every build and scratch file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ehserver" ]; then
	echo "perfbench: run from the repository root: no go.mod or cmd/ehserver in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$build/config"

go build -o "$build/bin/ehserver" ./cmd/ehserver
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server-bin "$build/bin/ehserver" -work-dir "$build/run" "$@"
