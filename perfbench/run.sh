#!/usr/bin/env bash
# Builds mpdp-serve and the benchmark driver from the sources of the
# checkout it is run from, then runs the driver. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
#
# Every build artefact and Go cache lives under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it. Build output
# goes to stderr; the driver's last stdout line is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/mpdp-serve" ./cmd/mpdp-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/mpdp-serve" "$@"
