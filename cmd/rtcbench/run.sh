#!/usr/bin/env bash
# Builds rtcbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	bash cmd/rtcbench/run.sh --workload session-drop --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the current directory, so a run reads and writes only
# inside the checkout. The build is offline: the module has no
# dependencies outside the repository and the standard library.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="${root}/.bench_build"
mkdir -p "${out}/tmp"

export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTMPDIR="${out}/tmp"
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local

(cd "${here}" && go build -o "${out}/rtcbench" .)
exec "${out}/rtcbench" -root "${root}" "$@"
