#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh -seed 1                       # all four workloads
#   bash bench/run.sh -workload region -seed 3 -seconds 25 -trace 1
#
# Run it from the repository root. Every file the build or the run
# writes stays inside the repository: the Go build cache, module cache,
# temporary files and the binary go to .bench_build/, results to
# bench/out/. The toolchain is never asked to download anything.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

# Stamp results with the commit when the checkout is a git work tree;
# git is not asked to look above the repository.
SNAPBENCH_GIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
export SNAPBENCH_GIT

go -C "$root/bench" build -o "$build/snapbench" .
exec "$build/snapbench" -out "$root/bench/out" "$@"
