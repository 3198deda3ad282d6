#!/usr/bin/env bash
# Builds flashmark from source and runs it with the arguments given.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the driver appends
# --workload/--seed/--seconds/--trace.
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and the run's one
# temp dir (block files, checkpoint probe, span files).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The contract: read and write only inside the checkout, fetch nothing.
export GOCACHE="$build/gocache" # build cache, by default under $HOME
export GOPATH="$build/gopath"   # module cache root; unused (no dependencies) but looked up
export GOTMPDIR="$build/tmp"    # the compiler's work dirs, by default under /tmp
export GOTOOLCHAIN=local        # never download another toolchain
export GOENV=off                # no settings from a user's config file
export GOWORK=off               # no go.work from a directory above the checkout

# The benchmark is a module of its own that replaces `flash` with the
# checkout around it, so this fails (non-zero, no result line) anywhere the
# program under test is missing.
go build -C "$here" -o "$build/flashmark" .

# The leading --spans is a default: a --spans among the caller's arguments
# comes later and wins.
exec "$build/flashmark" --tmp "$build/tmp" --spans "$build/tmp/spans.jsonl" "$@"
