#!/bin/sh
# pgo.sh — rebuild cmd/dcpieval/default.pgo, the CPU profile `go build`
# reads for dcpieval by default (-pgo=auto), from one run of the full
# evaluation sweep at scale 0.1. Refresh it after any change to the
# simulator's step path or its callees (internal/sim, internal/mem,
# internal/alpha, internal/pipeline): an edge the profile no longer sees
# loses its inlining. The profiled binary is built with -pgo=off, so the
# new profile describes the source as written, not the previous profile's
# inlining. The sweep's stdout is discarded; a profiled build prints the
# same bytes as an unprofiled one (scripts/ci.sh checks that).
#
# Profiles of separate sweeps differ at the edge of the inliner's hot set
# (call sites carrying the top 99 % of edge weight): a callee that runs
# rarely but long, such as deliverCycles, emitEdge or handlePal, can tip
# into step and make it slower. Before committing a refreshed profile, time
# it against the one it replaces in alternating runs of the sweep.
#
# Usage:  ./scripts/pgo.sh
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -pgo=off -o "$tmp/dcpieval" ./cmd/dcpieval
"$tmp/dcpieval" -all -runs 1 -scale 0.1 -cpuprofile "$tmp/cpu.pprof" >/dev/null
mv "$tmp/cpu.pprof" cmd/dcpieval/default.pgo
echo "pgo.sh: wrote cmd/dcpieval/default.pgo ($(wc -c <cmd/dcpieval/default.pgo) bytes)" >&2
