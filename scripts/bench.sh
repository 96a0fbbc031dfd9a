#!/bin/sh
# bench.sh — the per-PR performance and race gate.
#
# Runs the benchmark suite (every paper table/figure as a benchmark, plus
# the driver and simulator micro-benchmarks) and the race-detector tests
# for the packages the parallel evaluation engine touches, then diffs the
# fresh results against the previous PR's committed file — the
# highest-numbered BENCH_pr*.json — with scripts/benchjson -compare. A
# slowdown or allocation growth past the threshold exits non-zero. The
# comparison against the seed's BENCH_baseline.json is printed after it as
# the long-range column; it reports and never fails (the recording host has
# changed since the seed, see ROADMAP.md).
#
# Usage:
#	./scripts/bench.sh [out.json]           # run + auto-compare vs previous PR
#	./scripts/bench.sh -compare old.json new.json
#	                                        # just diff two existing files
#
# Environment:
#	BENCH_BASELINE   file the gate compares against (default: the
#	                 highest-numbered BENCH_pr*.json)
#	BENCH_THRESHOLD  allowed growth fraction before failing (default 0.15)
set -eu

cd "$(dirname "$0")/.."

threshold="${BENCH_THRESHOLD:-0.15}"

if [ "${1:-}" = "-compare" ]; then
	[ $# -eq 3 ] || { echo "usage: bench.sh -compare old.json new.json" >&2; exit 2; }
	exec go run ./scripts/benchjson -compare -threshold "$threshold" "$2" "$3"
fi

out="${1:-BENCH_current.json}"
baseline="${BENCH_BASELINE:-$(ls BENCH_pr*.json 2>/dev/null | sort -V | tail -n 1)}"

echo "== go test -race ./internal/runner ./internal/eval" >&2
go test -race -count=1 ./internal/runner ./internal/eval

echo "== go test -bench=. -benchmem (root, dcpi, driver, sim, mem, optimize, tsdb, collect, whatif)" >&2
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go test -run '^$' -bench=. -benchmem . ./internal/dcpi ./internal/driver ./internal/sim ./internal/mem ./internal/optimize ./internal/tsdb ./internal/collect ./internal/whatif | tee "$tmp" >&2

go run ./scripts/benchjson < "$tmp" > "$out"
echo "== wrote $out" >&2

status=0
if [ -f "$baseline" ]; then
	echo "== compare vs $baseline (threshold $threshold)" >&2
	go run ./scripts/benchjson -compare -threshold "$threshold" "$baseline" "$out" || status=$?
else
	echo "== no previous file (${baseline:-BENCH_pr*.json}) — skipping compare" >&2
fi
if [ -f BENCH_baseline.json ] && [ "$baseline" != BENCH_baseline.json ]; then
	echo "== long range: vs BENCH_baseline.json (the seed; informational)" >&2
	go run ./scripts/benchjson -compare -threshold "$threshold" BENCH_baseline.json "$out" || true
fi
exit "$status"
