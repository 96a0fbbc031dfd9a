#!/bin/sh
# ci.sh — the pre-PR gate: formatting, vet, build, and the full test suite
# under the race detector. Run it before every PR; it must exit 0.
#
# Usage:  ./scripts/ci.sh
#
# Set BENCH=1 to also run the benchmark suite and fail on regressions
# against the previous PR's BENCH_pr*.json (see scripts/bench.sh); off by
# default because the full bench run adds ~10 minutes and timing thresholds
# are noisy on shared machines.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l" >&2
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== one varint cursor (internal/wire)" >&2
# Every binary format encodes and decodes through internal/wire, whose Dec
# bounds each count by the bytes that remain. A private cursor over
# encoding/binary's varints must not grow back beside it.
if grep -rnE 'binary\.((Read|Put|Append)(Uv|V)arint|Uvarint|Varint)\b' \
	--include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/wire/'; then
	echo "varint calls outside internal/wire: use wire.Enc / wire.Dec" >&2
	exit 1
fi

echo "== one in-memory shape in the fleet store (internal/tsdb)" >&2
# A raw segment decodes into the one-epoch block of its batch
# (blockFromBatch), so everything below the codecs reads blocks. A second,
# row-wise shape — a segment struct, a source.seg field, a constructor from
# a Batch — must not grow back beside it.
if grep -nE '\.seg\b|segment\{|type segment\b|sourceFromBatch' internal/tsdb/*.go | grep -v '_test\.go:'; then
	echo "internal/tsdb: a second in-memory shape beside block: build raw segments with blockFromBatch" >&2
	exit 1
fi

echo "== one front end for the binaries that simulate (internal/cli)" >&2
# The shared flags are declared once, in internal/cli, which also owns what
# each one starts and what is written on the way to os.Exit. A private copy
# in a main must not grow back, and neither must -simcpus: how many host
# goroutines a machine uses comes from the worker budget (internal/par).
# (bench/ is the benchmark's own module; its -trace-out is the harness's.)
if grep -rnE '"(cpuprofile|memprofile|metrics-out|stats-out|trace-out|cache-dir|cache-max-mb)"' \
	--include='*.go' --exclude='*_test.go' . | grep -vE '^\./(internal/cli|bench)/'; then
	echo "shared flag declared outside internal/cli: register its group with cli.App" >&2
	exit 1
fi
if grep -rn '"simcpus"' --include='*.go' .; then
	echo "-simcpus is gone: simulated CPUs fan out over the free worker budget" >&2
	exit 1
fi

echo "== one door out of a process for a run's result (the cache entry)" >&2
# A finished run leaves a process as a run-cache entry and nothing else: a
# shard simulates into -cache-dir, and merging is the plain command over a
# directory that holds every shard's entries. A second interchange format —
# the shard archive, its flags, the runner tier that read it — must not grow
# back beside the entry.
if grep -rnE 'DCPISHRD|merge-shards|shard-out|ShardSink|\.Preload' \
	--include='*.go' --exclude='*_test.go' .; then
	echo "a shard's results are cache entries: write them with -shard i/N -cache-dir, read them with the plain command" >&2
	exit 1
fi

echo "== go vet ./..." >&2
go vet ./...

echo "== go build ./..." >&2
go build ./...

echo "== go test -race ./..." >&2
go test -race -count=1 ./...

echo "== bench module builds and passes its smoke test (cd bench && go test ./...)" >&2
# bench/ is its own module (dcpi/bench), which ./... above does not reach:
# without this step nothing notices an API change that breaks the benchmark.
(cd bench && go test -count=1 ./...)

echo "== fault-scenario smoke (dcpid -fault)" >&2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dcpid" ./cmd/dcpid
# Stalled daemon: loss must be counted and conserved, never silent.
"$tmp/dcpid" -workload gcc -mode cycles -db "$tmp/db-stall" \
	-scale 0.25 -period 768 -buckets 64 -overflow 64 \
	-fault stall=0-100M >"$tmp/stall.out"
grep -q "samples lost" "$tmp/stall.out"
grep -q "conservation" "$tmp/stall.out"
! grep -q "VIOLATED" "$tmp/stall.out"
# Crash mid-merge: database must recover; conservation must hold.
"$tmp/dcpid" -workload wave5 -mode default -db "$tmp/db-crash" \
	-scale 0.15 -period 2048 -drain-interval 100000 -merge-interval 250000 \
	-fault crash-merge=2,merge-profiles=1 >"$tmp/crash.out"
grep -q " crashes" "$tmp/crash.out"
! grep -q "VIOLATED" "$tmp/crash.out"

echo "== parallel-simulation determinism smoke (dcpid, GOMAXPROCS=1 vs default)" >&2
# The same command on a one-slot worker budget (sequential) and on the
# host's (simulated CPUs on goroutines wherever a slot is free) must
# produce byte-identical output and database files (see DESIGN.md).
GOMAXPROCS=1 "$tmp/dcpid" -workload altavista -mode cycles -db "$tmp/db-seq" \
	-scale 0.1 -seed 7 >"$tmp/seq.out"
"$tmp/dcpid" -workload altavista -mode cycles -db "$tmp/db-par" \
	-scale 0.1 -seed 7 >"$tmp/par.out"
sed 's|db-seq|DB|' "$tmp/seq.out" >"$tmp/seq.norm"
sed 's|db-par|DB|' "$tmp/par.out" >"$tmp/par.norm"
diff "$tmp/seq.norm" "$tmp/par.norm"
for f in "$tmp"/db-seq/epoch-0001/*; do
	cmp "$f" "$tmp/db-par/epoch-0001/$(basename "$f")"
done

echo "== a failed run still writes its artifacts (cli.Exit)" >&2
# The run that went wrong is the one whose metrics and trace are wanted.
if "$tmp/dcpid" -workload nosuch -db "$tmp/db-nosuch" \
	-stats-out "$tmp/fail-metrics.json" -trace-out "$tmp/fail-trace.json" 2>/dev/null; then
	echo "dcpid ran a workload that does not exist" >&2
	exit 1
fi
grep -q '"gauges"' "$tmp/fail-metrics.json"
grep -q '"traceEvents"' "$tmp/fail-trace.json"

echo "== run-cache cold/warm smoke (dcpieval -cache-dir)" >&2
# Second pass over a persistent cache must resolve at least one run from
# disk, simulate nothing, and keep stdout byte-identical to the cold pass.
go build -o "$tmp/dcpieval" ./cmd/dcpieval
"$tmp/dcpieval" -fig 7 -runs 1 -scale 0.1 -cache-dir "$tmp/runcache" \
	>"$tmp/cold.out" 2>/dev/null
"$tmp/dcpieval" -fig 7 -runs 1 -scale 0.1 -cache-dir "$tmp/runcache" \
	-metrics-out "$tmp/warm-metrics.json" >"$tmp/warm.out" 2>"$tmp/warm.err"
cmp "$tmp/cold.out" "$tmp/warm.out"
grep "dcpieval-cache-stats" "$tmp/warm.err" | grep -q '"simulated":0'
! grep "dcpieval-cache-stats" "$tmp/warm.err" | grep -q '"disk_hits":0,'

echo "== shared-shell smoke (dcpi.shell_builds / dcpi.shell_hits in -metrics-out)" >&2
# Figure 6 is 3 workloads x 4 modes x runs. Rehydrating it must build each
# workload's images at most once however many runs share them, and every
# rehydration must be accounted to a build or a hit: counts, not timings.
# counter FILE NAME prints one counter of a -metrics-out file; a counter
# that was never incremented is absent, which reads as 0.
counter() {
	v="$(sed -n "s/^ *\"$2\": \([0-9][0-9]*\),\{0,1\}$/\1/p" "$1" | head -n 1)"
	echo "${v:-0}"
}
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -cache-dir "$tmp/runcache" \
	>"$tmp/fig6-cold.out" 2>/dev/null
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -cache-dir "$tmp/runcache" \
	-metrics-out "$tmp/fig6-metrics.json" >"$tmp/fig6-warm.out" 2>"$tmp/fig6-warm.err"
cmp "$tmp/fig6-cold.out" "$tmp/fig6-warm.out"
grep "dcpieval-cache-stats" "$tmp/fig6-warm.err" | grep -q '"simulated":0'
builds="$(counter "$tmp/fig6-metrics.json" dcpi.shell_builds)"
hits="$(counter "$tmp/fig6-metrics.json" dcpi.shell_hits)"
rehydrated="$(counter "$tmp/fig6-metrics.json" runner.disk_hits)"
echo "   $rehydrated runs rehydrated: $builds shell builds, $hits shell hits" >&2
[ "$rehydrated" -eq 24 ]
[ "$builds" -ge 1 ]
[ "$builds" -le 3 ]
[ "$((builds + hits))" -eq "$rehydrated" ]
grep -q '"runner.rehydrate_us"' "$tmp/fig6-metrics.json"

echo "== sharded-evaluation smoke (dcpieval -shard i/N -cache-dir)" >&2
# Two shard processes at once into one directory, then the plain command
# over it: byte for byte the unsharded output, nothing simulated. (Figure
# 6's 24 runs, so that both shards have some.)
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -shard 1/2 -cache-dir "$tmp/shards" 2>/dev/null &
shard1=$!
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -shard 2/2 -cache-dir "$tmp/shards" 2>/dev/null &
shard2=$!
wait "$shard1"
wait "$shard2"
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -cache-dir "$tmp/shards" \
	-metrics-out "$tmp/merged-metrics.json" >"$tmp/merged.out" 2>"$tmp/merged.err"
cmp "$tmp/fig6-cold.out" "$tmp/merged.out"
grep "dcpieval-cache-stats" "$tmp/merged.err" | grep -q '"simulated":0'
# The same with a directory per shard (hosts with no shared filesystem),
# merged by copying the entries into one.
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -shard 1/2 -cache-dir "$tmp/shard-a" 2>/dev/null
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -shard 2/2 -cache-dir "$tmp/shard-b" 2>/dev/null
mkdir "$tmp/union"
cp "$tmp"/shard-a/*.run "$tmp"/shard-b/*.run "$tmp/union/"
"$tmp/dcpieval" -fig 6 -runs 2 -scale 0.05 -cache-dir "$tmp/union" \
	-metrics-out "$tmp/union-metrics.json" >"$tmp/union.out" 2>"$tmp/union.err"
cmp "$tmp/fig6-cold.out" "$tmp/union.out"
grep "dcpieval-cache-stats" "$tmp/union.err" | grep -q '"simulated":0'
# A shard's results are cache entries, so it needs somewhere to put them.
if DCPI_CACHE_DIR= "$tmp/dcpieval" -fig 7 -shard 1/2 2>/dev/null; then
	echo "dcpieval -shard ran without a cache directory" >&2
	exit 1
fi

echo "== fleet exposition/scrape/query smoke (dcpid -listen + dcpicollect)" >&2
# dcpid serves three sealed epochs over HTTP; dcpicollect scrapes them
# into a time-series store and the range query must reproduce the
# committed golden byte for byte. SIGINT must shut dcpid down cleanly.
go build -o "$tmp/dcpicollect" ./cmd/dcpicollect
"$tmp/dcpid" -workload wave5 -mode default -db "$tmp/db-fleet" \
	-scale 0.15 -period 2048 -seed 1 -epochs 3 -exact \
	-machine m00 -listen 127.0.0.1:29177 >/dev/null 2>"$tmp/dcpid-fleet.err" &
dcpid_pid=$!
# A failure below must not leak the background server.
trap 'kill "$dcpid_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
fleet_ok=0
for i in $(seq 1 100); do
	if "$tmp/dcpicollect" -targets m00=http://127.0.0.1:29177 \
		-tsdb "$tmp/fleetdb" -once >/dev/null 2>&1 \
		&& "$tmp/dcpicollect" query range -tsdb "$tmp/fleetdb" \
			-image /usr/bin/wave5 -from 1 -to 3 >"$tmp/fleet-range.out" \
		&& [ "$(wc -l <"$tmp/fleet-range.out")" -eq 5 ]; then
		fleet_ok=1
		break
	fi
	sleep 0.2
done
[ "$fleet_ok" = 1 ]
diff testdata/golden_fleet_range.txt "$tmp/fleet-range.out"
kill -INT "$dcpid_pid"
wait "$dcpid_pid"
trap 'rm -rf "$tmp"' EXIT
grep -q "shutdown complete" "$tmp/dcpid-fleet.err"

echo "== fleet demo, small (dcpicollect fleet)" >&2
# Simulated fleet, scrape, queries and compaction, each answer verified
# against the per-machine databases by the demo itself.
"$tmp/dcpicollect" fleet -machines 4 -epochs 16 -scale 0.02 -fault-machine 1 \
	>"$tmp/fleet-demo.out"
grep -q "fleet demo: all checks passed" "$tmp/fleet-demo.out"

echo "== tsdb compaction smoke (dcpicollect compact)" >&2
# Compaction must be invisible to queries: the range answer must still
# match the committed golden, and top/delta must be byte-identical to
# their pre-compaction output, after the raw segments merge into a block.
"$tmp/dcpicollect" query top -tsdb "$tmp/fleetdb" -from 1 -to 3 >"$tmp/fleet-top.pre"
"$tmp/dcpicollect" query delta -tsdb "$tmp/fleetdb" -a 1-2 -b 3-3 >"$tmp/fleet-delta.pre"
"$tmp/dcpicollect" compact -tsdb "$tmp/fleetdb" >"$tmp/compact.out"
grep -q "segments into 1 blocks" "$tmp/compact.out"
ls "$tmp/fleetdb" | grep -q '^blk-'
if ls "$tmp/fleetdb" | grep -q '^seg-.*tsdb$'; then
	echo "compaction left raw segments behind" >&2
	exit 1
fi
"$tmp/dcpicollect" query range -tsdb "$tmp/fleetdb" \
	-image /usr/bin/wave5 -from 1 -to 3 >"$tmp/fleet-range.post"
diff testdata/golden_fleet_range.txt "$tmp/fleet-range.post"
"$tmp/dcpicollect" query top -tsdb "$tmp/fleetdb" -from 1 -to 3 >"$tmp/fleet-top.post"
cmp "$tmp/fleet-top.pre" "$tmp/fleet-top.post"
"$tmp/dcpicollect" query delta -tsdb "$tmp/fleetdb" -a 1-2 -b 3-3 >"$tmp/fleet-delta.post"
cmp "$tmp/fleet-delta.pre" "$tmp/fleet-delta.post"
"$tmp/dcpicollect" query top -tsdb "$tmp/fleetdb" -from 1 -to 3 -json \
	| grep -q '"rows"'

echo "== closed-loop optimization smoke (dcpiopt)" >&2
# The §7 loop must converge on the pessimized classifier with a real,
# measured win (the gate requires at least 1.5x), and must refuse the
# image whose code cannot be re-laid safely.
go build -o "$tmp/dcpiopt" ./cmd/dcpiopt
"$tmp/dcpiopt" -workload classify -min-gain 0.5 >"$tmp/opt.out"
grep -q "converged" "$tmp/opt.out"
grep -q "kept" "$tmp/opt.out"
if "$tmp/dcpiopt" -workload gcc -scale 0.02 2>"$tmp/opt-gcc.err"; then
	echo "dcpiopt accepted an unsafe image" >&2
	exit 1
fi
grep -q "outside the procedure" "$tmp/opt-gcc.err"

echo "== what-if sweep smoke (dcpiwhatif)" >&2
# A tiny grid over one workload: the cold pass simulates, the warm rerun
# must resolve every run from the shared disk cache and keep the report
# (including the causal culprit score) byte-identical.
go build -o "$tmp/dcpiwhatif" ./cmd/dcpiwhatif
"$tmp/dcpiwhatif" -workloads compress -scale 0.05 -grid dcache2x,memlat2x \
	-cache-dir "$tmp/runcache" -json "$tmp/whatif.json" \
	>"$tmp/whatif-cold.out" 2>"$tmp/whatif-cold.err"
grep -q "aggregate:" "$tmp/whatif-cold.out"
grep -q "precision" "$tmp/whatif-cold.out"
"$tmp/dcpiwhatif" -workloads compress -scale 0.05 -grid dcache2x,memlat2x \
	-cache-dir "$tmp/runcache" -json "$tmp/whatif.json" \
	>"$tmp/whatif-warm.out" 2>"$tmp/whatif-warm.err"
cmp "$tmp/whatif-cold.out" "$tmp/whatif-warm.out"
grep "dcpiwhatif-cache-stats" "$tmp/whatif-warm.err" | grep -q '"simulated":0'
grep -q '"base_wall_cycles"' "$tmp/whatif.json"

echo "== fuzz smoke (short deadline per target)" >&2
# Each target replays its committed corpus plus a few seconds of fresh
# coverage-guided input; crashes fail the gate.
go test ./internal/profiledb/ -run '^$' -fuzz FuzzProfileDecode -fuzztime 5s
go test ./internal/alpha/ -run '^$' -fuzz FuzzInstDecode -fuzztime 5s
go test ./internal/daemon/ -run '^$' -fuzz FuzzParseFaultPlan -fuzztime 5s
go test ./internal/tsdb/ -run '^$' -fuzz FuzzTSDBSegmentDecode -fuzztime 5s
go test ./internal/tsdb/ -run '^$' -fuzz FuzzTSDBBlockDecode -fuzztime 5s
go test ./internal/optimize/ -run '^$' -fuzz FuzzReorderProcedure -fuzztime 5s
go test ./internal/hw/ -run '^$' -fuzz FuzzParseHWConfig -fuzztime 5s
go test ./internal/dcpi/ -run '^$' -fuzz FuzzDecodeSnapshot -fuzztime 5s
go test ./internal/runcache/ -run '^$' -fuzz FuzzDecodeEntry -fuzztime 5s
go test ./internal/wire/ -run '^$' -fuzz FuzzDec -fuzztime 5s

if [ "${BENCH:-0}" = "1" ]; then
	echo "== benchmark regression gate (BENCH=1)" >&2
	./scripts/bench.sh "$tmp/bench.json"
fi

echo "== ci.sh: all checks passed" >&2
