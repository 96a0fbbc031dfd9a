#!/usr/bin/env bash
# run.sh builds the benchmark and the dcpieval binary it drives from the
# sources of this checkout, then runs the benchmark with the arguments given:
#
#	bash bench/run.sh --workload eval-cold --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the two binaries, the trace file and the work directory that
# holds the stores and caches of a run.
#
# The fleet workloads make hundreds of durable writes (write, fsync, rename)
# per round. On a disk shared with other tenants one fsync took between 0.4
# and 5 ms from one hour to the next, which buried the code under
# measurement. So, where the kernel allows a private mount namespace, the
# work directory is a tmpfs mounted over .bench_build/work for this process
# alone: same path, gone with the process, and a durable write costs what
# memory costs. The flush policy of the code is untouched; the traced run
# reports the device's cost as atomicio.write_us, and the first line of
# output names the file system.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gotmp" "$out/work"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOTOOLCHAIN=local XDG_CONFIG_HOME=$out/config
(cd "$root/bench" && go build -o "$out/dcpibench" .)
(cd "$root" && go build -o "$out/dcpieval" ./cmd/dcpieval)

mountwork='mount -t tmpfs -o size=2g,mode=0755 bench-work "$1" && shift && exec "$@"'
for ns in "-m" "-Urm"; do
	if unshare $ns bash -c "$mountwork" bash "$out/work" true 2>/dev/null; then
		exec unshare $ns bash -c "$mountwork" bash "$out/work" "$out/dcpibench" -root "$root" "$@"
	fi
done
exec "$out/dcpibench" -root "$root" "$@"
