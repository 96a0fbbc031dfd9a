#!/bin/sh
# ci.sh — the pre-PR gate for what `go build ./... && go test ./...` (tier-1)
# cannot say: formatting, vet, the race detector, the bench/ module (its own
# go.mod, which ./... does not reach) and a few seconds of fuzzing per
# target. Every end-to-end check of the binaries is a Go test in tier-1 (the
# root package's *_cli_test.go, golden_test.go, guard_test.go and
# cmd/dcpicollect); docs/TOOLS.md lists which test holds which check.
#
# Usage:  ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l" >&2
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..." >&2
go vet ./...

echo "== go build ./..." >&2
go build ./...

echo "== go test -race ./..." >&2
go test -race -count=1 ./...

echo "== benchmarks of the simulator, analysis and fleet-store layers run once (a set-up panic fails)" >&2
go test -run '^$' -bench . -benchtime 1x ./internal/sim ./internal/mem ./internal/alpha ./internal/pipeline \
	./internal/dcpi ./internal/cfg ./internal/tsdb ./internal/collect

echo "== dcpieval prints the same bytes with and without its profile (-pgo=off)" >&2
# cmd/dcpieval/default.pgo changes inlining only; tier-1 holds the profiled
# build's output to the goldens, this holds the unprofiled one to it.
pgotmp="$(mktemp -d)"
go build -o "$pgotmp/pgo" ./cmd/dcpieval
go build -pgo=off -o "$pgotmp/nopgo" ./cmd/dcpieval
"$pgotmp/pgo" -fig 3 -runs 1 -scale 0.05 >"$pgotmp/pgo.out"
"$pgotmp/nopgo" -fig 3 -runs 1 -scale 0.05 >"$pgotmp/nopgo.out"
cmp "$pgotmp/pgo.out" "$pgotmp/nopgo.out"
rm -rf "$pgotmp"

echo "== bench module vets and passes its smoke test" >&2
(cd bench && go vet ./... && go test -count=1 ./...)

echo "== fuzz smoke (short deadline per target)" >&2
# Each target replays its committed corpus plus a few seconds of fresh
# coverage-guided input; crashes fail the gate.
while read -r pkg target; do
	go test "./internal/$pkg/" -run '^$' -fuzz "$target" -fuzztime 5s
done <<EOF
profiledb FuzzProfileDecode
alpha FuzzInstDecode
daemon FuzzParseFaultPlan
tsdb FuzzTSDBSegmentDecode
tsdb FuzzTSDBBlockDecode
optimize FuzzReorderProcedure
hw FuzzParseHWConfig
dcpi FuzzDecodeSnapshot
runcache FuzzDecodeEntry
wire FuzzDec
collect FuzzScrapePayload
collect FuzzAnswerJSON
collect FuzzQueryParams
EOF

echo "== ci.sh: all checks passed" >&2

# The one line count every simplicity claim cites (ROADMAP uses the same
# definition): non-test Go under cmd/ and internal/.
echo "non-test Go lines under cmd/ and internal/: $(find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
