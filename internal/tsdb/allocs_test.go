package tsdb

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dcpi/internal/sim"
)

// ratchetStore is one fleet shape at a given machine count: 60 epochs of
// six images over two events plus two procedures of the first image,
// compacted every `every` epochs, so each machine holds 60/every blocks.
func ratchetStore(t *testing.T, machines int, every uint64) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 60; e++ {
		for m := 0; m < machines; m++ {
			b := bigBatch(fmt.Sprintf("m%02d", m), e)
			b.Records = append(b.Records,
				Record{Image: "/usr/bin/app0", Proc: "main", Event: sim.EvCycles, Samples: 40 + e},
				Record{Image: "/usr/bin/app0", Proc: "loop", Event: sim.EvCycles, Samples: 7})
			mustAppend(t, db, b)
		}
		if e%every == 0 {
			mustCompact(t, db, CompactOptions{CompactAfter: 1})
		}
	}
	return db
}

// TestQueryAllocsIndependentOfMachines is the allocation ratchet of the
// fleet aggregators: the same query over four times the machines may
// allocate at most 1.25 times as often. An aggregator that copies,
// closes over or hashes per point allocates in proportion to the points
// it reads and fails here.
func TestQueryAllocsIndependentOfMachines(t *testing.T) {
	queries := map[string]func(db *DB){
		"TopImages":  func(db *DB) { TopImages(db, sim.EvCycles, 1, 60, 10) },
		"TopProcs":   func(db *DB) { TopProcs(db, "/usr/bin/app0", sim.EvCycles, 1, 60, 10) },
		"RangeQuery": func(db *DB) { RangeQuery(db, "/usr/bin/app3", sim.EvCycles, 1, 60) },
		"TopDeltas":  func(db *DB) { TopDeltas(db, sim.EvCycles, 1, 30, 31, 60, 10) },
	}
	small, large := ratchetStore(t, 8, 20), ratchetStore(t, 32, 20)
	for name, q := range queries {
		a8 := testing.AllocsPerRun(20, func() { q(small) })
		a32 := testing.AllocsPerRun(20, func() { q(large) })
		t.Logf("%s: %v allocations at 8 machines, %v at 32", name, a8, a32)
		if a32 > 1.25*a8 {
			t.Errorf("%s allocates %v times at 32 machines, %v at 8: more than 1.25x", name, a32, a8)
		}
	}
}

// bytesPerRun is the heap bytes f allocates per call, averaged over n calls
// after one warm-up call, as testing.AllocsPerRun counts allocations.
func bytesPerRun(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestQueryAllocsIndependentOfBlocks is the ratchet's other axis: a
// one-epoch query keeps one run per label however many blocks the store
// holds, so over four times the blocks per machine it may allocate neither
// more often nor more bytes. A plan or scan that sizes anything from every
// run of a matching label, not from the runs inside the bounds, allocates
// in proportion to the store's uptime and fails here.
func TestQueryAllocsIndependentOfBlocks(t *testing.T) {
	queries := map[string]func(db *DB){
		"Select": func(db *DB) {
			db.Select(Matcher{Machine: "m03", AnyEvent: true, AnyProc: true, FromEpoch: 30, ToEpoch: 30})
		},
		"RangeQuery": func(db *DB) { RangeQuery(db, "/usr/bin/app3", sim.EvCycles, 30, 30) },
	}
	few, many := ratchetStore(t, 8, 20), ratchetStore(t, 8, 5)
	for name, q := range queries {
		a3 := testing.AllocsPerRun(20, func() { q(few) })
		a12 := testing.AllocsPerRun(20, func() { q(many) })
		b3 := bytesPerRun(20, func() { q(few) })
		b12 := bytesPerRun(20, func() { q(many) })
		t.Logf("%s: %v allocations and %d bytes at 3 blocks a machine, %v and %d at 12", name, a3, b3, a12, b12)
		if a12 > a3 || b12 > b3 {
			t.Errorf("%s allocates %v times and %d bytes at 12 blocks a machine, %v and %d at 3: it may not allocate more", name, a12, b12, a3, b3)
		}
	}
}

// hostileStore holds one machine's two epochs, 1 and 1+gap, of two images
// and one procedure of the first.
func hostileStore(t *testing.T, gap uint64) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []uint64{1, 1 + gap} {
		n := uint64(10 * (i + 1))
		mustAppend(t, db, Batch{Machine: "m00", Workload: "w", Epoch: e, Wall: 1 << 20, Period: 1000, Records: []Record{
			{Image: "/usr/bin/app0", Event: sim.EvCycles, Samples: n, Insts: 100},
			{Image: "/usr/bin/app0", Proc: "main", Event: sim.EvCycles, Samples: 4},
			{Image: "/usr/bin/app1", Event: sim.EvCycles, Samples: 30},
		}})
	}
	return db
}

// TestRangeQueryHostileBounds queries a store whose two epochs lie 2^40
// apart up to the largest epoch: the rows are the two epochs', and the
// bytes a query allocates do not grow with the gap between them.
func TestRangeQueryHostileBounds(t *testing.T) {
	const top = 1<<64 - 1
	far := hostileStore(t, 1<<40)
	want := map[string][]RangeRow{
		"image": {
			{Epoch: 1, Machines: 1, Samples: 10, Cycles: 10000, Insts: 100, CPI: 100, SharePct: 25},
			{Epoch: 1 + 1<<40, Machines: 1, Samples: 20, Cycles: 20000, Insts: 100, CPI: 200, SharePct: 40},
		},
		"procedure": {
			{Epoch: 1, Machines: 1, Samples: 4, Cycles: 4000, SharePct: 40},
			{Epoch: 1 + 1<<40, Machines: 1, Samples: 4, Cycles: 4000, SharePct: 20},
		},
	}
	queries := map[string]func(db *DB) []RangeRow{
		"image":     func(db *DB) []RangeRow { return RangeQuery(db, "/usr/bin/app0", sim.EvCycles, 0, top) },
		"procedure": func(db *DB) []RangeRow { return RangeQueryProc(db, "/usr/bin/app0", "main", sim.EvCycles, 0, top) },
	}
	near := hostileStore(t, 1<<12)
	for name, q := range queries {
		if got := q(far); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s query over [0, 2^64-1]:\n%+v\nwant\n%+v", name, got, want[name])
		}
		b12 := bytesPerRun(20, func() { q(near) })
		b40 := bytesPerRun(20, func() { q(far) })
		t.Logf("%s query: %d bytes with epochs 2^12 apart, %d with 2^40", name, b12, b40)
		if b40 > b12 {
			t.Errorf("%s query allocates %d bytes with epochs 2^40 apart, %d with 2^12: it may not allocate more", name, b40, b12)
		}
	}
}
