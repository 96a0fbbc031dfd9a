package tsdb

import (
	"fmt"
	"testing"

	"dcpi/internal/sim"
)

// ratchetStore is one fleet shape at a given machine count: 60 epochs of
// six images over two events plus two procedures of the first image,
// compacted every 20 epochs, so each machine holds three blocks.
func ratchetStore(t *testing.T, machines int) *DB {
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
		if e%20 == 0 {
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
	small, large := ratchetStore(t, 8), ratchetStore(t, 32)
	for name, q := range queries {
		a8 := testing.AllocsPerRun(20, func() { q(small) })
		a32 := testing.AllocsPerRun(20, func() { q(large) })
		t.Logf("%s: %v allocations at 8 machines, %v at 32", name, a8, a32)
		if a32 > 1.25*a8 {
			t.Errorf("%s allocates %v times at 32 machines, %v at 8: more than 1.25x", name, a32, a8)
		}
	}
}
