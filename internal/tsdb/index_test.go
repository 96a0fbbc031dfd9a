package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcpi/internal/sim"
)

// TestAppendAllocsIndependentOfRecords pins the slab construction of a raw
// segment's block: every series' columns are cut from arrays the block
// owns, so a 336-record batch (a Procs scrape) allocates exactly as often
// as a 12-record one.
func TestAppendAllocsIndependentOfRecords(t *testing.T) {
	allocs := func(records int) float64 {
		b := Batch{Machine: "m00", Workload: "w", Epoch: 1, Wall: 1, Period: 62000}
		for i := 0; i < records; i++ {
			b.Records = append(b.Records, Record{
				Image: fmt.Sprintf("/bin/app%d", i%7), Proc: fmt.Sprintf("p%d", i),
				Event: sim.EvCycles, Samples: uint64(i),
			})
		}
		return testing.AllocsPerRun(100, func() { blockFromBatch(1, &b) })
	}
	small, large := allocs(12), allocs(336)
	if small != large {
		t.Errorf("blockFromBatch allocates %v times for 12 records, %v for 336", small, large)
	}
}

// TestRemoveSourcesKeepsPostingListsConsistent removes arbitrary subsets
// of a store's sources and requires every posting list to hold exactly
// the survivors, still ascending by fileSeq, with emptied keys deleted.
func TestRemoveSourcesKeepsPostingListsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 20; round++ {
		db, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			b := Batch{
				Machine: fmt.Sprintf("m%02d", rng.Intn(4)), Workload: "w",
				Epoch: uint64(i + 1), Wall: 1, Period: 62000,
			}
			for img := 0; img < 5; img++ {
				if rng.Intn(2) == 0 {
					b.Records = append(b.Records, Record{Image: fmt.Sprintf("/bin/app%d", img), Samples: 1})
				}
			}
			mustAppend(t, db, b)
		}
		if round%2 == 1 { // blocks and raw segments side by side
			mustCompact(t, db, CompactOptions{CompactAfter: 4})
		}
		var dead, live []*source
		for _, s := range append([]*source(nil), db.srcs...) {
			if rng.Intn(3) == 0 || round == 0 { // round 0 empties the store
				dead = append(dead, s)
			} else {
				live = append(live, s)
			}
		}
		rng.Shuffle(len(dead), func(i, j int) { dead[i], dead[j] = dead[j], dead[i] })
		db.mu.Lock()
		db.removeSources(dead...)
		db.mu.Unlock()

		wantMachine, wantImage := map[string][]*source{}, map[string][]*source{}
		for _, s := range live { // ascending fileSeq, as db.srcs was
			wantMachine[s.blk.machine] = append(wantMachine[s.blk.machine], s)
			for img := range s.images {
				wantImage[img] = append(wantImage[img], s)
			}
		}
		if len(db.srcs) != len(live) || (len(live) > 0 && !reflect.DeepEqual(db.srcs, live)) {
			t.Fatalf("round %d: srcs holds %d sources, want the %d survivors in order", round, len(db.srcs), len(live))
		}
		if !reflect.DeepEqual(db.byMachine, wantMachine) {
			t.Fatalf("round %d: byMachine = %v, want %v", round, db.byMachine, wantMachine)
		}
		if !reflect.DeepEqual(db.byImage, wantImage) {
			t.Fatalf("round %d: byImage = %v, want %v", round, db.byImage, wantImage)
		}
	}
}
