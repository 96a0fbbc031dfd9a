package tsdb

import (
	"reflect"
	"sync"
	"testing"

	"dcpi/internal/sim"
)

// raggedFleet stores one machine with a full-span series over epochs
// 1..epochs and a short series present only at epochs 1..2 — the shape
// that exposed the winOf/winStart partition mismatch: with span not a
// multiple of queryWindows, a block series ending mid-range used to be
// registered into a window whose scan range never contained its last
// epochs, silently dropping them from every query.
func raggedFleet(t *testing.T, db *DB, from, to uint64) {
	t.Helper()
	for e := from; e <= to; e++ {
		b := Batch{
			Machine:  "m00",
			Workload: "wave5",
			Epoch:    e,
			Wall:     1_000_000,
			Period:   62000,
			Records: []Record{
				{Image: "/full", Event: sim.EvCycles, Samples: 10 + e},
			},
		}
		if e <= 2 {
			b.Records = append(b.Records, Record{Image: "/short", Event: sim.EvCycles, Samples: 100 + e})
		}
		mustAppend(t, db, b)
	}
}

// raggedPoints is how many points raggedFleet holds in [lo, hi] when
// epochs 1..stored exist: one full-series point per epoch plus the short
// series at epochs 1 and 2.
func raggedPoints(lo, hi, stored uint64) int {
	n := 0
	for e := lo; e <= hi && e <= stored; e++ {
		n++
		if e <= 2 {
			n++
		}
	}
	return n
}

// TestCompactionByteIdentityRaggedSpan pins byte-identical Select output
// across compaction when the epoch span is not a multiple of
// queryWindows (span 17 vs 16 windows) and a series ends mid-range, over
// every [from, to] sub-range.
func TestCompactionByteIdentityRaggedSpan(t *testing.T) {
	const epochs = 17
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raggedFleet(t, db, 1, epochs)
	query := func(lo, hi uint64) []Point {
		return db.Select(Matcher{FromEpoch: lo, ToEpoch: hi})
	}
	type span struct{ lo, hi uint64 }
	before := map[span][]Point{}
	for lo := uint64(1); lo <= epochs; lo++ {
		for hi := lo; hi <= epochs; hi++ {
			before[span{lo, hi}] = query(lo, hi)
		}
	}
	if got := len(before[span{1, epochs}]); got != epochs+2 {
		t.Fatalf("raw store holds %d points over the full span, want %d", got, epochs+2)
	}
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	for lo := uint64(1); lo <= epochs; lo++ {
		for hi := lo; hi <= epochs; hi++ {
			if got := query(lo, hi); !reflect.DeepEqual(got, before[span{lo, hi}]) {
				t.Fatalf("Select([%d, %d]) changed after compaction: %d points, want %d",
					lo, hi, len(got), len(before[span{lo, hi}]))
			}
		}
	}
}

// TestScanWindowsPartitionInvariant asserts, for raw, mixed (block plus
// raw segments), and fully compacted stores over ragged spans, that
// every point scanWindows emits satisfies winStart(w) <= p.Epoch <
// winStart(w+1) for its window — the partition winOf assigns and
// runWindow scans must be the same one — and that every matching point
// is emitted exactly once.
func TestScanWindowsPartitionInvariant(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, lo, hi, stored uint64) {
		t.Helper()
		span := hi - lo + 1
		nwin := uint64(queryWindows)
		if span < nwin {
			nwin = span
		}
		winStart := func(w uint64) uint64 { return lo + (span*w+nwin-1)/nwin }
		var mu sync.Mutex
		emitted := 0
		db.scanWindows(Matcher{FromEpoch: lo, ToEpoch: hi}, func(w int, p Point) {
			mu.Lock()
			defer mu.Unlock()
			emitted++
			if ws, we := winStart(uint64(w)), winStart(uint64(w)+1); p.Epoch < ws || p.Epoch >= we {
				t.Errorf("%s [%d, %d]: epoch %d emitted from window %d = [%d, %d)",
					stage, lo, hi, p.Epoch, w, ws, we)
			}
		})
		if want := raggedPoints(lo, hi, stored); emitted != want {
			t.Errorf("%s [%d, %d]: %d points emitted, want %d", stage, lo, hi, emitted, want)
		}
	}
	sweep := func(stage string, stored uint64) {
		for lo := uint64(1); lo <= 3; lo++ {
			for hi := lo; hi <= stored; hi++ {
				check(stage, lo, hi, stored)
			}
		}
	}
	raggedFleet(t, db, 1, 17)
	sweep("raw", 17)
	// Compact epochs 1..17 into a block, then append two more raw epochs:
	// scans now mix block series and raw points in the same windows.
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	raggedFleet(t, db, 18, 19)
	sweep("mixed", 19)
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	sweep("compacted", 19)
}
