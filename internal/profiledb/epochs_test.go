package profiledb

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dcpi/internal/sim"
)

// checkDense asserts the density invariant on db: Epochs() is 1..latest,
// and EpochsAfter(n) is Epochs()[n:] for every n in 0..latest.
func checkDense(t *testing.T, db *DB, step string) {
	t.Helper()
	all, err := db.Epochs()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	for i, e := range all {
		if e != i+1 {
			t.Fatalf("%s: epochs %v are not 1..%d", step, all, len(all))
		}
	}
	for n := 0; n <= len(all); n++ {
		got, err := db.EpochsAfter(n)
		if err != nil {
			t.Fatalf("%s: EpochsAfter(%d): %v", step, n, err)
		}
		if !slices.Equal(got, all[n:]) {
			t.Fatalf("%s: EpochsAfter(%d) = %v, want %v", step, n, got, all[n:])
		}
	}
}

// TestEpochsStayDense runs seeded random sequences of every writer step —
// Update, WriteMeta, NewEpoch, Recover, reopen — and holds the writer and a
// fresh reader to the density invariant after each one.
func TestEpochsStayDense(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := filepath.Join(t.TempDir(), "db")
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			var step string
			switch op := rng.Intn(5); op {
			case 0:
				step = "Update"
				p := NewProfile("/bin/app", sim.Event(rng.Intn(int(sim.NumEvents))))
				p.Add(uint64(4*rng.Intn(64)), uint64(1+rng.Intn(9)))
				err = db.Update(p)
			case 1:
				step = "WriteMeta"
				err = db.WriteMeta(Meta{Workload: "app", WallCycles: int64(i)})
			case 2:
				step = "NewEpoch"
				err = db.NewEpoch()
			case 3:
				step = "Recover"
				_, err = db.Recover()
			case 4:
				step = "reopen"
				db, err = Open(dir)
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, i, step, err)
			}
			checkDense(t, db, step)
			reader, err := OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			checkDense(t, reader, step+" (reader)")
		}
	}
}

// A hole an operator cut by hand delays a walk up from below it and never
// stalls one: from the hole's floor EpochsAfter lists the root and finds
// what lies above.
func TestEpochsAfterSkipsAHole(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for db.Epoch() < 6 {
		if err := db.NewEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(db.epochDir(3)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		after int
		want  []int
	}{
		{0, []int{1, 2}}, // stops at the hole
		{2, []int{4, 5, 6}},
		{3, []int{4, 5, 6}},
		{4, []int{5, 6}},
		{6, nil},
	} {
		got, err := db.EpochsAfter(tc.after)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("EpochsAfter(%d) = %v, want %v", tc.after, got, tc.want)
		}
	}
}
