package tsdb

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
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

// indexEntry is one series-index entry in a form that survives a reopen:
// its labels and each chunk as (file sequence, position in the source).
type indexEntry struct {
	labels Labels
	chunks [][2]uint64
}

// indexOf reads db's series index in its order, failing unless bySeries
// maps exactly the entries of the ordered slice and none is empty.
func indexOf(t *testing.T, db *DB) []indexEntry {
	t.Helper()
	if len(db.bySeries) != len(db.series) {
		t.Fatalf("bySeries holds %d labels, the ordered index %d", len(db.bySeries), len(db.series))
	}
	var out []indexEntry
	for _, e := range db.series {
		if db.bySeries[e.labels] != e || len(e.chunks) == 0 {
			t.Fatalf("index entry %+v: mapped %v, %d chunks", e.labels, db.bySeries[e.labels] == e, len(e.chunks))
		}
		ie := indexEntry{labels: e.labels}
		for _, c := range e.chunks {
			ie.chunks = append(ie.chunks, [2]uint64{c.src.fileSeq, uint64(c.sub)})
		}
		out = append(out, ie)
	}
	return out
}

// wantIndex derives the series index from the sources alone: every series
// of every source under its labels, labels ascending, each label's series
// ascending by (the source's lastSeq, position in the source).
func wantIndex(srcs []*source) []indexEntry {
	type key struct{ ord, sub, fileSeq uint64 }
	byLabel := map[Labels][]key{}
	for _, s := range srcs {
		for i := range s.blk.series {
			lab := s.blk.series[i].labels
			byLabel[lab] = append(byLabel[lab], key{s.blk.lastSeq, uint64(i), s.fileSeq})
		}
	}
	var out []indexEntry
	for lab, keys := range byLabel {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].ord != keys[j].ord {
				return keys[i].ord < keys[j].ord
			}
			return keys[i].sub < keys[j].sub
		})
		ie := indexEntry{labels: lab}
		for _, k := range keys {
			ie.chunks = append(ie.chunks, [2]uint64{k.fileSeq, k.sub})
		}
		out = append(out, ie)
	}
	sort.Slice(out, func(i, j int) bool { return labelsLess(&out[i].labels, &out[j].labels) })
	return out
}

// churnStore builds a store the way a long-running collector reshapes one,
// with every event that moves the series index: three machines, batches
// whose records repeat labels, re-scrapes of stored epochs, compactions at
// random points, a reopen that quarantines a corrupt segment, and
// retention eviction under a size cap. It returns the live store.
func churnStore(t *testing.T, rng *rand.Rand, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]uint64{}
	step := func() {
		machine := fmt.Sprintf("m%02d", rng.Intn(3))
		epoch := next[machine] + 1
		if epoch > 1 && rng.Intn(6) == 0 {
			epoch = 1 + uint64(rng.Int63n(int64(epoch-1))) // a re-scrape
		} else {
			next[machine] = epoch
		}
		b := Batch{
			Machine: machine, Workload: fmt.Sprintf("w%d", machine[2]%2),
			Epoch: epoch, Wall: 1000 + int64(epoch), Period: 62000,
		}
		for i := rng.Intn(7); i >= 0; i-- {
			b.Records = append(b.Records, Record{
				Image: fmt.Sprintf("/bin/app%d", rng.Intn(3)), Proc: []string{"", "", "f", "g"}[rng.Intn(4)],
				Event: sim.Event(rng.Intn(2)), Samples: uint64(rng.Intn(1000)), Insts: uint64(rng.Intn(9000)),
			})
		}
		mustAppend(t, db, b)
		if rng.Intn(10) == 0 {
			mustCompact(t, db, CompactOptions{CompactAfter: 1 + rng.Intn(6)})
		}
	}
	for i := 0; i < 60; i++ {
		step()
	}
	newest := db.srcs[len(db.srcs)-1]
	if !newest.raw {
		step()
		newest = db.srcs[len(db.srcs)-1]
	}
	if err := os.WriteFile(newest.path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{MaxBytes: db.Stats().SizeBytes * 3 / 4}); err != nil {
		t.Fatal(err)
	}
	quarantined := db.Stats().Quarantined
	for i := 0; i < 60; i++ {
		step()
	}
	if st := db.Stats(); quarantined != 1 || st.Evicted == 0 {
		t.Fatalf("the store skipped a reshaping event: %d quarantined, %d evicted", quarantined, st.Evicted)
	}
	return db
}

// TestRemoveSourcesKeepsPostingListsConsistent removes arbitrary subsets
// of a store's sources and requires srcs, byMachine and the series index
// to hold exactly the survivors: srcs and each machine's list ascending by
// fileSeq, each label's list exactly the surviving sources' series in
// (ord, sub) order, and emptied keys deleted — from byMachine, and from
// both bySeries and the ordered index. It then requires the index a store
// builds on Open to equal the one the live store held after appends,
// compaction, quarantine and retention.
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

		wantMachine := map[string][]*source{}
		for _, s := range live { // ascending fileSeq, as db.srcs was
			wantMachine[s.blk.machine] = append(wantMachine[s.blk.machine], s)
		}
		if len(db.srcs) != len(live) || (len(live) > 0 && !reflect.DeepEqual(db.srcs, live)) {
			t.Fatalf("round %d: srcs holds %d sources, want the %d survivors in order", round, len(db.srcs), len(live))
		}
		if !reflect.DeepEqual(db.byMachine, wantMachine) {
			t.Fatalf("round %d: byMachine = %v, want %v", round, db.byMachine, wantMachine)
		}
		if got, want := indexOf(t, db), wantIndex(live); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: series index =\n%v\nwant\n%v", round, got, want)
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		db := churnStore(t, rand.New(rand.NewSource(seed)), dir)
		live := indexOf(t, db)
		if want := wantIndex(db.srcs); !reflect.DeepEqual(live, want) {
			t.Fatalf("seed %d: live series index =\n%v\nwant\n%v", seed, live, want)
		}
		reopened, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := indexOf(t, reopened); !reflect.DeepEqual(got, live) {
			t.Fatalf("seed %d: the index Open builds =\n%v\nthe live store's\n%v", seed, got, live)
		}
	}
}

// TestPlanIsFlatInRawTail is the work ratchet of the raw tail: a label's
// in-order raw segments are one run of the series index's scan view, so
// an open-ended query of one machine plans one series per block plus one
// for the tail, whether the tail holds 10 epochs or 40. A late re-scrape
// starts one more run, which the epochs after it extend.
func TestPlanIsFlatInRawTail(t *testing.T) {
	const machines, blocks = 3, 2
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := uint64(0)
	appendEpochs := func(n int) {
		for ; n > 0; n-- {
			epoch++
			for m := 0; m < machines; m++ {
				mustAppend(t, db, procBatch(fmt.Sprintf("m%02d", m), epoch))
			}
		}
	}
	for b := 0; b < blocks; b++ {
		appendEpochs(10)
		mustCompact(t, db, CompactOptions{CompactAfter: 1})
	}
	m := Matcher{Machine: "m01", AnyEvent: true, AnyProc: true}
	entries := len(procBatch("m01", 1).Records)
	check := func(stage string, runs, points int) {
		t.Helper()
		if series, _, _ := db.plan(m); len(series) != runs {
			t.Errorf("%s: an open-ended query of one machine planned %d series, want %d", stage, len(series), runs)
		}
		if got := len(db.Select(m)); got != points {
			t.Errorf("%s: the query selected %d points, want %d", stage, got, points)
		}
	}
	appendEpochs(10)
	check("10-epoch tail", entries*(blocks+1), entries*int(epoch))
	appendEpochs(30)
	check("40-epoch tail", entries*(blocks+1), entries*int(epoch))
	late := procBatch("m01", 25)
	late.Records = late.Records[:1]
	mustAppend(t, db, late)
	appendEpochs(1)
	check("a late re-scrape", entries*(blocks+1)+1, entries*int(epoch)+1)
}

// TestMaxEpochMatchesSourceWalk holds MaxEpoch and FleetMaxEpoch, which
// read maxima the store keeps as sources come and go, to a walk of every
// epoch every source stores: after appends and compactions, after
// retention evicts whole machines under a size cap, and after an Open
// that reclaims a crashed compaction's leftovers and quarantines a torn
// file.
func TestMaxEpochMatchesSourceWalk(t *testing.T) {
	machines := []string{"m00", "m01", "m02", "m03"}
	check := func(stage string, db *DB) {
		t.Helper()
		want := map[string]uint64{}
		var fleet uint64
		db.mu.Lock()
		for _, s := range db.srcs {
			for _, m := range s.blk.metas {
				want[s.blk.machine] = max(want[s.blk.machine], m.epoch)
				fleet = max(fleet, m.epoch)
			}
		}
		db.mu.Unlock()
		for _, m := range machines {
			if got := db.MaxEpoch(m); got != want[m] {
				t.Errorf("%s: MaxEpoch(%s) = %d, the sources hold up to %d", stage, m, got, want[m])
			}
		}
		if got := db.FleetMaxEpoch(); got != fleet {
			t.Errorf("%s: FleetMaxEpoch = %d, the sources hold up to %d", stage, got, fleet)
		}
	}
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs := func(db *DB, from, to uint64, ms ...string) {
		for e := from; e <= to; e++ {
			for _, m := range ms {
				mustAppend(t, db, procBatch(m, e))
			}
		}
	}
	check("empty", db)
	appendEpochs(db, 1, 4, machines...)
	appendEpochs(db, 5, 12, "m00", "m01", "m02")
	check("appends", db)
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	appendEpochs(db, 13, 15, "m00", "m01")
	check("a compaction below a raw tail", db)

	// A compaction that dies after committing its first block leaves the
	// block beside its inputs; a torn segment of another machine is
	// quarantined on the next Open, which reclaims the inputs.
	db.testCrashMidCompact = true
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	check("a crashed compaction", db)
	db.mu.Lock()
	torn := db.byMachine["m01"][len(db.byMachine["m01"])-1]
	db.mu.Unlock()
	if !torn.raw {
		t.Fatal("m01's newest source is not a raw segment")
	}
	if err := os.WriteFile(torn.path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Reclaimed == 0 || st.Quarantined != 1 {
		t.Fatalf("reopen reclaimed %d leftovers and quarantined %d files, want some and 1", st.Reclaimed, st.Quarantined)
	}
	check("an Open that reclaims and quarantines", db)

	// A size cap evicts the oldest sources first: m03, which stopped at
	// epoch 4, leaves whole, and the others lose their oldest blocks.
	capped, err := Open(dir, Options{MaxBytes: db.Stats().SizeBytes / 2})
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(capped, 16, 17, "m00", "m02")
	if st := capped.Stats(); st.Evicted == 0 || capped.MaxEpoch("m03") != 0 {
		t.Fatalf("retention evicted %d sources and left m03 at epoch %d; want evictions and m03 gone", st.Evicted, capped.MaxEpoch("m03"))
	}
	check("retention", capped)
	mustCompact(t, capped, CompactOptions{CompactAfter: 1})
	check("a compaction under the cap", capped)

	// removeSources retires any sources: taking every one that holds the
	// fleet's newest epoch lowers the maxima of the machines they held.
	top := capped.FleetMaxEpoch()
	capped.mu.Lock()
	var newest []*source
	for _, s := range capped.srcs {
		if s.blk.maxEpoch == top {
			newest = append(newest, s)
		}
	}
	capped.removeSources(newest...)
	capped.mu.Unlock()
	if capped.FleetMaxEpoch() >= top {
		t.Fatalf("removing the sources of epoch %d left the fleet's maximum at %d", top, capped.FleetMaxEpoch())
	}
	check("removing the newest sources", capped)
}
