package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcpi/internal/sim"
)

// procBatch is a batch with image-level and per-procedure rows, the shape
// the collector ingests from a symbolizing target.
func procBatch(machine string, epoch uint64) Batch {
	return Batch{
		Machine:  machine,
		Workload: "x11perf",
		Epoch:    epoch,
		Wall:     2_000_000,
		Period:   62000,
		Records: []Record{
			{Image: "/usr/bin/X", Event: sim.EvCycles, Samples: 60 + epoch, Insts: 9000},
			{Image: "/usr/bin/X", Proc: "ffbFill", Event: sim.EvCycles, Samples: 40 + epoch},
			{Image: "/usr/bin/X", Proc: "miClip", Event: sim.EvCycles, Samples: 20},
			{Image: "/kernel", Event: sim.EvCycles, Samples: 9 + epoch},
			{Image: "/usr/bin/X", Event: sim.EvIMiss, Samples: 3},
		},
	}
}

func mustAppend(t *testing.T, db *DB, b Batch) {
	t.Helper()
	if err := db.Append(b); err != nil {
		t.Fatal(err)
	}
}

func mustCompact(t *testing.T, db *DB, o CompactOptions) CompactStats {
	t.Helper()
	st, err := db.Compact(o)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBlockRoundTrip encodes and decodes a block built from real batches,
// requiring a lossless round trip.
func TestBlockRoundTrip(t *testing.T) {
	var srcs []*source
	for e := uint64(1); e <= 4; e++ {
		b := procBatch("m00", e)
		srcs = append(srcs, newSource(e, "", 0, true, blockFromBatch(e, &b)))
	}
	bl := buildBlock("m00", srcs)
	got, err := DecodeBlock(EncodeBlock(bl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bl) {
		t.Errorf("round trip changed the block:\nin  %+v\nout %+v", bl, got)
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	b := procBatch("m00", 1)
	bl := buildBlock("m00", []*source{newSource(1, "", 0, true, blockFromBatch(1, &b))})
	raw := EncodeBlock(bl)
	for _, i := range []int{0, 9, 12, 20, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		if _, err := DecodeBlock(bad); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, err := DecodeBlock(raw[:len(raw)/2]); err == nil {
		t.Error("truncated block decoded")
	}
}

// TestSelectDeterminism pins Select's ordering contract: points sorted by
// (epoch, machine, workload, image, proc, event), with duplicate
// (labels, epoch) points — a re-scrape race — in ingestion order. The
// order must be a stable property of the data, identical across repeated
// queries, compaction, and reopen.
func TestSelectDeterminism(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, db, procBatch("m00", 1))
	mustAppend(t, db, procBatch("m00", 2))
	// A re-scrape race stores epoch 2 twice with different samples; the
	// first-ingested copy must stay first.
	dup := procBatch("m00", 2)
	dup.Records[0].Samples = 999
	mustAppend(t, db, dup)
	mustAppend(t, db, procBatch("m00", 3))
	mustAppend(t, db, procBatch("m01", 1))

	m := Matcher{AnyEvent: true, AnyProc: true, FromEpoch: 1, ToEpoch: 3}
	want := db.Select(m)
	raced := Labels{Machine: "m00", Workload: "x11perf", Image: "/usr/bin/X", Event: sim.EvCycles}
	var prev *Point
	dupSeen, sawRace := 0, false
	for i := range want {
		p := &want[i]
		if prev != nil {
			if p.Epoch < prev.Epoch {
				t.Fatalf("point %d: epoch %d after %d", i, p.Epoch, prev.Epoch)
			}
			if p.Epoch == prev.Epoch && p.Labels != prev.Labels && labelsLess(&p.Labels, &prev.Labels) {
				t.Fatalf("point %d: labels %+v after %+v", i, p.Labels, prev.Labels)
			}
			if p.Epoch == prev.Epoch && p.Labels == prev.Labels {
				dupSeen++
				if p.Labels == raced {
					// The only series whose two copies differ: the
					// first-ingested value must come first.
					if prev.Samples != 62 || p.Samples != 999 {
						t.Fatalf("duplicate order wrong: %d then %d (want 62 then 999)", prev.Samples, p.Samples)
					}
					sawRace = true
				}
			}
		}
		prev = p
	}
	if dupSeen != len(dup.Records) || !sawRace {
		t.Fatalf("saw %d duplicate pairs (want %d), raced series seen: %v", dupSeen, len(dup.Records), sawRace)
	}
	for i := 0; i < 10; i++ {
		if got := db.Select(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("repeat %d: Select order changed", i)
		}
	}
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	if got := db.Select(m); !reflect.DeepEqual(got, want) {
		t.Fatal("Select order changed after compaction")
	}
	db2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Select(m); !reflect.DeepEqual(got, want) {
		t.Fatal("Select order changed after reopen")
	}
}

// TestInBatchDuplicateLabels stores the same (image, proc, event) twice
// inside one batch, at image and at procedure level, and once more in a
// re-scrape of the same epoch: two series of one source that only their
// position tells apart, then one from a later source. Every query must
// see the copies in record-then-sequence order, and answer identically
// raw, reopened raw, compacted, and reopened compacted.
func TestInBatchDuplicateLabels(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := procBatch("m00", 1)
	first.Records = append(first.Records,
		Record{Image: "/usr/bin/X", Event: sim.EvCycles, Samples: 700, Insts: 11},
		Record{Image: "/usr/bin/X", Proc: "ffbFill", Event: sim.EvCycles, Samples: 500},
	)
	mustAppend(t, db, first)
	mustAppend(t, db, procBatch("m00", 2))
	rescrape := procBatch("m00", 1)
	rescrape.Records = []Record{{Image: "/usr/bin/X", Event: sim.EvCycles, Samples: 900}}
	mustAppend(t, db, rescrape)
	mustAppend(t, db, procBatch("m01", 1))

	type answers struct {
		sel    []Point
		rng    []RangeRow
		top    []TopRow
		procs  []ProcRow
		deltas any
	}
	query := func(db *DB) answers {
		return answers{
			sel:    db.Select(Matcher{AnyEvent: true, AnyProc: true}),
			rng:    RangeQuery(db, "/usr/bin/X", sim.EvCycles, 1, 2),
			top:    TopImages(db, sim.EvCycles, 1, 2, 10),
			procs:  TopProcs(db, "/usr/bin/X", sim.EvCycles, 1, 2, 10),
			deltas: TopDeltas(db, sim.EvCycles, 1, 1, 2, 2, 10),
		}
	}
	want := query(db)

	copies := func(lab Labels) (samples []uint64) {
		for _, p := range want.sel {
			if p.Labels == lab && p.Epoch == 1 {
				samples = append(samples, p.Samples)
			}
		}
		return samples
	}
	image := Labels{Machine: "m00", Workload: "x11perf", Image: "/usr/bin/X", Event: sim.EvCycles}
	if got := copies(image); !reflect.DeepEqual(got, []uint64{61, 700, 900}) {
		t.Errorf("image-level copies of epoch 1 = %v, want [61 700 900] (record, then sequence order)", got)
	}
	proc := image
	proc.Proc = "ffbFill"
	if got := copies(proc); !reflect.DeepEqual(got, []uint64{41, 500}) {
		t.Errorf("procedure-level copies of epoch 1 = %v, want [41 500]", got)
	}
	// m00's three copies plus m01's one point; both machines count once.
	if r := want.rng[0]; r.Epoch != 1 || r.Samples != 61+700+900+61 || r.Machines != 2 {
		t.Errorf("RangeQuery epoch 1 = %+v, want every copy summed over 2 machines", r)
	}
	if r := want.procs[0]; r.Proc != "ffbFill" || r.Samples != 41+500+42+41 {
		t.Errorf("TopProcs[0] = %+v, want ffbFill with both in-batch copies", r)
	}

	check := func(when string, db *DB) {
		t.Helper()
		got := query(db)
		if !reflect.DeepEqual(got.sel, want.sel) {
			t.Errorf("%s: Select changed:\ngot  %+v\nwant %+v", when, got.sel, want.sel)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: aggregate answers changed:\ngot  %+v\nwant %+v", when, got, want)
		}
	}
	reopen := func() *DB {
		t.Helper()
		db, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	check("raw, reopened", reopen())
	if st := mustCompact(t, db, CompactOptions{CompactAfter: 1}); st.SegmentsCompacted != 4 {
		t.Fatalf("compact stats: %+v", st)
	}
	check("compacted", db)
	check("compacted, reopened", reopen())
}

// TestCompactionByteIdentity requires every query to return identical
// results before and after compaction, across all query shapes and a
// reopen of the compacted store.
func TestCompactionByteIdentity(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const machines, epochs = 3, 8
	for m := 0; m < machines; m++ {
		for e := uint64(1); e <= epochs; e++ {
			mustAppend(t, db, procBatch(fmt.Sprintf("m%02d", m), e))
		}
	}
	type answers struct {
		sel    []Point
		rng    []RangeRow
		rngPrc []RangeRow
		top    []TopRow
		procs  []ProcRow
		deltas any
	}
	query := func(db *DB) answers {
		return answers{
			sel:    db.Select(Matcher{AnyEvent: true, AnyProc: true, FromEpoch: 1, ToEpoch: epochs}),
			rng:    RangeQuery(db, "/usr/bin/X", sim.EvCycles, 1, epochs),
			rngPrc: RangeQueryProc(db, "/usr/bin/X", "ffbFill", sim.EvCycles, 1, epochs),
			top:    TopImages(db, sim.EvCycles, 1, epochs, 10),
			procs:  TopProcs(db, "/usr/bin/X", sim.EvCycles, 1, epochs, 10),
			deltas: TopDeltas(db, sim.EvCycles, 1, epochs/2, epochs/2+1, epochs, 10),
		}
	}
	before := query(db)
	preStats := db.Stats()
	st := mustCompact(t, db, CompactOptions{CompactAfter: 1})
	if st.SegmentsCompacted != machines*epochs || st.BlocksWritten != machines {
		t.Fatalf("compact stats: %+v", st)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Errorf("compaction grew the store: %d -> %d bytes", st.BytesBefore, st.BytesAfter)
	}
	if !reflect.DeepEqual(query(db), before) {
		t.Fatal("query answers changed after compaction")
	}
	postStats := db.Stats()
	if postStats.Segments != 0 || postStats.Blocks != machines || postStats.Points != preStats.Points {
		t.Fatalf("store shape after compaction: %+v", postStats)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(query(db2), before) {
		t.Fatal("query answers changed after reopening the compacted store")
	}
}

// TestAppendRejectsConflictingMetadata pins the Append-time gate behind
// compaction's metadata canonicalization: re-appending a stored epoch is
// fine (duplicate points are the re-scrape-race contract) but only with
// identical wall/period, both against raw segments and against a block.
func TestAppendRejectsConflictingMetadata(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, db, procBatch("m00", 1))
	badWall := procBatch("m00", 1)
	badWall.Wall += 7
	if err := db.Append(badWall); err == nil {
		t.Error("conflicting wall accepted against a raw segment")
	}
	badPeriod := procBatch("m00", 1)
	badPeriod.Period = 999
	if err := db.Append(badPeriod); err == nil {
		t.Error("conflicting period accepted against a raw segment")
	}
	dup := procBatch("m00", 1)
	dup.Records[0].Samples = 999 // same metadata, different counts: allowed
	mustAppend(t, db, dup)
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	if err := db.Append(badWall); err == nil {
		t.Error("conflicting wall accepted against a block")
	}
	mustAppend(t, db, procBatch("m00", 1)) // identical metadata still fine
}

// TestCompactQuarantinesConflictingSegment plants an on-disk duplicate
// segment whose metadata disagrees with the first copy of its epoch —
// data Append refuses, but older files may carry. Compaction must
// quarantine it as .bad instead of silently canonicalizing its points'
// wall/period into the block.
func TestCompactQuarantinesConflictingSegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, db, procBatch("m00", 1))
	mustAppend(t, db, procBatch("m00", 2))
	conflict := procBatch("m00", 2)
	conflict.Wall += 7
	if err := os.WriteFile(filepath.Join(dir, segName(3)), EncodeSegment(&conflict), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perBatch := len(procBatch("m00", 1).Records)
	if got := db2.Stats(); got.Points != 3*perBatch {
		t.Fatalf("planted store holds %d points, want %d", got.Points, 3*perBatch)
	}
	want := db2.Select(Matcher{AnyEvent: true, AnyProc: true, ToEpoch: 1})
	st := mustCompact(t, db2, CompactOptions{CompactAfter: 1})
	if st.SegmentsCompacted != 2 {
		t.Errorf("compacted %d segments, want 2", st.SegmentsCompacted)
	}
	stats := db2.Stats()
	if stats.Quarantined != 1 || stats.Segments != 0 || stats.Blocks != 1 || stats.Points != 2*perBatch {
		t.Fatalf("stats after conflict quarantine: %+v", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(3)+".bad")); err != nil {
		t.Errorf("conflicting segment not quarantined: %v", err)
	}
	if got := db2.Select(Matcher{AnyEvent: true, AnyProc: true, ToEpoch: 1}); !reflect.DeepEqual(got, want) {
		t.Fatal("untouched epoch's answers changed")
	}
	if !db2.HasEpoch("m00", 2) {
		t.Error("the epoch's first copy was lost")
	}
}

func TestCompactGuards(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, db, procBatch("m00", 1))
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Compact(CompactOptions{CompactAfter: 1}); err == nil {
		t.Error("compacting a read-only store succeeded")
	}
}

// TestCrashMidCompaction simulates dying between a block's commit rename
// and the removal of its input segments: reopening must reclaim the
// leftover inputs so no point appears twice.
func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		mustAppend(t, db, procBatch("m00", e))
	}
	mustAppend(t, db, procBatch("m01", 1))
	m := Matcher{AnyEvent: true, AnyProc: true, FromEpoch: 1, ToEpoch: 3}
	want := db.Select(m)

	db.testCrashMidCompact = true
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	// The block and all its inputs now coexist on disk.
	names, _ := filepath.Glob(filepath.Join(dir, "*.tsdb"))
	if len(names) != 5 {
		t.Fatalf("%d files after simulated crash, want 5 (4 segments + 1 block)", len(names))
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	if st.Reclaimed != 3 || st.Segments != 1 || st.Blocks != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if got := db2.Select(m); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered store answers differently")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tsdb"))
	if len(left) != 2 {
		t.Fatalf("%d files after recovery, want 2", len(left))
	}
}

// TestEvictionWithBlocksAndQuarantine pins the size-cap interplay:
// compacted blocks are evicted oldest-epoch-first before newer data, and
// quarantined .bad files never count against the cap.
func TestEvictionWithBlocksAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 20; e++ {
		mustAppend(t, db, procBatch("m00", e))
	}
	mustCompact(t, db, CompactOptions{CompactAfter: 1}) // block A: epochs 1-20
	for e := uint64(21); e <= 40; e++ {
		mustAppend(t, db, procBatch("m00", e))
	}
	mustCompact(t, db, CompactOptions{CompactAfter: 1}) // block B: epochs 21-40
	size := db.Stats().SizeBytes

	// A fat quarantined file must not count against the cap: with the cap
	// set to the live size, reopening and appending one more epoch must
	// evict only the oldest block, not everything.
	if err := os.WriteFile(filepath.Join(dir, segName(99)+".bad"), make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{MaxBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats(); got.SizeBytes != size || got.Blocks != 2 {
		t.Fatalf("reopen counted quarantine against the store: %+v", got)
	}
	mustAppend(t, db2, procBatch("m00", 41))
	st := db2.Stats()
	if st.Evicted != 1 || st.Blocks != 1 || st.Segments != 1 {
		t.Fatalf("eviction stats: %+v", st)
	}
	if db2.HasEpoch("m00", 20) {
		t.Error("oldest block not evicted")
	}
	if !db2.HasEpoch("m00", 21) || !db2.HasEpoch("m00", 40) || !db2.HasEpoch("m00", 41) {
		t.Error("eviction took newer data")
	}
	if _, err := os.Stat(filepath.Join(dir, segName(99)+".bad")); err != nil {
		t.Errorf("quarantined file touched by eviction: %v", err)
	}
}
