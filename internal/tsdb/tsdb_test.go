package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/sim"
)

func testBatch(machine string, epoch uint64) Batch {
	return Batch{
		Machine:  machine,
		Workload: "wave5",
		Epoch:    epoch,
		Wall:     1_000_000,
		Period:   62000,
		Records: []Record{
			{Image: "/usr/bin/wave5", Event: sim.EvCycles, Samples: 100 + epoch, Insts: 5000},
			{Image: "/usr/bin/wave5", Event: sim.EvIMiss, Samples: 7},
			{Image: "/kernel", Event: sim.EvCycles, Samples: 31 + epoch},
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	b := testBatch("m00", 3)
	got, err := DecodeSegment(EncodeSegment(&b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, b) {
		t.Errorf("round trip changed batch:\nin  %+v\nout %+v", b, *got)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	b := testBatch("m00", 1)
	raw := EncodeSegment(&b)
	for _, i := range []int{0, 9, 12, 20, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		if _, err := DecodeSegment(bad); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, err := DecodeSegment(raw[:len(raw)/2]); err == nil {
		t.Error("truncated segment decoded")
	}
}

func TestAppendReopenQuarantine(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 4; e++ {
		if err := db.Append(testBatch("m00", e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Append(testBatch("m01", 1)); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats(); got.Segments != 5 || got.Points != 15 {
		t.Fatalf("stats after append: %+v", got)
	}
	if !db.HasEpoch("m00", 3) || db.HasEpoch("m00", 9) || db.HasEpoch("m01", 2) {
		t.Error("HasEpoch wrong")
	}
	if got := db.MaxEpoch("m00"); got != 4 {
		t.Errorf("MaxEpoch(m00) = %d, want 4", got)
	}

	// Corrupt one segment and leave a stale temp file; reopen must
	// quarantine the former, delete the latter, and keep everything else.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(9)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	if st.Segments != 4 || st.Quarantined != 1 {
		t.Fatalf("stats after corrupt reopen: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(2)+".bad")); err != nil {
		t.Errorf("corrupt segment not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(9)+".tmp")); !os.IsNotExist(err) {
		t.Error("stale temp file survived reopen")
	}
	// The quarantined epoch is gone from the index; the rest remain.
	if db2.HasEpoch("m00", 2) {
		t.Error("quarantined segment still queryable")
	}
	if !db2.HasEpoch("m00", 4) || !db2.HasEpoch("m01", 1) {
		t.Error("intact segments lost on reopen")
	}
	// New appends resume past the highest surviving sequence number.
	if err := db2.Append(testBatch("m02", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(6))); err != nil {
		t.Errorf("append after reopen did not take seq 6: %v", err)
	}
}

// TestQuarantineKeepsItsSequence quarantines the newest segment twice in a
// row. The first .bad file must still hold its sequence: the next append
// takes a new one, and the second quarantine leaves both post-mortem
// copies.
func TestQuarantineKeepsItsSequence(t *testing.T) {
	dir := t.TempDir()
	glob := func(pattern string) []string {
		names, _ := filepath.Glob(filepath.Join(dir, pattern)) // sorted: sequences are zero-padded
		for i, name := range names {
			names[i] = filepath.Base(name)
		}
		return names
	}
	// quarantineNewest overwrites the newest segment with garbage and opens
	// the store twice, the first time quarantining the segment and the
	// second finding only its .bad file, then appends epoch 3.
	quarantineNewest := func(garbage string) {
		t.Helper()
		segs := glob("seg-*.tsdb")
		if err := os.WriteFile(filepath.Join(dir, segs[len(segs)-1]), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		var db *DB
		for range 2 {
			var err error
			if db, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Append(testBatch("m00", 3)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		if err := db.Append(testBatch("m00", e)); err != nil {
			t.Fatal(err)
		}
	}
	quarantineNewest("first")
	quarantineNewest("second")
	var held []string
	for _, name := range glob("*.bad") {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, string(raw))
	}
	if want := []string{"first", "second"}; !reflect.DeepEqual(held, want) {
		t.Errorf("the quarantined files hold %q, want %q", held, want)
	}
	if got, want := glob("seg-*.tsdb"), []string{segName(1), segName(4)}; !reflect.DeepEqual(got, want) {
		t.Errorf("live segments %v, want %v", got, want)
	}
}

func TestRetentionCap(t *testing.T) {
	dir := t.TempDir()
	probe, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Append(testBatch("m00", 1)); err != nil {
		t.Fatal(err)
	}
	segBytes := probe.Stats().SizeBytes

	dir2 := t.TempDir()
	db, err := Open(dir2, Options{MaxBytes: 3 * segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 10; e++ {
		if err := db.Append(testBatch("m00", e)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Segments != 3 || st.Evicted != 7 {
		t.Fatalf("retention kept %d segments, evicted %d (want 3, 7)", st.Segments, st.Evicted)
	}
	// Oldest epochs were dropped, newest kept.
	if db.HasEpoch("m00", 1) || !db.HasEpoch("m00", 10) {
		t.Error("retention evicted the wrong end")
	}
	entries, _ := os.ReadDir(dir2)
	var segs int
	for _, e := range entries {
		if _, isBlock, ok := parseFileName(e.Name()); ok && !isBlock {
			segs++
		}
	}
	if segs != 3 {
		t.Errorf("%d segment files on disk, want 3", segs)
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(testBatch("m00", 1)); err != nil {
		t.Fatal(err)
	}
	// Plant corruption: a read-only open must index around it without
	// renaming (the collector owning the directory does the quarantine).
	if err := os.WriteFile(filepath.Join(dir, segName(7)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Append(testBatch("m00", 2)); err == nil {
		t.Error("append on read-only store succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, segName(7))); err != nil {
		t.Errorf("read-only open renamed the corrupt segment: %v", err)
	}
	if !ro.HasEpoch("m00", 1) {
		t.Error("read-only open lost intact data")
	}
}

func buildFleet(t *testing.T, machines int, epochs uint64) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < machines; m++ {
		for e := uint64(1); e <= epochs; e++ {
			b := Batch{
				Machine:  fmt.Sprintf("m%02d", m),
				Workload: "wave5",
				Epoch:    e,
				Wall:     2_000_000,
				Period:   60000,
				Records: []Record{
					{Image: "/usr/bin/wave5", Event: sim.EvCycles, Samples: 10 * e, Insts: 1000 * e},
					{Image: "/kernel", Event: sim.EvCycles, Samples: 5, Insts: 100},
					{Image: "/usr/bin/wave5", Event: sim.EvIMiss, Samples: 1},
				},
			}
			if err := db.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestRangeQuery(t *testing.T) {
	db := buildFleet(t, 4, 5)
	rows := RangeQuery(db, "/usr/bin/wave5", sim.EvCycles, 2, 4)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		e := uint64(2 + i)
		wantSamples := 4 * 10 * e
		wantInsts := 4 * 1000 * e
		if r.Epoch != e || r.Machines != 4 || r.Samples != wantSamples || r.Insts != wantInsts {
			t.Errorf("row %d = %+v, want epoch %d machines 4 samples %d insts %d",
				i, r, e, wantSamples, wantInsts)
		}
		wantCPI := (float64(wantSamples) * 60000) / float64(wantInsts)
		if r.CPI != wantCPI {
			t.Errorf("epoch %d CPI = %v, want %v", e, r.CPI, wantCPI)
		}
		wantShare := 100 * float64(10*e) / float64(10*e+5)
		if diff := r.SharePct - wantShare; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("epoch %d share = %v, want %v", e, r.SharePct, wantShare)
		}
	}
}

func TestTopImagesAndDeltas(t *testing.T) {
	db := buildFleet(t, 2, 6)
	top := TopImages(db, sim.EvCycles, 1, 6, 0)
	if len(top) != 2 || top[0].Image != "/usr/bin/wave5" || top[1].Image != "/kernel" {
		t.Fatalf("top images: %+v", top)
	}
	// wave5 samples grow with epoch while kernel's are flat, so wave5's
	// share rises from window A (epochs 1-3) to window B (epochs 4-6).
	deltas := TopDeltas(db, sim.EvCycles, 1, 3, 4, 6, 0)
	if len(deltas) != 2 {
		t.Fatalf("deltas: %+v", deltas)
	}
	var wave, kernel float64
	for _, d := range deltas {
		switch d.Name {
		case "/usr/bin/wave5":
			wave = d.Delta()
		case "/kernel":
			kernel = d.Delta()
		}
	}
	if wave <= 0 || kernel >= 0 {
		t.Errorf("delta directions wrong: wave5 %+.2f kernel %+.2f", wave, kernel)
	}
}

// Append used to check two fields and durably write the rest: a batch with
// a negative period or an over-long label was accepted, served by Select,
// and quarantined — its points gone — on the next Open. Each must be
// refused up front and leave nothing on disk.
func TestAppendRefusesWhatOpenWouldQuarantine(t *testing.T) {
	bad := map[string]func(*Batch){
		"no machine":      func(b *Batch) { b.Machine = "" },
		"epoch 0":         func(b *Batch) { b.Epoch = 0 },
		"negative period": func(b *Batch) { b.Period = -1 },
		"NaN period":      func(b *Batch) { b.Period = math.NaN() },
		"infinite period": func(b *Batch) { b.Period = math.Inf(1) },
		"long machine":    func(b *Batch) { b.Machine = strings.Repeat("m", maxStringLen+1) },
		"long workload":   func(b *Batch) { b.Workload = strings.Repeat("w", maxStringLen+1) },
		"long image":      func(b *Batch) { b.Records[1].Image = strings.Repeat("i", 70_000) },
		"long proc":       func(b *Batch) { b.Records[2].Proc = strings.Repeat("p", maxStringLen+1) },
		"bad event":       func(b *Batch) { b.Records[0].Event = sim.NumEvents },
	}
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range bad {
		b := testBatch("m00", 1)
		breakIt(&b)
		if err := db.Append(b); err == nil {
			t.Errorf("%s: Append accepted the batch", name)
		}
		if _, err := DecodeSegment(EncodeSegment(&b)); err == nil {
			t.Errorf("%s: DecodeSegment accepted the batch", name)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("refused batches left %d files behind", len(files))
	}
	if st := db.Stats(); st.Points != 0 || st.Segments != 0 {
		t.Errorf("refused batches were indexed: %+v", st)
	}
	// A label of exactly the cap is fine.
	edge := testBatch("m00", 1)
	edge.Records[0].Image = strings.Repeat("i", maxStringLen)
	mustAppend(t, db, edge)
}

// Whatever Append accepts, the next Open reads back: random batches —
// hostile periods, labels around the cap, any event byte — either fail
// Append or survive a reopen with every point and no quarantine.
func TestAppendAcceptsOnlyWhatReopens(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	label := func() string {
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("x", maxStringLen-1+rng.Intn(3))
		default:
			return fmt.Sprintf("/l%d", rng.Intn(5))
		}
	}
	periods := []float64{0, 1, 62000.5, math.MaxFloat64, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accepted, points := 0, 0
	for i := 0; i < 300; i++ {
		b := Batch{
			Machine:  label(),
			Workload: label(),
			Epoch:    uint64(rng.Intn(3)) * uint64(i+1), // 0, or distinct per batch
			Wall:     rng.Int63() - rng.Int63(),
			Period:   periods[rng.Intn(len(periods))],
			Records:  make([]Record, rng.Intn(4)),
		}
		for j := range b.Records {
			b.Records[j] = Record{
				Image: label(), Proc: label(), Event: sim.Event(rng.Intn(int(sim.NumEvents) + 2)),
				Samples: rng.Uint64(), Insts: rng.Uint64(),
			}
		}
		if db.Append(b) == nil {
			accepted++
			points += len(b.Records)
		}
	}
	if accepted < 20 || accepted > 280 {
		t.Fatalf("generator is lopsided: %d of 300 batches accepted", accepted)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := db2.Stats(); st.Quarantined != 0 || st.Segments != accepted || st.Points != points {
		t.Errorf("reopen: %+v, want %d segments, %d points, none quarantined", st, accepted, points)
	}
}
