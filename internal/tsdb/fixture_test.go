package tsdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/sim"
)

// fixtureBatch is the fixed input the committed segment and block fixtures
// were recorded from (at the commit before the codecs moved onto
// internal/wire). Wall and period vary by epoch so every delta column of a
// block carries a non-zero value.
func fixtureBatch(epoch uint64) Batch {
	return Batch{
		Machine:  "m00",
		Workload: "fixture",
		Epoch:    epoch,
		Wall:     2_000_000 - 1000*int64(epoch),
		Period:   62000 + float64(epoch)/2,
		Records: []Record{
			{Image: "/usr/bin/app", Event: sim.EvCycles, Samples: 60 + epoch, Insts: 9000},
			{Image: "/usr/bin/app", Proc: "main", Event: sim.EvCycles, Samples: 40 - epoch},
			{Image: "/kernel", Event: sim.EvDMiss, Samples: 1 << 33},
			{Image: "", Event: sim.EvIMiss, Insts: 1 << 40},
		},
	}
}

// fixtureBlock is the block of epochs 1, 2, 3 and 5, consuming segments
// 11 to 15. block_ds2.tsdb is what earlier builds wrote when they rewrote
// it as per-2-epoch aggregates.
func fixtureBlock() *block {
	var srcs []*source
	for _, e := range []uint64{1, 2, 3, 5} {
		b := fixtureBatch(e)
		srcs = append(srcs, newSource(10+e, "", 0, true, blockFromBatch(10+e, &b)))
	}
	return buildBlock("m00", srcs)
}

// TestFixtures pins the segment and block formats to bytes on disk: each
// committed file must decode to its fixed input and re-encode to itself.
// The fixtures are compatibility evidence, not goldens to refresh: a format
// change adds a new file under a new version. block_ds2.tsdb, a downsampled
// block from an earlier build, must be refused, and a store that holds it
// beside the raw block it replaced (what a crash mid-downsample left) must
// quarantine it and answer from the raw block alone.
func TestFixtures(t *testing.T) {
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	raw := read("segment.tsdb")
	b, err := DecodeSegment(raw)
	if err != nil {
		t.Fatalf("segment.tsdb: %v", err)
	}
	if want := fixtureBatch(7); !reflect.DeepEqual(*b, want) {
		t.Errorf("segment.tsdb decoded to %+v, want %+v", *b, want)
	}
	if got := EncodeSegment(b); !bytes.Equal(got, raw) {
		t.Errorf("segment.tsdb re-encodes to different bytes:\n got %x\nwant %x", got, raw)
	}

	rawBlock := read("block_raw.tsdb")
	bl, err := DecodeBlock(rawBlock)
	if err != nil {
		t.Fatalf("block_raw.tsdb: %v", err)
	}
	if want := fixtureBlock(); !reflect.DeepEqual(bl, want) {
		t.Errorf("block_raw.tsdb decoded to %+v, want %+v", bl, want)
	}
	if got := EncodeBlock(bl); !bytes.Equal(got, rawBlock) {
		t.Errorf("block_raw.tsdb re-encodes to different bytes:\n got %x\nwant %x", got, rawBlock)
	}

	ds2 := read("block_ds2.tsdb")
	if _, err := DecodeBlock(ds2); err == nil || !strings.Contains(err.Error(), "factor 2") {
		t.Errorf("block_ds2.tsdb: decode error %v, want one naming factor 2", err)
	}
	open := func(files map[string][]byte) (*DB, string) {
		dir := t.TempDir()
		for name, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db, dir
	}
	// An earlier build's downsampling committed the aggregate under the
	// next sequence before unlinking the raw block it rewrote.
	rawName, dsName := blkName(16), blkName(17)
	mixed, dir := open(map[string][]byte{rawName: rawBlock, dsName: ds2})
	alone, _ := open(map[string][]byte{rawName: rawBlock})
	if _, err := os.Stat(filepath.Join(dir, dsName+".bad")); err != nil {
		t.Errorf("downsampled block not quarantined: %v", err)
	}
	if st := mixed.Stats(); st.Quarantined != 1 || st.Reclaimed != 0 || st.Blocks != 1 || st.Points != bl.points {
		t.Errorf("store with a downsampled block: %+v, want 1 quarantined, the raw block live", st)
	}
	for _, q := range []struct {
		image    string
		ev       sim.Event
		from, to uint64
	}{
		{"/usr/bin/app", sim.EvCycles, 1, 5},
		{"/usr/bin/app", sim.EvCycles, 2, 3},
		{"/kernel", sim.EvDMiss, 0, 0},
	} {
		got, want := RangeQuery(mixed, q.image, q.ev, q.from, q.to), RangeQuery(alone, q.image, q.ev, q.from, q.to)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("RangeQuery%v = %+v beside the downsampled block, %+v from the raw block alone", q, got, want)
		}
	}
}
