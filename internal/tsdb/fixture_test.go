package tsdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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

// fixtureBlock is the raw block of epochs 1, 2, 3 and 5: the gap leaves the
// downsampled form (factor 2) with a partial last bucket.
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
// change adds a new file under a new version.
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

	for name, want := range map[string]*block{
		"block_raw.tsdb": fixtureBlock(),
		"block_ds2.tsdb": downsampleBlock(fixtureBlock(), 2),
	} {
		raw := read(name)
		bl, err := DecodeBlock(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(bl, want) {
			t.Errorf("%s decoded to %+v, want %+v", name, bl, want)
		}
		if got := EncodeBlock(bl); !bytes.Equal(got, raw) {
			t.Errorf("%s re-encodes to different bytes:\n got %x\nwant %x", name, got, raw)
		}
	}
}
