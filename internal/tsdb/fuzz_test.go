package tsdb

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcpi/internal/sim"
)

// FuzzTSDBSegmentDecode feeds arbitrary bytes to the segment decoder. The
// decoder must never panic or over-allocate on corrupt input — a damaged
// segment has to fail cleanly so Open can quarantine it — and any input it
// does accept must survive an encode/decode round trip.
func FuzzTSDBSegmentDecode(f *testing.F) {
	seed := Batch{
		Machine:  "m07",
		Workload: "x11perf",
		Epoch:    42,
		Wall:     3_456_789,
		Period:   62000,
		Records: []Record{
			{Image: "/usr/bin/X", Event: sim.EvCycles, Samples: 1234, Insts: 99999},
			{Image: "/kernel", Event: sim.EvIMiss, Samples: 7},
			{Image: "", Event: sim.EvDTBMiss, Samples: 0, Insts: 1 << 40},
		},
	}
	buf := EncodeSegment(&seed)
	f.Add(buf)
	f.Add(buf[:13])                // truncated header
	f.Add(buf[:20])                // truncated payload
	f.Add([]byte("not a segment")) // bad magic
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)-1] ^= 0xff // corrupt payload (CRC must catch it)
	f.Add(flipped)
	f.Add(EncodeSegment(&Batch{Machine: "m", Workload: "w"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSegment(data)
		if err != nil {
			return // rejected cleanly — fine
		}
		q, err := DecodeSegment(EncodeSegment(b))
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		// Records of length 0 and nil compare unequal under DeepEqual but
		// are the same segment.
		if len(b.Records) == 0 {
			b.Records, q.Records = nil, nil
		}
		if !reflect.DeepEqual(q, b) {
			t.Errorf("round trip changed the batch:\nfirst  %+v\nsecond %+v", b, q)
		}
	})
}

// FuzzTSDBBlockDecode feeds arbitrary bytes to the block decoder, which
// guards a much richer invariant set than segments (delta-coded epoch
// metadata, sorted string table, ascending series, column/metadata
// joins). Corrupt input must fail cleanly without panics or huge
// allocations; accepted input must survive an encode/decode round trip.
func FuzzTSDBBlockDecode(f *testing.F) {
	var srcs []*source
	for e := uint64(1); e <= 3; e++ {
		b := Batch{
			Machine:  "m04",
			Workload: "timeshare",
			Epoch:    e,
			Wall:     2_000_000 + int64(e),
			Period:   62000,
			Records: []Record{
				{Image: "/usr/bin/app", Event: sim.EvCycles, Samples: 40 + e, Insts: 7000},
				{Image: "/usr/bin/app", Proc: "main", Event: sim.EvCycles, Samples: 40 + e},
				{Image: "/kernel", Event: sim.EvDMiss, Samples: e},
			},
		}
		srcs = append(srcs, newSource(e, "", 0, true, blockFromBatch(e, &b)))
	}
	raw := buildBlock("m04", srcs)
	rawBytes := EncodeBlock(raw)
	f.Add(rawBytes)
	ds2, err := os.ReadFile(filepath.Join("testdata", "block_ds2.tsdb")) // refused: downsampled
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ds2)
	f.Add(rawBytes[:13])         // truncated header
	f.Add(rawBytes[:25])         // truncated payload
	f.Add([]byte("not a block")) // bad magic
	flipped := append([]byte(nil), rawBytes...)
	flipped[len(flipped)-1] ^= 0xff // corrupt payload (CRC must catch it)
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return // rejected cleanly — fine
		}
		q, err := DecodeBlock(EncodeBlock(b))
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if !reflect.DeepEqual(q, b) {
			t.Errorf("round trip changed the block:\nfirst  %+v\nsecond %+v", b, q)
		}
	})
}
