package profiledb

import (
	"bytes"
	"compress/flate"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

// bigProfile mimics a real profile's structure: instructions within a basic
// block share nearly the same sample count (S ≈ f·M), and a few hot blocks
// dominate — which is what makes the compressed format effective.
func bigProfile() *Profile {
	p := NewProfile("/usr/shlib/libbig.so", sim.EvCycles)
	x := uint64(12345)
	off := uint64(0)
	for block := 0; block < 2500; block++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		blockFreq := []uint64{1, 2, 3, 5, 40, 41, 500}[x%7]
		blockLen := 4 + int(x%9)
		for i := 0; i < blockLen; i++ {
			jitter := (x >> uint(i%3)) % 3
			p.Add(off, blockFreq+jitter)
			off += 4
		}
	}
	return p
}

func TestCompressedRoundTrip(t *testing.T) {
	p := bigProfile()
	var buf bytes.Buffer
	if err := p.WriteCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ImagePath != p.ImagePath || got.Event != p.Event {
		t.Errorf("header = %s/%v", got.ImagePath, got.Event)
	}
	if len(got.Counts) != len(p.Counts) {
		t.Fatalf("counts = %d, want %d", len(got.Counts), len(p.Counts))
	}
	for off, n := range p.Counts {
		if got.Counts[off] != n {
			t.Fatalf("count[%d] = %d, want %d", off, got.Counts[off], n)
		}
	}
}

func TestCompressedSmaller(t *testing.T) {
	// The paper's claim: roughly a factor of three smaller.
	p := bigProfile()
	var plain, compressed bytes.Buffer
	if err := p.Write(&plain); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCompressed(&compressed); err != nil {
		t.Fatal(err)
	}
	ratio := float64(plain.Len()) / float64(compressed.Len())
	t.Logf("plain %d bytes, compressed %d bytes, ratio %.2fx", plain.Len(), compressed.Len(), ratio)
	if ratio < 1.5 {
		t.Errorf("compression ratio = %.2f, want meaningful savings", ratio)
	}
}

func TestCompressedPropertyRoundTrip(t *testing.T) {
	f := func(offsets []uint32, counts []uint16) bool {
		p := NewProfile("/bin/q", sim.EvIMiss)
		for i, off := range offsets {
			n := uint64(1)
			if len(counts) > 0 {
				n = uint64(counts[i%len(counts)]) + 1
			}
			p.Add(uint64(off), n)
		}
		var buf bytes.Buffer
		if err := p.WriteCompressed(&buf); err != nil {
			return false
		}
		got, err := DecodeProfile(buf.Bytes())
		if err != nil || len(got.Counts) != len(p.Counts) {
			return false
		}
		for off, n := range p.Counts {
			if got.Counts[off] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompressedTruncated(t *testing.T) {
	p := bigProfile()
	var buf bytes.Buffer
	if err := p.WriteCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := DecodeProfile(trunc); err == nil {
		t.Error("truncated compressed profile accepted")
	}
}

// createFile creates a file, making parent directories as needed.
func createFile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

func TestVersionsInteroperateInDB(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Write a compressed file directly where the DB expects the profile,
	// then Update must read it (version dispatch) and merge on top.
	p := NewProfile("/bin/app", sim.EvCycles)
	p.Add(8, 3)
	f, err := createFile(db.Path("/bin/app", sim.EvCycles))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCompressed(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q := NewProfile("/bin/app", sim.EvCycles)
	q.Add(8, 2)
	if err := db.Update(q); err != nil {
		t.Fatal(err)
	}
	got, err := db.Load("/bin/app", sim.EvCycles)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts[8] != 5 {
		t.Errorf("merged = %d, want 5", got.Counts[8])
	}
}

// deflated returns a version-2 file whose header declares rawLen bytes and
// whose stream holds payload.
func deflated(rawLen uint64, payload []byte) []byte {
	e := wire.Enc{B: appendHeader(nil, VersionCompressed, sim.EvCycles)}
	e.Uvarint(rawLen)
	var z bytes.Buffer
	fw, _ := flate.NewWriter(&z, flate.BestCompression)
	fw.Write(payload)
	fw.Close()
	return append(e.B, z.Bytes()...)
}

type namedInput struct {
	name string
	in   []byte
}

// malformedProfiles are inputs the writer never emits and the decoder must
// refuse (also FuzzProfileDecode seeds).
func malformedProfiles() []namedInput {
	pairs := func(version uint16, deltas ...uint64) []byte {
		e := wire.Enc{B: appendHeader(nil, version, sim.EvCycles)}
		e.Str("/bin/app")
		e.Count(len(deltas))
		for _, d := range deltas {
			e.Uvarint(d)
			e.Uvarint(1) // count
		}
		return e.B
	}
	good := pairs(Version, 8, 4)[12:] // a well-formed payload of 13 bytes
	return []namedInput{
		{"empty stream claiming 1 GiB", append(appendHeader(nil, VersionCompressed, sim.EvCycles), 0x80, 0x80, 0x80, 0x80, 0x04)},
		{"repeated offset", pairs(Version, 8, 0)},
		{"repeated offset zero", pairs(Version, 0, 0)},
		{"wrapping offset", pairs(Version, 8, ^uint64(0))},
		{"stream shorter than header", deflated(uint64(len(good))+1, good)},
		{"stream longer than header", deflated(uint64(len(good))-1, good)},
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, tc := range malformedProfiles() {
		if p, err := DecodeProfile(tc.in); err == nil {
			t.Errorf("%s: decoded to %+v", tc.name, p)
		}
	}
	// The same shapes, well-formed: a first offset of zero, and a stream of
	// exactly the declared length.
	good := wire.Enc{B: appendHeader(nil, Version, sim.EvCycles)}
	good.Str("/bin/app")
	good.Count(2)
	for _, v := range []uint64{0, 7, 4, 9} {
		good.Uvarint(v)
	}
	for name, in := range map[string][]byte{
		"v1": good.B,
		"v2": deflated(uint64(len(good.B)-12), good.B[12:]),
	} {
		p, err := DecodeProfile(in)
		if err != nil || len(p.Counts) != 2 || p.Counts[0] != 7 || p.Counts[4] != 9 {
			t.Errorf("%s: decoded to %+v, %v; want offsets 0 and 4", name, p, err)
		}
	}
}

// Seventeen bytes of file used to allocate the gigabyte their header
// declared before noticing the stream behind it was empty; DB.Recover runs
// this decoder over torn files and DecodeSnapshot over files from other
// machines.
func TestCompressedHeaderCannotSizeAllocation(t *testing.T) {
	in := malformedProfiles()[0].in // the empty stream claiming 1 GiB
	if len(in) != 17 {
		t.Fatalf("input is %d bytes, want the 17-byte case", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeProfile(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("empty stream decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("decoding 17 bytes allocated %d bytes, want < 1 MiB", grew)
	}
}
