package profiledb

import (
	"bytes"
	"reflect"
	"testing"

	"dcpi/internal/sim"
)

// FuzzProfileDecode feeds arbitrary bytes to the .prof reader. The reader
// must never panic or over-allocate on corrupt input — the database's
// recovery pass depends on it failing cleanly on torn files — and any
// input it does accept must survive a re-encode/decode round trip.
func FuzzProfileDecode(f *testing.F) {
	p := NewProfile("/bin/app", sim.EvCycles)
	p.Add(0x1000, 42)
	p.Add(0x1004, 1)
	p.Add(0x2abc, 1<<40)
	var v1, v2 bytes.Buffer
	if err := p.Write(&v1); err != nil {
		f.Fatal(err)
	}
	if err := p.WriteCompressed(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v1.Bytes()[:10])       // truncated header
	f.Add([]byte("not a .prof")) // bad magic
	flipped := append([]byte(nil), v1.Bytes()...)
	flipped[len(flipped)-2] ^= 0xff // corrupt payload
	f.Add(flipped)
	for _, tc := range malformedProfiles() {
		f.Add(tc.in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return // rejected cleanly — fine
		}
		var out bytes.Buffer
		if err := p.Write(&out); err != nil {
			t.Fatalf("re-encoding accepted profile: %v", err)
		}
		q, err := DecodeProfile(out.Bytes())
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if q.ImagePath != p.ImagePath || q.Event != p.Event || !reflect.DeepEqual(q.Counts, p.Counts) {
			t.Errorf("round trip changed the profile:\nfirst  %q ev=%d %v\nsecond %q ev=%d %v",
				p.ImagePath, p.Event, p.Counts, q.ImagePath, q.Event, q.Counts)
		}
	})
}
