package profiledb

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcpi/internal/sim"
)

// fixtureProfile is the fixed input the committed .prof fixtures were
// recorded from (at the commit before the codecs moved onto internal/wire).
func fixtureProfile() *Profile {
	p := NewProfile("/usr/bin/fixture", sim.EvIMiss)
	p.Add(0, 1)
	p.Add(4, 300)
	p.Add(0x1000, 70000)
	p.Add(1<<40, 5)
	return p
}

// TestFixtures pins both profile formats to bytes on disk: each committed
// file must decode to fixtureProfile and re-encode to itself. The fixtures
// are compatibility evidence, not goldens to refresh: a format change adds
// a new file under a new version and keeps these decoding.
func TestFixtures(t *testing.T) {
	for _, tc := range []struct {
		file   string
		encode func(*Profile, io.Writer) error
	}{
		{"profile_v1.prof", (*Profile).Write},
		{"profile_v2.prof", (*Profile).WriteCompressed},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodeProfile(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if !reflect.DeepEqual(p, fixtureProfile()) {
			t.Errorf("%s decoded to %+v, want %+v", tc.file, p, fixtureProfile())
		}
		var got bytes.Buffer
		if err := tc.encode(p, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s re-encodes to different bytes:\n got %x\nwant %x", tc.file, got.Bytes(), want)
		}
	}
}
