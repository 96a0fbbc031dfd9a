package runcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The fixed input the committed fixture was recorded from (at the commit
// before the codecs moved onto internal/wire).
const (
	fixtureStamp = "sim-fixture/snap-3"
	fixtureKey   = "w=gcc|scale=0.1|mode=2"
	fixtureBlob  = "second run's snapshot blob"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFixtures pins the entry format to bytes on disk: the committed file
// must decode to its fixed input and re-encode to itself. The fixture is
// compatibility evidence, not a golden to refresh: a format change adds a
// new file under a new formatVersion.
func TestFixtures(t *testing.T) {
	raw := readFixture(t, "entry.run")
	key, payload, err := decodeEntry(raw, fixtureStamp)
	if err != nil {
		t.Fatalf("entry.run: %v", err)
	}
	if key != fixtureKey || string(payload) != fixtureBlob {
		t.Errorf("entry.run decoded to (%q, %q), want (%q, %q)", key, payload, fixtureKey, fixtureBlob)
	}
	if got := encodeEntry(fixtureStamp, key, payload); !bytes.Equal(got, raw) {
		t.Errorf("entry.run re-encodes to different bytes:\n got %x\nwant %x", got, raw)
	}
}
