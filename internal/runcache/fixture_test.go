package runcache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The fixed inputs the committed fixtures were recorded from (at the commit
// before the codecs moved onto internal/wire). The archive's entries are
// given out of key order; the file holds them sorted.
const fixtureStamp = "sim-fixture/snap-3"

var fixtureEntries = []Entry{
	{Key: "w=gcc|scale=0.1|mode=2", Blob: []byte("second run's snapshot blob")},
	{Key: "w=compress|scale=0.1", Blob: []byte{0, 1, 2, 0xff, 0x80}},
	{Key: "w=li", Blob: nil},
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFixtures pins the entry and archive formats to bytes on disk: each
// committed file must decode to its fixed input and re-encode to itself.
// The fixtures are compatibility evidence, not goldens to refresh: a format
// change adds a new file under a new formatVersion.
func TestFixtures(t *testing.T) {
	raw := readFixture(t, "entry.run")
	want := fixtureEntries[0]
	key, payload, err := decodeEntry(raw, fixtureStamp)
	if err != nil {
		t.Fatalf("entry.run: %v", err)
	}
	if key != want.Key || !bytes.Equal(payload, want.Blob) {
		t.Errorf("entry.run decoded to (%q, %q), want (%q, %q)", key, payload, want.Key, want.Blob)
	}
	if got := encodeEntry(fixtureStamp, key, payload); !bytes.Equal(got, raw) {
		t.Errorf("entry.run re-encodes to different bytes:\n got %x\nwant %x", got, raw)
	}

	raw = readFixture(t, "archive.shard")
	stamp, entries, err := decodeArchive(raw, "")
	if err != nil {
		t.Fatalf("archive.shard: %v", err)
	}
	sorted := []Entry{fixtureEntries[1], fixtureEntries[0], {Key: "w=li", Blob: []byte{}}}
	if stamp != fixtureStamp || !reflect.DeepEqual(entries, sorted) {
		t.Errorf("archive.shard decoded to (%q, %+v), want (%q, %+v)", stamp, entries, fixtureStamp, sorted)
	}
	if got := encodeArchive(stamp, entries); !bytes.Equal(got, raw) {
		t.Errorf("archive.shard re-encodes to different bytes:\n got %x\nwant %x", got, raw)
	}
}
