package runcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder: a damaged
// entry must fail cleanly (Get quarantines it), and whatever is accepted
// must survive its own codec. The committed corpus (testdata/fuzz) holds
// the entry fixture and a truncated-varint case.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, payload, err := decodeEntry(raw, fixtureStamp)
		if err != nil {
			return
		}
		key2, payload2, err := decodeEntry(encodeEntry(fixtureStamp, key, payload), fixtureStamp)
		if err != nil || key2 != key || !bytes.Equal(payload2, payload) {
			t.Fatalf("accepted entry (%q, %q) re-decodes to (%q, %q), %v", key, payload, key2, payload2, err)
		}
	})
}

// FuzzReadArchive feeds arbitrary bytes to the archive decoder, which reads
// files that travel between machines: no panic, no allocation sized by a
// count the input cannot back, and accepted archives survive a round trip.
func FuzzReadArchive(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		stamp, entries, err := decodeArchive(raw, "")
		if err != nil {
			return
		}
		if len(entries) > len(raw) {
			t.Fatalf("%d entries out of %d bytes", len(entries), len(raw))
		}
		stamp2, entries2, err := decodeArchive(encodeArchive(stamp, entries), stamp)
		if err != nil || stamp2 != stamp || len(entries2) != len(entries) {
			t.Fatalf("accepted archive re-decodes to %d entries under %q: %v", len(entries2), stamp2, err)
		}
		// Re-encoding sorts; an accepted archive need not have been sorted,
		// nor its keys distinct.
		byKey := map[string][]byte{}
		for _, e := range entries {
			byKey[e.Key] = e.Blob
		}
		for _, e := range entries2 {
			if len(byKey) == len(entries) && !bytes.Equal(byKey[e.Key], e.Blob) {
				t.Fatalf("entry %q changed across the round trip", e.Key)
			}
		}
	})
}
