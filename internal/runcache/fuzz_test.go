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
