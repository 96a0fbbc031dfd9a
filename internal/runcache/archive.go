package runcache

// Shard archives: the interchange format between `dcpieval -shard i/N`
// workers and the `-merge-shards` pass. An archive is a flat, append-only
// sequence of cache entries — each framed and CRC-protected exactly like
// an on-disk cache entry — prefixed by a header binding the file to a
// version stamp. Merging N archives therefore reuses the same integrity
// checks as the persistent cache: a corrupt or stale entry surfaces as an
// error at merge time instead of silently skewing the merged tables.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"dcpi/internal/atomicio"
	"dcpi/internal/wire"
)

// Entry is one run result in a shard archive.
type Entry struct {
	Key  string
	Blob []byte
}

// WriteArchive atomically writes entries (sorted by key for reproducible
// bytes) to path, bound to stamp.
func WriteArchive(path, stamp string, entries []Entry) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(encodeArchive(stamp, entries))
		return err
	})
}

// encodeArchive returns: magic, format version, stamp, entry count, then
// each entry (encodeEntry's bytes) prefixed by its length.
func encodeArchive(stamp string, entries []Entry) []byte {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	e := wire.Enc{B: []byte(archiveMagic)}
	e.Uvarint(formatVersion)
	e.Str(stamp)
	e.Count(len(sorted))
	for _, ent := range sorted {
		e.Bytes(encodeEntry(stamp, ent.Key, ent.Blob))
	}
	return e.B
}

// ReadArchive reads a shard archive, verifying every entry's framing and
// CRC. wantStamp guards against merging shards produced by a different
// simulator or snapshot generation; pass "" to accept any stamp (the
// archive's own stamp is still returned and each entry must match it).
func ReadArchive(path, wantStamp string) (stamp string, entries []Entry, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if stamp, entries, err = decodeArchive(raw, wantStamp); err != nil {
		return stamp, nil, fmt.Errorf("runcache: %s: %w", path, err)
	}
	return stamp, entries, nil
}

// decodeArchive is ReadArchive over bytes already in memory. An archive is
// untrusted (it travels between machines): the entry count is bounded by the
// bytes that remain, and entries alias raw.
func decodeArchive(raw []byte, wantStamp string) (stamp string, entries []Entry, err error) {
	if len(raw) < len(archiveMagic) || string(raw[:len(archiveMagic)]) != archiveMagic {
		return "", nil, errors.New("not a shard archive")
	}
	d := wire.Dec{B: raw[len(archiveMagic):]}
	if v := d.Uvarint(); d.Err == nil && v != formatVersion {
		return "", nil, fmt.Errorf("archive format version %d, want %d", v, formatVersion)
	}
	stamp = d.Str()
	if d.Err != nil {
		return "", nil, d.Err
	}
	if wantStamp != "" && stamp != wantStamp {
		return stamp, nil, fmt.Errorf("stamp %q, want %q (re-run the shard with this binary)", stamp, wantStamp)
	}
	n := d.Count(1)
	for i := 0; i < n && d.Err == nil; i++ {
		key, blob, err := decodeEntry(d.Bytes(), stamp)
		if err != nil {
			d.Fail(fmt.Errorf("entry %d: %w", i, err))
		}
		entries = append(entries, Entry{Key: key, Blob: blob})
	}
	if err := d.Done(); err != nil {
		return stamp, nil, err
	}
	return stamp, entries, nil
}
