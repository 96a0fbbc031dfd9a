package tsdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dcpi/internal/atomicio"
)

// CompactOptions configures one Compact pass.
type CompactOptions struct {
	// CompactAfter merges a machine's raw segments into one block once at
	// least this many have accumulated; values <= 1 merge whatever is
	// there. Raw segments below the threshold are left alone, so a
	// periodic pass amortizes block rewrites instead of rewriting per
	// scrape.
	CompactAfter int
}

// CompactStats reports what one Compact pass did.
type CompactStats struct {
	SegmentsCompacted int   // raw segments merged into blocks
	BlocksWritten     int   // new blocks
	BytesBefore       int64 // store size entering the pass
	BytesAfter        int64 // store size leaving the pass
}

// Compact merges each machine's accumulated raw segments into one block
// (per machine, per pass). Each block is committed with atomicio
// (temp+fsync+rename) before its inputs are unlinked, so a crash at any
// point leaves either the inputs, or the block plus leftover inputs that
// Open reclaims by sequence range — never a gap and never a duplicate.
//
// Queries return byte-identical results before and after: compaction
// preserves every point, the ingestion order of duplicate (labels, epoch)
// points, and the source ordering key queries merge by. The one exception
// is a raw segment whose wall/period metadata conflicts with an earlier
// segment for the same epoch (data Append refuses, but older files may
// carry): it is quarantined aside as NAME.bad rather than merged, because
// canonicalizing its metadata would silently change its points' query
// results.
func (db *DB) Compact(o CompactOptions) (CompactStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := CompactStats{BytesBefore: db.sizeBytes, BytesAfter: db.sizeBytes}
	if db.opts.ReadOnly {
		return st, errors.New("tsdb: store opened read-only")
	}
	min := o.CompactAfter
	if min < 1 {
		min = 1
	}
	machines := make([]string, 0, len(db.byMachine))
	for m := range db.byMachine {
		machines = append(machines, m)
	}
	sort.Strings(machines)
	for _, m := range machines {
		var raws []*source // ascending fileSeq, as byMachine keeps them
		for _, s := range db.byMachine[m] {
			if s.raw {
				raws = append(raws, s)
			}
		}
		if len(raws) < min {
			continue
		}
		raws = db.quarantineMetaConflictsLocked(raws)
		src, err := db.writeBlockLocked(buildBlock(m, raws))
		if err != nil {
			db.publish()
			return st, fmt.Errorf("tsdb: compacting %s: %w", m, err)
		}
		db.addSource(src)
		db.sizeBytes += src.bytes
		st.BlocksWritten++
		st.SegmentsCompacted += len(raws)
		if db.testCrashMidCompact {
			st.BytesAfter = db.sizeBytes
			db.publish()
			return st, nil
		}
		for _, s := range raws {
			os.Remove(s.path)
			db.sizeBytes -= s.bytes
		}
		db.removeSources(raws...)
		db.compactions++
	}
	db.retain()
	st.BytesAfter = db.sizeBytes
	db.publish()
	return st, nil
}

// quarantineMetaConflictsLocked drops raw segments (ascending fileSeq)
// whose wall/period metadata disagrees with an earlier-sequence segment
// for the same epoch. Append refuses such batches, but files written by
// older code can still carry them; merging one into a block would let
// first-writer-wins canonicalization silently change its points' query
// results across compaction. Conflicting files are renamed aside as
// NAME.bad like decode failures and their points leave the index.
// Returns the surviving segments. Caller holds db.mu.
func (db *DB) quarantineMetaConflictsLocked(raws []*source) []*source {
	first := map[uint64]epochMeta{}
	live := raws[:0]
	var bad []*source
	for _, s := range raws {
		m := s.blk.metas[0] // a raw segment is a one-epoch block
		if f, seen := first[m.epoch]; !seen {
			first[m.epoch] = m
		} else if f != m {
			os.Rename(s.path, s.path+".bad")
			db.sizeBytes -= s.bytes
			db.quarantined++
			bad = append(bad, s)
			continue
		}
		live = append(live, s)
	}
	db.removeSources(bad...)
	return live
}

// writeBlockLocked encodes and durably writes bl under a fresh file
// sequence, returning its indexable source. Caller holds db.mu.
func (db *DB) writeBlockLocked(bl *block) (*source, error) {
	enc := EncodeBlock(bl)
	seq := db.nextSeq
	db.nextSeq++
	path := filepath.Join(db.dir, blkName(seq))
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	}); err != nil {
		return nil, err
	}
	return newSource(seq, path, int64(len(enc)), false, bl), nil
}
