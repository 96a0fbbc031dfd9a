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
	// RawRetention is how many of the newest epochs (measured from the
	// fleet-wide max epoch) stay at raw fidelity. 0 disables downsampling
	// entirely — the horizon must be explicit, because downsampling is
	// lossy.
	RawRetention uint64
	// Downsample is the bucket width in epochs applied to blocks wholly
	// behind the raw-retention horizon; 0 or 1 disables. Capped at 64 so
	// each bucket's per-epoch coverage fits one bitmap word (which is what
	// keeps HasEpoch exact after downsampling).
	Downsample uint64
}

// CompactStats reports what one Compact pass did.
type CompactStats struct {
	SegmentsCompacted int   // raw segments merged into blocks
	BlocksWritten     int   // new raw-fidelity blocks
	BlocksDownsampled int   // raw blocks rewritten as aggregates
	BytesBefore       int64 // store size entering the pass
	BytesAfter        int64 // store size leaving the pass
}

// Compact merges each machine's accumulated raw segments into one block
// (per machine, per pass) and then rewrites raw blocks wholly behind the
// raw-retention horizon as downsampled aggregates. Each block is
// committed with atomicio (temp+fsync+rename) before its inputs are
// unlinked, so a crash at any point leaves either the inputs, or the
// block plus leftover inputs that Open reclaims by sequence range —
// never a gap and never a duplicate.
//
// On raw-retained ranges queries return byte-identical results before
// and after: compaction preserves every point, the ingestion order of
// duplicate (labels, epoch) points, and the source ordering key queries
// merge by. The one exception is a raw segment whose wall/period
// metadata conflicts with an earlier segment for the same epoch (data
// Append refuses, but older files may carry): it is quarantined aside as
// NAME.bad rather than merged, because canonicalizing its metadata would
// silently change its points' query results.
func (db *DB) Compact(o CompactOptions) (CompactStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := CompactStats{BytesBefore: db.sizeBytes, BytesAfter: db.sizeBytes}
	if db.opts.ReadOnly {
		return st, errors.New("tsdb: store opened read-only")
	}
	if o.Downsample > 1 && o.RawRetention == 0 {
		return st, errors.New("tsdb: -downsample needs a -raw-retention horizon (refusing to downsample everything)")
	}
	if o.Downsample > maxDownsample {
		return st, fmt.Errorf("tsdb: -downsample %d exceeds the maximum factor %d (bucket coverage is a 64-bit bitmap)", o.Downsample, maxDownsample)
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
		var raws []*source
		for _, s := range db.byMachine[m] {
			if s.raw {
				raws = append(raws, s)
			}
		}
		if len(raws) < min {
			continue
		}
		sort.Slice(raws, func(i, j int) bool { return raws[i].fileSeq < raws[j].fileSeq })
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
	if o.Downsample > 1 {
		if err := db.downsampleLocked(o, &st); err != nil {
			db.publish()
			return st, err
		}
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

// downsampleLocked rewrites every raw-fidelity block that lies wholly
// behind the horizon (fleet max epoch minus RawRetention). Caller holds
// db.mu.
func (db *DB) downsampleLocked(o CompactOptions, st *CompactStats) error {
	fleetMax := maxEpoch(db.srcs)
	if fleetMax <= o.RawRetention {
		return nil
	}
	horizon := fleetMax - o.RawRetention
	var victims []*source
	for _, s := range db.srcs {
		if !s.raw && s.blk.downsample == 0 && s.blk.maxEpoch <= horizon {
			victims = append(victims, s)
		}
	}
	for _, s := range victims {
		nsrc, err := db.writeBlockLocked(downsampleBlock(s.blk, o.Downsample))
		if err != nil {
			return fmt.Errorf("tsdb: downsampling %s: %w", s.blk.machine, err)
		}
		db.addSource(nsrc)
		db.sizeBytes += nsrc.bytes
		os.Remove(s.path)
		db.removeSources(s)
		db.sizeBytes -= s.bytes
		st.BlocksDownsampled++
		db.downsampled++
	}
	return nil
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
