package tsdb

import (
	"slices"
	"sort"
)

// source is one on-disk file — a raw segment or a block. Whatever the file
// kind, the decoded shape is a block: a raw segment is the one-epoch block
// of the batch it stores (see blockFromBatch), so blk.lastSeq orders a
// source's points against other sources' points for duplicate-(labels,
// epoch) resolution. Compaction preserves that key, which is what keeps
// Select byte-identical across compaction (see Select's ordering
// contract). Sources are immutable once built; the DB only adds and
// removes whole sources under db.mu, so a query that snapshotted a series'
// pointer can keep scanning it lock-free even while compaction retires the
// file.
type source struct {
	fileSeq uint64 // sequence number in the file name; allocation order
	path    string
	bytes   int64
	raw     bool // a seg-*.tsdb file: compaction input, counted as a segment
	blk     *block
}

func newSource(seq uint64, path string, size int64, raw bool, bl *block) *source {
	return &source{fileSeq: seq, path: path, bytes: size, raw: raw, blk: bl}
}

// chunk is one series of one source: the unit the series index orders and
// a query scans. Its ordering key is (ord, sub) — ord, the highest segment
// sequence the source consumed, and sub, the series' position in its
// source, which is what tells apart two records of one batch that carry
// equal labels. Compaction preserves the order they define (it merges in
// sequence, then record, order), so a query's accumulation order is
// identical before and after compacting.
type chunk struct {
	src *source
	sub int
}

// labelChunks is one entry of the series index: every chunk that carries
// one label set, in (ord, sub) order.
type labelChunks struct {
	labels Labels
	chunks []chunk
}

// addSource indexes s, appending each of its series to its label's chunk
// list. Caller holds db.mu (or has exclusive access during Open). srcs
// stays ascending by fileSeq because sequences are allocated monotonically
// and Open sorts before adding. Appending keeps every list in (ord, sub)
// order: a segment's ord is its own sequence, newer than anything its
// machine holds, and a block's ord is the newest of the segments it
// consumes — all of its machine's raw segments, which Compact removes
// under the same db.mu hold, so once the lock drops the block follows
// only older blocks.
func (db *DB) addSource(s *source) {
	db.srcs = append(db.srcs, s)
	db.byMachine[s.blk.machine] = append(db.byMachine[s.blk.machine], s)
	for i := range s.blk.series {
		lab := &s.blk.series[i].labels
		e := db.bySeries[*lab]
		if e == nil {
			e = &labelChunks{labels: *lab}
			db.bySeries[*lab] = e
			at := sort.Search(len(db.series), func(j int) bool { return labelsLess(lab, &db.series[j].labels) })
			db.series = slices.Insert(db.series, at, e)
		}
		e.chunks = append(e.chunks, chunk{s, i})
	}
}

// removeSources drops every source in dead from srcs, byMachine and the
// series index, filtering each affected list once however many sources
// leave it, and deletes the entries whose lists empty. Lists are filtered
// in place — every reader holds db.mu, and DeleteFunc zeroes the vacated
// tail so retired sources can be collected. Caller holds db.mu.
func (db *DB) removeSources(dead ...*source) {
	if len(dead) == 0 {
		return
	}
	set := make(map[*source]bool, len(dead))
	machines := map[string]bool{}
	entries := map[*labelChunks]bool{}
	for _, s := range dead {
		set[s] = true
		machines[s.blk.machine] = true
		for i := range s.blk.series {
			entries[db.bySeries[s.blk.series[i].labels]] = true
		}
	}
	gone := func(s *source) bool { return set[s] }
	db.srcs = slices.DeleteFunc(db.srcs, gone)
	for m := range machines {
		if rest := slices.DeleteFunc(db.byMachine[m], gone); len(rest) > 0 {
			db.byMachine[m] = rest
		} else {
			delete(db.byMachine, m)
		}
	}
	emptied := false
	for e := range entries {
		if e.chunks = slices.DeleteFunc(e.chunks, func(c chunk) bool { return set[c.src] }); len(e.chunks) == 0 {
			delete(db.bySeries, e.labels)
			emptied = true
		}
	}
	if emptied {
		db.series = slices.DeleteFunc(db.series, func(e *labelChunks) bool { return len(e.chunks) == 0 })
	}
}

// maxEpoch is the highest epoch any source of list holds.
func maxEpoch(list []*source) (max uint64) {
	for _, s := range list {
		if s.blk.maxEpoch > max {
			max = s.blk.maxEpoch
		}
	}
	return max
}
