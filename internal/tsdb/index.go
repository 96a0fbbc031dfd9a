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

func (c chunk) series() *bseries { return &c.src.blk.series[c.sub] }

// labelChunks is one entry of the series index: every chunk that carries
// one label set, in (ord, sub) order — the index's record — and the scan
// view plan reads it through. runs is that view of chunks[:covered]: each
// block chunk as it is, and each maximal stretch of consecutive raw chunks
// whose epochs never decrease as one series. A run is a contiguous stretch
// of the (ord, sub) order, so scanning it visits the points its chunks
// hold in the order scanning them one by one would. plan builds the view
// lazily (see scanRuns) and removeSources resets it.
type labelChunks struct {
	labels  Labels
	chunks  []chunk
	runs    []*bseries
	covered int
}

// joins reports whether chunk i continues the run that holds chunk i-1:
// both are raw segments and epochs do not decrease across them.
func (e *labelChunks) joins(i int) bool {
	if i == 0 {
		return false
	}
	a, b := e.chunks[i-1], e.chunks[i]
	return a.src.raw && b.src.raw && b.series().epochs[0] >= a.series().epochs[len(a.series().epochs)-1]
}

// scanRuns returns e's scan view, first extending it over the chunks added
// since the last call. Caller holds db.mu. A run of several raw chunks
// owns its columns, sized once per catch-up, and grows under a fresh
// header: the header a reader planned with is never written, and append
// writes only cells past the lengths that reader copied. A lone raw
// chunk's columns are capped at their length (blockFromBatch), so the
// first merge into it copies instead of writing into its source.
func (e *labelChunks) scanRuns() []*bseries {
	for e.covered < len(e.chunks) {
		start, end := e.covered, e.covered+1
		for end < len(e.chunks) && e.joins(end) {
			end++
		}
		e.covered = end
		extend := e.joins(start)
		if end-start == 1 && !extend {
			e.runs = append(e.runs, e.chunks[start].series())
			continue
		}
		run := bseries{labels: e.labels}
		if extend {
			run = *e.runs[len(e.runs)-1]
			e.runs = e.runs[:len(e.runs)-1]
		}
		n := 0
		for _, c := range e.chunks[start:end] {
			n += len(c.series().epochs)
		}
		run.epochs, run.samples, run.insts = slices.Grow(run.epochs, n), slices.Grow(run.samples, n), slices.Grow(run.insts, n)
		run.walls, run.periods = slices.Grow(run.walls, n), slices.Grow(run.periods, n)
		for _, c := range e.chunks[start:end] {
			bs := c.series()
			run.epochs, run.samples, run.insts = append(run.epochs, bs.epochs...), append(run.samples, bs.samples...), append(run.insts, bs.insts...)
			run.walls, run.periods = append(run.walls, bs.walls...), append(run.periods, bs.periods...)
		}
		e.runs = append(e.runs, &run)
	}
	return e.runs
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
// leave it and resetting its scan view, and deletes the entries whose
// lists empty. Lists are filtered in place — every reader holds db.mu,
// and DeleteFunc zeroes the vacated tail so retired sources can be
// collected. Caller holds db.mu.
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
		e.runs, e.covered = nil, 0
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
