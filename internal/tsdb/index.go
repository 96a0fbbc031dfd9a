package tsdb

import "slices"

// source is one on-disk file — a raw segment or a block — plus the label
// summary the query planner prunes against. Whatever the file kind, the
// decoded shape is a block: a raw segment is the one-epoch block of the
// batch it stores (see blockFromBatch), so blk.lastSeq orders a source's
// points against other sources' points for duplicate-(labels, epoch)
// resolution. Compaction preserves that key, which is what keeps Select
// byte-identical across compaction (see Select's ordering contract).
// Sources are immutable once built; the DB only adds and removes whole
// sources under db.mu, so a query that snapshotted a series' pointer can
// keep scanning it lock-free even while compaction retires the file.
type source struct {
	fileSeq uint64 // sequence number in the file name; allocation order
	path    string
	bytes   int64
	raw     bool // a seg-*.tsdb file: compaction input, counted as a segment

	workloads map[string]struct{}
	images    map[string]struct{}
	procs     map[string]struct{}
	events    uint32 // bitmask by sim.Event

	blk *block
}

func newSource(seq uint64, path string, size int64, raw bool, bl *block) *source {
	s := &source{
		fileSeq:   seq,
		path:      path,
		bytes:     size,
		raw:       raw,
		workloads: map[string]struct{}{},
		images:    map[string]struct{}{},
		procs:     map[string]struct{}{},
		blk:       bl,
	}
	for i := range bl.series {
		lab := &bl.series[i].labels
		s.workloads[lab.Workload] = struct{}{}
		s.images[lab.Image] = struct{}{}
		s.procs[lab.Proc] = struct{}{}
		s.events |= 1 << uint(lab.Event)
	}
	return s
}

// addSource indexes s. Caller holds db.mu (or has exclusive access during
// Open); srcs stays ascending by fileSeq because sequences are allocated
// monotonically and Open sorts before inserting.
func (db *DB) addSource(s *source) {
	db.srcs = append(db.srcs, s)
	db.byMachine[s.blk.machine] = append(db.byMachine[s.blk.machine], s)
	for img := range s.images {
		db.byImage[img] = append(db.byImage[img], s)
	}
}

// removeSources drops every source in dead from every posting list,
// filtering each affected list once however many sources leave it, and
// deletes the keys whose lists empty. Lists are filtered in place — every
// reader holds db.mu, and DeleteFunc zeroes the vacated tail so retired
// sources can be collected. Caller holds db.mu.
func (db *DB) removeSources(dead ...*source) {
	if len(dead) == 0 {
		return
	}
	set := make(map[*source]bool, len(dead))
	machines, images := map[string]struct{}{}, map[string]struct{}{}
	for _, s := range dead {
		set[s] = true
		machines[s.blk.machine] = struct{}{}
		for img := range s.images {
			images[img] = struct{}{}
		}
	}
	gone := func(s *source) bool { return set[s] }
	db.srcs = slices.DeleteFunc(db.srcs, gone)
	prunePostings(db.byMachine, machines, gone)
	prunePostings(db.byImage, images, gone)
}

// prunePostings filters the lists under keys, deleting those that empty.
func prunePostings(lists map[string][]*source, keys map[string]struct{}, gone func(*source) bool) {
	for k := range keys {
		if rest := slices.DeleteFunc(lists[k], gone); len(rest) > 0 {
			lists[k] = rest
		} else {
			delete(lists, k)
		}
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

// matchesSource reports whether the source can contain any matching point
// at all — the planner's pruning test against the epoch bounds and the
// label summary (posting lists narrow the candidate list first; this
// rejects the rest without touching point data).
func (s *source) matchesSource(m Matcher) bool {
	if m.Machine != "" && s.blk.machine != m.Machine {
		return false
	}
	if m.FromEpoch > s.blk.maxEpoch {
		return false
	}
	if m.ToEpoch != 0 && m.ToEpoch < s.blk.minEpoch {
		return false
	}
	if m.Workload != "" {
		if _, ok := s.workloads[m.Workload]; !ok {
			return false
		}
	}
	if m.Image != "" {
		if _, ok := s.images[m.Image]; !ok {
			return false
		}
	}
	if m.Proc != "" {
		if _, ok := s.procs[m.Proc]; !ok {
			return false
		}
	}
	if !m.AnyEvent && s.events&(1<<uint(m.Event)) == 0 {
		return false
	}
	return true
}
