package tsdb

import (
	"cmp"
	"slices"
	"sort"

	"dcpi/internal/analysis"
	"dcpi/internal/par"
	"dcpi/internal/sim"
)

// Matcher selects points. Empty string fields match anything; epochs are
// an inclusive [From, To] range with To == 0 meaning "no upper bound".
//
// Procedure-level points are opt-in so that per-image aggregates never
// double-count: the default (Proc == "", AnyProc == false) matches only
// image-level points, Proc == name matches only that procedure's points,
// and AnyProc matches both levels.
type Matcher struct {
	Machine   string
	Workload  string
	Image     string
	Proc      string
	Event     sim.Event
	AnyEvent  bool // when false, Event must match (EvCycles is the zero value)
	AnyProc   bool // when false and Proc == "", only image-level points match
	FromEpoch uint64
	ToEpoch   uint64

	// orImage, with Proc set, matches the image-level points too: a
	// procedure's range query reads its share's denominator in one scan.
	orImage bool
}

// labelsMatch applies every non-epoch constraint.
func (m Matcher) labelsMatch(lab Labels) bool {
	if m.Machine != "" && lab.Machine != m.Machine {
		return false
	}
	if m.Workload != "" && lab.Workload != m.Workload {
		return false
	}
	if m.Image != "" && lab.Image != m.Image {
		return false
	}
	if m.Proc != "" {
		if lab.Proc != m.Proc && (!m.orImage || lab.Proc != "") {
			return false
		}
	} else if !m.AnyProc && lab.Proc != "" {
		return false
	}
	if !m.AnyEvent && lab.Event != m.Event {
		return false
	}
	return true
}

func labelsLess(a, b *Labels) bool {
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	if a.Image != b.Image {
		return a.Image < b.Image
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Event < b.Event
}

// plan resolves a matcher to the series it scans, in scan order —
// ascending (labels, ord, sub), read straight off the series index's scan
// view, where a label's in-order raw tail is one run — plus the canonical
// epoch bounds [lo, hi] of the scan. It walks only the index entries whose
// labels match (a machine's entries are contiguous, found by binary
// search) and keeps the runs that overlap the bounds.
// An open-ended scan (ToEpoch == 0) ends at the highest epoch of a series
// it keeps, which compaction preserves, so its windows do not depend on
// the store's layout. It holds db.mu only while copying series pointers —
// they point into immutable data, so the scan itself runs lock-free.
func (db *DB) plan(m Matcher) ([]*bseries, uint64, uint64) {
	lo, hi := max(m.FromEpoch, 1), m.ToEpoch
	var out []*bseries
	db.mu.Lock()
	db.plans++
	entries := db.series
	if m.Machine != "" {
		i := sort.Search(len(entries), func(i int) bool { return entries[i].labels.Machine >= m.Machine })
		n := sort.Search(len(entries)-i, func(j int) bool { return entries[i+j].labels.Machine > m.Machine })
		entries = entries[i : i+n]
	}
	for _, e := range entries {
		if !m.labelsMatch(e.labels) {
			continue
		}
		for _, bs := range e.scanRuns() {
			last := bs.epochs[len(bs.epochs)-1]
			if last < lo || (m.ToEpoch != 0 && bs.epochs[0] > m.ToEpoch) {
				continue
			}
			out = append(out, bs)
			if m.ToEpoch == 0 {
				hi = max(hi, last)
			}
		}
	}
	db.mu.Unlock()
	return out, lo, hi
}

// queryWindows is rank's fold order and nothing else: a ranking sums float
// cycles per epoch window, up to this many windows cut from the scan's
// epoch bounds (win, winStart), and folds the windows in order, so the
// constant fixes the bytes of every top answer until rankings sum exactly
// (ROADMAP, "Exact sums"). How a scan fans out is partPoints' business, but
// a part is always a run of whole fold windows, so that each window's
// partial is summed inside one part.
const queryWindows = 16

// partPoints is how many points one part of a scan reads before the scan
// splits into another: a scan of n points runs in min(par.Default().Total(),
// ceil(n/partPoints), fold windows) parts. It is the smallest part size at
// which a range query split in two beat the same query in one part on a
// 2-CPU host (BenchmarkPartSplit; docs/PERFORMANCE.md lists the runs):
// below it the second goroutine's start costs more than the points it
// takes over. TopDeltas, whose integer sums cost a fraction of that per
// point, reads the counted ranges in one pass and never splits.
const partPoints = 18432

// cols is one planned series' columns [j0, j1): the points it holds inside
// a scan's epoch bounds, never none.
type cols struct {
	bs     *bseries
	j0, j1 int
}

// scan is one query's plan cut into parts by the points it reads. series
// holds, in the series index's order — ascending (labels, ord, sub), so a
// machine's series are contiguous — every planned series with a point in
// [lo, hi]. The epoch range splits into nwin fold windows, and the windows
// into parts, contiguous runs of whole windows. Window and part boundaries
// depend only on the bounds and the part count, never on worker count or
// storage layout. first and last are the lowest and highest epoch of a
// point the series hold.
type scan struct {
	lo, span    uint64
	first, last uint64
	nwin, parts int
	points      int
	series      []cols
}

// newScan plans m and counts its points with the two binary searches per
// series that bound its columns, and sizes the parts from the count.
func (db *DB) newScan(m Matcher) *scan {
	planned, lo, hi := db.plan(m)
	sc := &scan{lo: lo}
	if len(planned) == 0 || hi < lo {
		return sc
	}
	sc.span = hi - lo + 1
	sc.nwin = int(min(sc.span, queryWindows))
	if sc.span >= 1<<60 {
		sc.nwin = 1 // keep win's multiply below from overflowing
	}
	sc.series = make([]cols, 0, len(planned))
	sc.first = hi
	for _, bs := range planned {
		if j0, j1 := bs.within(0, len(bs.epochs), lo, hi); j0 < j1 {
			sc.series = append(sc.series, cols{bs, j0, j1})
			sc.points += j1 - j0
			sc.first, sc.last = min(sc.first, bs.epochs[j0]), max(sc.last, bs.epochs[j1-1])
		}
	}
	if sc.points > 0 {
		sc.parts = min(par.Default().Total(), (sc.points+partPoints-1)/partPoints, sc.nwin)
		if db.testParts > 0 {
			sc.parts = min(db.testParts, sc.nwin)
		}
	}
	return sc
}

// win is the fold window of epoch e in [lo, hi].
func (sc *scan) win(e uint64) int { return int((e - sc.lo) * uint64(sc.nwin) / sc.span) }

// winStart is the exact inverse partition of win: the smallest epoch with
// win(e) == w sits ceil(span*w/nwin) above lo, so winStart(win(e)) <= e <
// winStart(win(e)+1) holds for every e in [lo, hi] even when span is not a
// multiple of nwin. A floor here would disagree with win on ragged spans
// and drop epochs that fall between the two partitions. winStart(nwin) is
// hi+1, which wraps to 0 when hi is the largest epoch; a part's last epoch,
// one below it, wraps back.
func (sc *scan) winStart(w int) uint64 {
	return sc.lo + (sc.span*uint64(w)+uint64(sc.nwin)-1)/uint64(sc.nwin)
}

// partStart is the first epoch of part p, the start of its first window.
func (sc *scan) partStart(p int) uint64 { return sc.winStart(p * sc.nwin / sc.parts) }

// slotsPerPoint bounds the epoch slots of a dense scan by its points: a scan
// whose points span at most this many epochs per point numbers its slots
// by epoch - first (every store a fleet writes, its epochs dense from 1),
// and any other by the rank of the epoch among the scan's distinct epochs,
// so a hostile gap between two stored epochs costs no memory.
const slotsPerPoint = 4

// slots numbers the distinct epochs of the scan's points in ascending
// order: it returns how many slots there are, and the epoch of each slot
// when they are not simply first, first+1, … (nil when they are).
func (sc *scan) slots() (int, []uint64) {
	if sc.points == 0 {
		return 0, nil
	}
	if sc.last-sc.first < uint64(slotsPerPoint*sc.points) {
		return int(sc.last-sc.first) + 1, nil
	}
	epochs := make([]uint64, 0, sc.points)
	for _, c := range sc.series {
		epochs = append(epochs, c.bs.epochs[c.j0:c.j1]...)
	}
	slices.Sort(epochs)
	epochs = slices.Compact(epochs)
	return len(epochs), epochs
}

// run calls fn(part, bs, j0, j1) once for every part and every series of
// sc.series with points in the part, handing it that series' columns
// [j0, j1) in place, never an empty range. Within one part calls arrive in
// sc.series order, epochs ascending within a range, and each epoch belongs
// to exactly one part. The parts run through par.Default().Each, so fn may
// be called concurrently for different parts, never for the same one.
func (sc *scan) run(fn func(part int, bs *bseries, j0, j1 int)) {
	if sc.parts == 1 {
		for _, c := range sc.series {
			fn(0, c.bs, c.j0, c.j1)
		}
		return
	}
	par.Default().Each(sc.parts, func(p int) {
		first, last := sc.partStart(p), sc.partStart(p+1)-1
		for _, c := range sc.series {
			if j0, j1 := c.bs.within(c.j0, c.j1, first, last); j0 < j1 {
				fn(p, c.bs, j0, j1)
			}
		}
	})
}

// Select returns every matching point in a documented, deterministic
// total order: ascending (epoch, machine, workload, image, proc, event),
// and — when a re-scrape race stored the same series twice for one epoch
// — duplicates in ingestion order (segment sequence, then in-segment
// record order). The order is a contract, not iteration luck: it is
// stable across process restarts, worker counts, and compaction. Points
// reach each part already in (labels, ord, sub) order, epochs ascending
// within a series, so a stable sort on the epoch alone is all that is
// left to do; it moves a reference to each point, and the points are
// built once, in order. Select is the one query that materializes points:
// its contract is a []Point.
func (db *DB) Select(m Matcher) []Point {
	type ref struct {
		epoch uint64
		bs    *bseries
		j     int
	}
	sc := db.newScan(m)
	if sc.points == 0 {
		return nil
	}
	parts := make([][]ref, sc.parts)
	for p := range parts {
		parts[p] = make([]ref, 0, sc.points/sc.parts)
	}
	sc.run(func(p int, bs *bseries, j0, j1 int) {
		for j := j0; j < j1; j++ {
			parts[p] = append(parts[p], ref{bs.epochs[j], bs, j})
		}
	})
	out := make([]Point, 0, sc.points)
	for _, refs := range parts {
		slices.SortStableFunc(refs, func(a, b ref) int { return cmp.Compare(a.epoch, b.epoch) })
		for _, r := range refs {
			out = append(out, r.bs.point(r.j))
		}
	}
	return out
}

// FleetMaxEpoch returns the highest epoch stored for any machine.
func (db *DB) FleetMaxEpoch() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.fleetMax
}

// RangeRow is one epoch of a fleet range query for a single image (or a
// single procedure within an image): the per-epoch aggregate over every
// machine that reported that epoch.
type RangeRow struct {
	Epoch    uint64  `json:"epoch"`
	Machines int     `json:"machines"`
	Samples  uint64  `json:"samples"`
	Cycles   float64 `json:"cycles"`    // samples × per-point period
	Insts    uint64  `json:"insts"`     // 0 when no machine had exact counts
	CPI      float64 `json:"cpi"`       // Cycles/Insts; 0 when Insts is 0
	SharePct float64 `json:"share_pct"` // of the denominator's cycles that epoch
}

// RangeQuery answers "CPI of image across the fleet over [from, to]": one
// row per epoch, aggregating every machine's point for that image and
// event. Share is the image's slice of all attributed cycles (same event)
// in the epoch, fleet-wide.
func RangeQuery(db *DB, image string, ev sim.Event, from, to uint64) []RangeRow {
	return RangeQueryProc(db, image, "", ev, from, to)
}

// RangeQueryProc is RangeQuery narrowed to one procedure of the image
// when proc is non-empty; SharePct then reads as the procedure's slice
// of its image's cycles rather than the image's slice of the fleet's.
func RangeQueryProc(db *DB, image, proc string, ev sim.Event, from, to uint64) []RangeRow {
	// One scan reads the rows' series and the denominator's: for an image,
	// every image-level series of the event, the image's among them; for a
	// procedure, its series and its image's image-level ones, which are
	// disjoint. Each point adds to its epoch's slot, so each slot's floats
	// are summed in the series index's order inside the one part that holds
	// the epoch, whatever the part count (TestQueryAnswersGolden pins that
	// order). A slot counts a machine once by comparing it with the last it
	// counted: a machine's series reach a part one after another.
	m := Matcher{Event: ev, FromEpoch: from, ToEpoch: to}
	key := func(l *Labels) (inRow, inTotal bool) { return l.Image == image, true }
	if proc != "" {
		m.Image, m.Proc, m.orImage = image, proc, true
		key = func(l *Labels) (bool, bool) { return l.Proc != "", l.Proc == "" }
	}
	type slot struct {
		machine        string
		machines       int
		samples, insts uint64
		cycles, total  float64
	}
	sc := db.newScan(m)
	n, epochs := sc.slots()
	acc := make([]slot, n)
	sc.run(func(_ int, bs *bseries, j0, j1 int) {
		inRow, inTotal := key(&bs.labels)
		k := 0
		if epochs != nil {
			k, _ = slices.BinarySearch(epochs, bs.epochs[j0])
		}
		for j := j0; j < j1; j++ {
			if epochs == nil {
				k = int(bs.epochs[j] - sc.first)
			} else {
				for epochs[k] < bs.epochs[j] {
					k++
				}
			}
			s, c := &acc[k], bs.cycles(j)
			if inTotal {
				s.total += c
			}
			if inRow {
				if s.machine != bs.labels.Machine {
					s.machine = bs.labels.Machine
					s.machines++
				}
				s.samples += bs.samples[j]
				s.cycles += c
				s.insts += bs.insts[j]
			}
		}
	})
	out := make([]RangeRow, 0, n)
	for k := range acc {
		s := &acc[k]
		if s.machines == 0 {
			continue
		}
		r := RangeRow{Epoch: sc.first + uint64(k), Machines: s.machines, Samples: s.samples, Cycles: s.cycles, Insts: s.insts}
		if epochs != nil {
			r.Epoch = epochs[k]
		}
		if r.Insts > 0 {
			r.CPI = r.Cycles / float64(r.Insts)
		}
		if s.total > 0 {
			r.SharePct = 100 * r.Cycles / s.total
		}
		out = append(out, r)
	}
	return out
}

// TopRow is one image of a fleet-wide hot-image ranking.
type TopRow struct {
	Image    string  `json:"image"`
	Samples  uint64  `json:"samples"`
	Cycles   float64 `json:"cycles"`
	SharePct float64 `json:"share_pct"`
}

// TopImages ranks images by attributed cycles over [from, to], fleet-wide.
func TopImages(db *DB, ev sim.Event, from, to uint64, n int) []TopRow {
	rows, total := rank(db, Matcher{Event: ev, FromEpoch: from, ToEpoch: to}, n,
		func(l *Labels) (string, bool, bool) { return l.Image, true, true })
	out := make([]TopRow, len(rows))
	for i, r := range rows {
		out[i] = TopRow{Image: r.name, Samples: r.samples, Cycles: r.cycles, SharePct: r.share(total)}
	}
	return out
}

// ProcRow is one procedure of a per-procedure ranking within an image.
type ProcRow struct {
	Proc     string  `json:"proc"`
	Samples  uint64  `json:"samples"`
	Cycles   float64 `json:"cycles"`
	SharePct float64 `json:"share_pct"` // of the image's cycles over the window
}

// TopProcs ranks one image's procedures by attributed cycles over
// [from, to], fleet-wide. Shares are against the image's image-level
// cycle total, so "(unknown)" attribution and sampling skew are visible
// as shares not summing to 100.
func TopProcs(db *DB, image string, ev sim.Event, from, to uint64, n int) []ProcRow {
	rows, total := rank(db, Matcher{Image: image, AnyProc: true, Event: ev, FromEpoch: from, ToEpoch: to}, n,
		func(l *Labels) (string, bool, bool) { return l.Proc, l.Proc != "", l.Proc == "" })
	out := make([]ProcRow, len(rows))
	for i, r := range rows {
		out[i] = ProcRow{Proc: r.name, Samples: r.samples, Cycles: r.cycles, SharePct: r.share(total)}
	}
	return out
}

// rankRow is one group of a ranking: its key and what it accumulated.
type rankRow struct {
	name    string
	samples uint64
	cycles  float64
}

// share is the row's percentage of total (0 when nothing was attributed).
func (r *rankRow) share(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * r.cycles / total
}

// rank is the one ranking behind TopImages and TopProcs: group the points
// matching m under key's name, and return the n heaviest groups (all of
// them when n <= 0) by cycles, names breaking ties, with the cycle total
// shares are taken against. key says, per series, whether its points count
// toward its group's row and whether toward the total; a fold window looks
// a group up only when the name changes from the series before. Each fold
// window's partials are summed in scan order inside the one part that
// holds the window, and fold together in window order with sorted keys, so
// float accumulation order depends on neither the part count nor the
// worker count.
func rank(db *DB, m Matcher, n int, key func(*Labels) (name string, inRows, inTotal bool)) ([]rankRow, float64) {
	type winAgg struct {
		rows  map[string]*rankRow
		last  *rankRow
		total float64
	}
	sc := db.newScan(m)
	aggs := make([]winAgg, sc.nwin)
	sc.run(func(_ int, bs *bseries, j0, j1 int) {
		name, inRows, inTotal := key(&bs.labels)
		// The part holds whole fold windows: each window's stretch of the
		// range goes to that window's partial.
		for j0 < j1 {
			w, end := sc.win(bs.epochs[j0]), j1
			if w+1 < sc.nwin {
				next := sc.winStart(w + 1)
				end = j0 + sort.Search(j1-j0, func(i int) bool { return bs.epochs[j0+i] >= next })
			}
			a := &aggs[w]
			var r *rankRow
			if inRows {
				if r = a.last; r == nil || r.name != name {
					if a.rows == nil {
						a.rows = map[string]*rankRow{}
					}
					if r = a.rows[name]; r == nil {
						r = &rankRow{name: name}
						a.rows[name] = r
					}
					a.last = r
				}
			}
			for j := j0; j < end; j++ {
				c := bs.cycles(j)
				if inTotal {
					a.total += c
				}
				if r != nil {
					r.samples += bs.samples[j]
					r.cycles += c
				}
			}
			j0 = end
		}
	})
	merged := map[string]*rankRow{}
	var total float64
	for i := range aggs {
		total += aggs[i].total
		names := make([]string, 0, len(aggs[i].rows))
		for name := range aggs[i].rows {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			dst := merged[name]
			if dst == nil {
				dst = &rankRow{name: name}
				merged[name] = dst
			}
			dst.samples += aggs[i].rows[name].samples
			dst.cycles += aggs[i].rows[name].cycles
		}
	}
	out := make([]rankRow, 0, len(merged))
	for _, r := range merged {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cycles != out[j].cycles {
			return out[i].cycles > out[j].cycles
		}
		return out[i].name < out[j].name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, total
}

// TopDeltas ranks images by how much their fleet-wide cycle share moved
// between window A and window B (both inclusive epoch ranges), reusing the
// share-delta ranking dcpidiff applies to a pair of databases.
func TopDeltas(db *DB, ev sim.Event, aFrom, aTo, bFrom, bTo uint64, n int) []analysis.DeltaRow {
	// Integer sums need no fold order and no parts: the scan's counted
	// ranges are summed straight into one map per window, in one pass on
	// the caller. A second part never paid for its start on these sums at
	// any size measured (docs/PERFORMANCE.md, "PR 46").
	window := func(from, to uint64) map[string]uint64 {
		m := map[string]uint64{}
		for _, c := range db.newScan(Matcher{Event: ev, FromEpoch: from, ToEpoch: to}).series {
			var n uint64
			for _, s := range c.bs.samples[c.j0:c.j1] {
				n += s
			}
			m[c.bs.labels.Image] += n
		}
		return m
	}
	rows := analysis.ShareDeltas(window(aFrom, aTo), window(bFrom, bTo))
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
