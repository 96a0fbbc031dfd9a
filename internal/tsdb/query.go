package tsdb

import (
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
		if lab.Proc != m.Proc {
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

// queryWindows is the fan-out width of a scan: the epoch range splits
// into up to this many contiguous windows, scanned concurrently.
const queryWindows = 16

// scanWindows runs fn over every series matching m, partitioned into up
// to queryWindows contiguous epoch windows that are scanned concurrently
// (worker count bounded by the process-wide par.Budget). fn(win, bs, j0,
// j1) reads columns [j0, j1) of one series in place, never an empty range.
// Within one window, ranges arrive in the series index's order — ascending
// (labels, ord, sub), so a machine's series are contiguous, epochs
// ascending within a range — and each epoch belongs to exactly one window.
// Window boundaries depend only on the epoch bounds, never on worker count
// or storage layout, so per-window accumulation (and any window-ordered
// merge) is deterministic and unchanged by compaction. fn may be called
// concurrently for different win values, never for the same one. Returns
// the window count.
func (db *DB) scanWindows(m Matcher, fn func(win int, bs *bseries, j0, j1 int)) int {
	series, lo, hi := db.plan(m)
	if len(series) == 0 || hi < lo {
		return 0
	}
	span := hi - lo + 1
	nwin := queryWindows
	if span < uint64(nwin) {
		nwin = int(span)
	}
	if span >= 1<<60 {
		nwin = 1 // keep winOf's multiply below from overflowing
	}
	winOf := func(e uint64) int { return int((e - lo) * uint64(nwin) / span) }
	// winStart is the exact inverse partition of winOf: the smallest epoch
	// with winOf(e) == w sits ceil(span*w/nwin) above lo, so
	// winStart(winOf(e)) <= e < winStart(winOf(e)+1) holds for every e in
	// [lo, hi] even when span is not a multiple of nwin. A floor here
	// would disagree with winOf on ragged spans and drop epochs that fall
	// between the two partitions.
	winStart := func(w int) uint64 {
		return lo + (span*uint64(w)+uint64(nwin)-1)/uint64(nwin)
	}
	// Every planned series overlaps [lo, hi], so each spans at least one
	// window. The windows' lists are cut from one array a counting pass
	// sizes, so a scan allocates the same whatever its series count.
	winsOf := func(bs *bseries) (int, int) {
		return winOf(max(bs.epochs[0], lo)), winOf(min(bs.epochs[len(bs.epochs)-1], hi))
	}
	counts, cells := make([]int, nwin), 0
	for _, bs := range series {
		w0, w1 := winsOf(bs)
		for w := w0; w <= w1; w++ {
			counts[w]++
		}
		cells += w1 - w0 + 1
	}
	winSeries, flat := make([][]*bseries, nwin), make([]*bseries, cells)
	for w, c := range counts {
		winSeries[w], flat = flat[:0:c], flat[c:]
	}
	for _, bs := range series {
		w0, w1 := winsOf(bs)
		for w := w0; w <= w1; w++ {
			winSeries[w] = append(winSeries[w], bs)
		}
	}
	par.Default().Each(nwin, func(w int) {
		ws, we := winStart(w), winStart(w+1)-1
		for _, bs := range winSeries[w] {
			j0 := bs.searchEpoch(ws)
			j1 := j0 + sort.Search(len(bs.epochs)-j0, func(i int) bool { return bs.epochs[j0+i] > we })
			if j0 < j1 {
				fn(w, bs, j0, j1)
			}
		}
	})
	return nwin
}

// Select returns every matching point in a documented, deterministic
// total order: ascending (epoch, machine, workload, image, proc, event),
// and — when a re-scrape race stored the same series twice for one epoch
// — duplicates in ingestion order (segment sequence, then in-segment
// record order). The order is a contract, not iteration luck: it is
// stable across process restarts, worker counts, and compaction. Points
// reach each window already in (labels, ord, sub) order, so a stable sort
// on (epoch, labels) is all that is left to do. Select is the one query
// that materializes points: its contract is a []Point.
func (db *DB) Select(m Matcher) []Point {
	wins := make([][]Point, queryWindows)
	n := db.scanWindows(m, func(w int, bs *bseries, j0, j1 int) {
		for j := j0; j < j1; j++ {
			wins[w] = append(wins[w], bs.point(j))
		}
	})
	var out []Point
	for _, ps := range wins[:n] {
		sort.SliceStable(ps, func(i, j int) bool {
			if ps[i].Epoch != ps[j].Epoch {
				return ps[i].Epoch < ps[j].Epoch
			}
			return labelsLess(&ps[i].Labels, &ps[j].Labels)
		})
		out = append(out, ps...)
	}
	return out
}

// FleetMaxEpoch returns the highest epoch stored for any machine.
func (db *DB) FleetMaxEpoch() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return maxEpoch(db.srcs)
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
	// Each window's rows, ascending by epoch, each with the machine it
	// counted last: a machine's series reach a window one after another,
	// so a row counts a machine once by comparing it with the last.
	type acc struct {
		RangeRow
		machine string
	}
	wins := make([][]acc, queryWindows)
	db.scanWindows(Matcher{Image: image, Proc: proc, Event: ev, FromEpoch: from, ToEpoch: to},
		func(w int, bs *bseries, j0, j1 int) {
			rows := wins[w]
			k := sort.Search(len(rows), func(i int) bool { return rows[i].Epoch >= bs.epochs[j0] })
			for j := j0; j < j1; j++ {
				for k < len(rows) && rows[k].Epoch < bs.epochs[j] {
					k++
				}
				if k == len(rows) || rows[k].Epoch != bs.epochs[j] {
					rows = slices.Insert(rows, k, acc{RangeRow: RangeRow{Epoch: bs.epochs[j]}})
				}
				r := &rows[k]
				if r.machine != bs.labels.Machine {
					r.machine = bs.labels.Machine
					r.Machines++
				}
				r.Samples += bs.samples[j]
				r.Cycles += bs.cycles(j)
				r.Insts += bs.insts[j]
			}
			wins[w] = rows
		})
	// Windows ascend in epoch, so out is ascending and each epoch is one row.
	out := []RangeRow{}
	for _, rows := range wins {
		for _, r := range rows {
			out = append(out, r.RangeRow)
		}
	}
	// The denominator adds each epoch's cycles in its own window's scan
	// order; only epochs that have a row are looked up.
	denom := Matcher{Event: ev, FromEpoch: from, ToEpoch: to}
	if proc != "" {
		denom.Image = image
	}
	totals := make([]float64, len(out))
	db.scanWindows(denom, func(w int, bs *bseries, j0, j1 int) {
		k := sort.Search(len(out), func(i int) bool { return out[i].Epoch >= bs.epochs[j0] })
		for j := j0; j < j1; j++ {
			for k < len(out) && out[k].Epoch < bs.epochs[j] {
				k++
			}
			if k < len(out) && out[k].Epoch == bs.epochs[j] {
				totals[k] += bs.cycles(j)
			}
		}
	})
	for k := range out {
		r := &out[k]
		if r.Insts > 0 {
			r.CPI = r.Cycles / float64(r.Insts)
		}
		if t := totals[k]; t > 0 {
			r.SharePct = 100 * r.Cycles / t
		}
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
// toward its group's row and whether toward the total; a window looks a
// group up only when the name changes from the series before. Per-window
// partials fold together in window order with sorted keys, so float
// accumulation order is deterministic.
func rank(db *DB, m Matcher, n int, key func(*Labels) (name string, inRows, inTotal bool)) ([]rankRow, float64) {
	type winAgg struct {
		rows  map[string]*rankRow
		last  *rankRow
		total float64
	}
	aggs := make([]winAgg, queryWindows)
	db.scanWindows(m, func(w int, bs *bseries, j0, j1 int) {
		a := &aggs[w]
		name, inRows, inTotal := key(&bs.labels)
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
		for j := j0; j < j1; j++ {
			c := bs.cycles(j)
			if inTotal {
				a.total += c
			}
			if r != nil {
				r.samples += bs.samples[j]
				r.cycles += c
			}
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
	window := func(from, to uint64) map[string]uint64 {
		sums := make([]map[string]uint64, queryWindows)
		db.scanWindows(Matcher{Event: ev, FromEpoch: from, ToEpoch: to},
			func(w int, bs *bseries, j0, j1 int) {
				var n uint64
				for _, s := range bs.samples[j0:j1] {
					n += s
				}
				if sums[w] == nil {
					sums[w] = map[string]uint64{}
				}
				sums[w][bs.labels.Image] += n
			})
		m := map[string]uint64{}
		for _, s := range sums {
			for k, v := range s {
				m[k] += v // integer sums: merge order is irrelevant
			}
		}
		return m
	}
	rows := analysis.ShareDeltas(window(aFrom, aTo), window(bFrom, bTo))
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
