package dcpi

import (
	"sort"

	"dcpi/internal/daemon"
	"dcpi/internal/sim"
	"dcpi/internal/stats"
)

// ProcRow is one dcpiprof output row: samples aggregated by procedure.
type ProcRow struct {
	Procedure string
	ImagePath string
	Counts    [sim.NumEvents]uint64
}

// ProcRows aggregates every profile by procedure, sorted by decreasing
// CYCLES samples (the dcpiprof view, Figure 1). A registered image's rows
// are its split (ProcSamples) and one "<unknown>" row for the samples at no
// procedure's offset; every sample of an image that is not registered is
// its "<unknown>" row. A per-process profile (daemon.ProfileName) is split
// against its image into rows of its own, whose image is the profile's
// name: its samples are the aggregate's too, so ProcSampleMap and
// TotalSamples leave them out.
func (r *Result) ProcRows() []ProcRow {
	type key struct{ img, proc string }
	agg := make(map[key]*ProcRow)
	add := func(img, proc string, ev sim.Event, n uint64) {
		if n == 0 {
			return
		}
		k := key{img, proc}
		row, ok := agg[k]
		if !ok {
			row = &ProcRow{Procedure: proc, ImagePath: img}
			agg[k] = row
		}
		row.Counts[ev] += n
	}
	for _, p := range r.profiles {
		if p.Event == sim.EvEdge {
			continue // packed (from, to) keys; not per-instruction offsets
		}
		path, pid := daemon.ParseProfileName(p.ImagePath)
		im, ok := r.Loader.ImageByPath(path)
		if !ok {
			add(p.ImagePath, "<unknown>", p.Event, p.Total())
			continue
		}
		var perProc []uint64
		var rest uint64
		if pid == 0 {
			sp := r.split(im)
			perProc, rest = sp.perProc[p.Event], sp.rest[p.Event]
		} else {
			perProc, _, rest = im.SplitCounts(p.Counts)
		}
		for s, n := range perProc {
			add(p.ImagePath, im.Symbols[s].Name, p.Event, n)
		}
		add(p.ImagePath, "<unknown>", p.Event, rest)
	}
	out := make([]ProcRow, 0, len(agg))
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Counts[sim.EvCycles] != out[j].Counts[sim.EvCycles] {
			return out[i].Counts[sim.EvCycles] > out[j].Counts[sim.EvCycles]
		}
		if out[i].Procedure != out[j].Procedure {
			return out[i].Procedure < out[j].Procedure
		}
		return out[i].ImagePath < out[j].ImagePath
	})
	return out
}

// TotalSamples sums samples of one event across the aggregate profiles,
// each sample once: a per-process profile repeats samples of its image's.
func (r *Result) TotalSamples(ev sim.Event) uint64 {
	var t uint64
	for _, p := range r.profiles {
		if _, pid := daemon.ParseProfileName(p.ImagePath); p.Event == ev && pid == 0 {
			t += p.Total()
		}
	}
	return t
}

// ProcSampleMap returns procedure -> CYCLES samples for dcpistats, each
// sample counted once (per-process rows left out).
func (r *Result) ProcSampleMap() map[string]uint64 {
	out := make(map[string]uint64)
	for _, row := range r.ProcRows() {
		if _, pid := daemon.ParseProfileName(row.ImagePath); row.Counts[sim.EvCycles] > 0 && pid == 0 {
			out[row.Procedure] += row.Counts[sim.EvCycles]
		}
	}
	return out
}

// StatRow is one dcpistats output row (Figure 3): per-procedure variation
// across sample sets.
type StatRow struct {
	Procedure string
	Sum       uint64
	N         int
	Mean      float64
	StdDev    float64
	Min       uint64
	Max       uint64
}

// RangePct is (max-min)/sum, the paper's "range%" sort key.
func (s StatRow) RangePct() float64 {
	if s.Sum == 0 {
		return 0
	}
	return float64(s.Max-s.Min) / float64(s.Sum)
}

// SumPct returns this procedure's share of all samples in all sets.
func (s StatRow) SumPct(total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(total)
}

// StatsAcrossRuns computes dcpistats rows from per-run procedure sample
// maps, sorted by decreasing range%.
func StatsAcrossRuns(runs []map[string]uint64) []StatRow {
	procs := map[string]bool{}
	for _, run := range runs {
		for p := range run {
			procs[p] = true
		}
	}
	var out []StatRow
	xs := make([]float64, len(runs))
	for proc := range procs {
		row := StatRow{Procedure: proc, N: len(runs), Min: ^uint64(0)}
		for i, run := range runs {
			v := run[proc]
			row.Sum += v
			row.Min, row.Max = min(row.Min, v), max(row.Max, v)
			xs[i] = float64(v)
		}
		row.Mean, row.StdDev = stats.Mean(xs), stats.StdDev(xs)
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].RangePct(), out[j].RangePct()
		if ri != rj {
			return ri > rj
		}
		return out[i].Procedure < out[j].Procedure
	})
	return out
}
