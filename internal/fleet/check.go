package fleet

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"dcpi/internal/analysis"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// Query names the fleet answers Check recomputes from the databases: the
// CYCLES range query of Image over [RangeFrom, RangeTo] (none when Image is
// empty) and the CYCLES share delta of window A against window B (empty
// when a window is zero). All windows are inclusive.
type Query struct {
	Image              string
	RangeFrom, RangeTo uint64
	AFrom, ATo         uint64
	BFrom, BTo         uint64
}

// Truth is what the per-machine databases say a Query's answers are.
type Truth struct {
	Epochs int                 // sealed machine-epochs read
	Range  []tsdb.RangeRow     // ascending by epoch, as tsdb.RangeQuery answers
	Delta  []analysis.DeltaRow // the whole ranking; /query/delta answers its first n rows
}

// Check is the fleet's ground truth. It opens each machine's profile
// database once, reads every sealed epoch once, and holds the store to five
// rules for each (machine, epoch):
//
//   - once: no (labels, epoch) point is stored twice;
//   - present: every sealed epoch is in the store, and no other epoch is;
//   - samples: the image-level points carry the .prof totals, over the same
//     set of (image, event) series;
//   - metadata: every point's Insts, Wall and Period are the epoch metadata
//     as expo serves it (the image's exact count on image rows, 0 on
//     procedure rows);
//   - procedures: when the epoch has procedure rows, they sum exactly to
//     their image row.
//
// The error names the machine, epoch and rule of the first violation. The
// same pass accumulates q's answers into the returned Truth.
func (f *Fleet) Check(store *tsdb.DB, q Query) (*Truth, error) {
	t := &Truth{}
	rows := map[uint64]tsdb.RangeRow{}
	cycles := map[uint64]float64{} // every image's CYCLES cycles per range epoch
	before, after := map[string]uint64{}, map[string]uint64{}
	for _, m := range f.Machines {
		db, err := profiledb.OpenReader(m.DBDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		epochs, err := db.Epochs()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		stored := map[uint64][]tsdb.Point{}
		all := store.Select(tsdb.Matcher{Machine: m.Name, AnyEvent: true, AnyProc: true})
		for _, p := range all {
			stored[p.Epoch] = append(stored[p.Epoch], p)
		}
		unsealed := len(all) // points outside every sealed epoch
		for _, ep := range epochs {
			e := uint64(ep)
			meta, ok, err := db.MetaAt(ep)
			if err != nil {
				return nil, fmt.Errorf("%s epoch %d: %w", m.Name, e, err)
			}
			if !ok {
				continue // still open: the collector must not have it yet
			}
			profiles, err := db.ProfilesAt(ep)
			if err != nil {
				return nil, fmt.Errorf("%s epoch %d: %w", m.Name, e, err)
			}
			if rule, err := checkEpoch(store.HasEpoch(m.Name, e), stored[e], profiles, meta); err != nil {
				return nil, fmt.Errorf("%s epoch %d: %s: %w", m.Name, e, rule, err)
			}
			unsealed -= len(stored[e])
			t.Epochs++
			for _, p := range profiles {
				if p.Event != sim.EvCycles {
					continue
				}
				n := p.Total()
				if q.AFrom <= e && e <= q.ATo {
					before[p.ImagePath] += n
				}
				if q.BFrom <= e && e <= q.BTo {
					after[p.ImagePath] += n
				}
				if q.Image == "" || e < q.RangeFrom || e > q.RangeTo {
					continue
				}
				c := float64(n) * meta.CyclesPeriod
				cycles[e] += c
				if p.ImagePath != q.Image {
					continue
				}
				r := rows[e]
				r.Epoch = e
				r.Machines++
				r.Samples += n
				r.Cycles += c
				r.Insts += meta.ImageInsts[q.Image]
				rows[e] = r
			}
		}
		if unsealed > 0 {
			return nil, fmt.Errorf("%s: present: %d points in epochs the database has not sealed", m.Name, unsealed)
		}
	}
	for _, r := range rows {
		if r.Insts > 0 {
			r.CPI = r.Cycles / float64(r.Insts)
		}
		if c := cycles[r.Epoch]; c > 0 {
			r.SharePct = 100 * r.Cycles / c
		}
		t.Range = append(t.Range, r)
	}
	sort.Slice(t.Range, func(i, j int) bool { return t.Range[i].Epoch < t.Range[j].Epoch })
	t.Delta = analysis.ShareDeltas(before, after)
	return t, nil
}

// checkEpoch applies the five rules to one sealed (machine, epoch): whether
// the store has the epoch, the points it holds for it, and what the
// database holds. It returns the rule a violation breaks.
func checkEpoch(present bool, pts []tsdb.Point, profiles []*profiledb.Profile, meta profiledb.Meta) (string, error) {
	if !present {
		return "present", fmt.Errorf("sealed, but not in the store")
	}
	seen := map[tsdb.Labels]bool{}
	images, procs := map[string]uint64{}, map[string]uint64{} // by "image/event"
	for _, p := range pts {
		if seen[p.Labels] {
			return "once", fmt.Errorf("%s:%s/%s stored twice", p.Image, p.Proc, p.Event)
		}
		seen[p.Labels] = true
		sums, insts := images, meta.ImageInsts[p.Image]
		if p.Proc != "" {
			sums, insts = procs, 0
		}
		sums[p.Image+"/"+p.Event.String()] += p.Samples
		if p.Insts != insts || p.Wall != meta.WallCycles || p.Period != meta.CyclesPeriod {
			return "metadata", fmt.Errorf("%s:%s/%s: insts %d wall %d period %v, metadata %d %d %v",
				p.Image, p.Proc, p.Event, p.Insts, p.Wall, p.Period, insts, meta.WallCycles, meta.CyclesPeriod)
		}
	}
	want := map[string]uint64{}
	for _, p := range profiles {
		want[p.ImagePath+"/"+p.Event.String()] = p.Total()
	}
	if !maps.Equal(images, want) {
		return "samples", fmt.Errorf("image rows %v, database totals %v", images, want)
	}
	if len(procs) > 0 && !maps.Equal(procs, images) {
		return "procedures", fmt.Errorf("procedure rows sum to %v, image rows %v", procs, images)
	}
	return "", nil
}

// MatchRange reports the first row where a range answer differs from the
// ground truth: counts exactly, cycles, CPI and share up to the order the
// store and the databases sum floats in.
func (t *Truth) MatchRange(got []tsdb.RangeRow) error {
	if len(got) != len(t.Range) {
		return fmt.Errorf("%d rows in the answer, %d epochs with data in the databases", len(got), len(t.Range))
	}
	for i, w := range t.Range {
		g := got[i]
		if g.Epoch != w.Epoch || g.Machines != w.Machines || g.Samples != w.Samples || g.Insts != w.Insts ||
			!closeEnough(g.Cycles, w.Cycles) || !closeEnough(g.CPI, w.CPI) || !closeEnough(g.SharePct, w.SharePct) {
			return fmt.Errorf("answer %+v, ground truth %+v", g, w)
		}
	}
	return nil
}

// closeEnough absorbs float summation-order differences.
func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
