package optimize

// Whole-image planning: lift ReorderProcedure from one procedure to a
// complete image.Layout. The plan is absolute — it lists every procedure
// with an explicit body taken from the profiled (possibly already
// rewritten) image — so applying a plan derived from iteration N's image to
// the pristine image reproduces iteration N+1 exactly, and plans compose
// across iterations of the optimization loop for free.

import (
	"fmt"
	"sort"

	"dcpi/internal/alpha"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/sim"
)

// ProcChange records what the plan did to one procedure.
type ProcChange struct {
	Name    string
	Samples uint64 // CYCLES samples attributed to the procedure
	// Rewritten procedures carry the block-layout statistics; skipped ones
	// carry the reason their body was left alone.
	Rewritten                      bool
	Inverted, AddedBrs, RemovedBrs int
	Skipped                        string
}

// Plan is a whole-image re-layout derived from one profiled run.
type Plan struct {
	Layout  image.Layout
	Changes []ProcChange // procedures whose bodies were rewritten
	Skips   []ProcChange // sampled procedures left alone, with reasons
	// Moved reports whether the procedure order differs from the profiled
	// image's order.
	Moved bool
}

// Identity reports whether the plan changes nothing relative to the image
// it was derived from: no body rewritten, no procedure moved. When the
// profiled image already carries the previous iteration's layout, an
// identity plan is the loop's fixed point.
func (p *Plan) Identity() bool { return !p.Moved && len(p.Changes) == 0 }

// PlanImage derives the §7 re-layout of one image from a profiled run:
// every sampled procedure's blocks are re-chained along its measured hot
// paths (ReorderProcedure), and procedures are reordered hottest-first
// after the entry procedure so hot code shares pages and I-cache lines
// with its callers instead of its padding. Unsafe procedures (computed
// jumps, unencodable displacements) keep their bodies; an image whose code
// cannot be relocated at all (cross-procedure PC-relative transfers, e.g.
// bsr) is rejected.
func PlanImage(res *dcpi.Result, imagePath string) (*Plan, error) {
	im, ok := res.Loader.ImageByPath(imagePath)
	if !ok {
		return nil, fmt.Errorf("optimize: image %q not registered by the run", imagePath)
	}
	if len(im.Symbols) == 0 {
		return nil, fmt.Errorf("optimize: image %q has no procedure symbols", imagePath)
	}

	samples := res.ProcSamples(imagePath, sim.EvCycles)
	if samples == nil {
		samples = make([]uint64, len(im.Symbols)) // no CYCLES profile: nothing sampled
	}

	// Order: the entry procedure is pinned first (execution starts at the
	// image base), then decreasing sample counts, original offset as the
	// deterministic tie-break (cold procedures keep their relative order).
	order := make([]int, len(im.Symbols))
	for i := range order {
		order[i] = i
	}
	rest := order[1:]
	sort.SliceStable(rest, func(a, b int) bool {
		sa, sb := samples[rest[a]], samples[rest[b]]
		if sa != sb {
			return sa > sb
		}
		return im.Symbols[rest[a]].Offset < im.Symbols[rest[b]].Offset
	})

	plan := &Plan{Layout: image.Layout{Path: imagePath}}
	for pos, si := range order {
		if si != pos {
			plan.Moved = true
		}
		name := im.Symbols[si].Name
		code, _, err := im.ProcCode(name)
		if err != nil {
			return nil, err
		}
		ch := ProcChange{Name: name, Samples: samples[si]}
		if ch.Samples > 0 {
			pa, err := res.AnalyzeProc(imagePath, name)
			if err != nil {
				return nil, err
			}
			r, err := ReorderProcedure(pa)
			switch {
			case err != nil:
				ch.Skipped = err.Error()
				plan.Skips = append(plan.Skips, ch)
			case !sameCode(r.Code, code):
				code = r.Code
				ch.Rewritten = true
				ch.Inverted, ch.AddedBrs, ch.RemovedBrs =
					r.Inverted, r.AddedBranches, r.RemovedBranches
				plan.Changes = append(plan.Changes, ch)
			}
		}
		// The body is always explicit — never nil — so the plan applies
		// identically to this image and to the pristine original.
		plan.Layout.Procs = append(plan.Layout.Procs, image.ProcLayout{Name: name, Code: code})
	}

	// Reject plans the image loader could not apply (e.g. a procedure that
	// branches into a neighbor) now, with the underlying reason, rather
	// than at the next run's setup.
	if _, err := im.WithLayout(plan.Layout); err != nil {
		return nil, err
	}
	return plan, nil
}

func sameCode(a, b []alpha.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
