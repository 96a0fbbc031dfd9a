package optimize

// The closed §7 loop: profile -> plan -> rewrite -> re-measure -> repeat.
// This is the paper's continuous-optimization vision run to quiescence on
// the simulated machine: each iteration profiles the workload with the
// current rewrites in place, derives the next whole-image layout from what
// the profile says is hot now, measures the ground-truth effect of applying
// it (an unprofiled run, so collection overhead never pollutes the
// comparison), and keeps it only if it actually got faster. The loop ends
// at a layout fixed point (the plan stops changing anything) or when an
// iteration fails to improve — the convergence guard that keeps a noisy
// profile from oscillating the layout forever.

import (
	"fmt"

	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/sim"
)

// LoopConfig configures RunLoop.
type LoopConfig struct {
	// Base carries the workload identity (Workload, Scale, Seed, NumCPUs)
	// and, optionally, the profiling configuration. When Base.Mode
	// is ModeOff the loop profiles with dense zero-cost cycle sampling —
	// the §7 deployment would profile at the paper's default period over
	// hours; the loop compresses that into one short dense run.
	Base dcpi.Config
	// Image is the path of the image to optimize; empty picks the hottest
	// non-kernel image of the first profiled run.
	Image string
	// MaxIters bounds the loop (default 5).
	MaxIters int
	// Run executes one configured run; nil uses dcpi.Run. cmd/dcpiopt
	// injects a runner-backed implementation so repeated configurations
	// (the re-profile of a reverted layout, cross-invocation sweeps) hit
	// the content-keyed cache.
	Run func(dcpi.Config) (*dcpi.Result, error)
}

// Iteration is one profile->plan->measure round.
type Iteration struct {
	Plan  *Plan
	Stats sim.Stats // measured with the plan applied, unprofiled
	// Improved reports whether this layout beat the best previous state
	// (the baseline for iteration 0); the loop keeps only improving
	// layouts.
	Improved bool
}

// CPI is the iteration's measured cycles per instruction.
func (it *Iteration) CPI() float64 { return cpiOf(it.Stats) }

// LoopResult is the outcome of a closed optimization loop.
type LoopResult struct {
	Image    string
	Baseline sim.Stats // unprofiled run of the pristine workload
	Iters    []*Iteration
	// Converged is true when the loop reached quiescence: the plan derived
	// from the last profile changed nothing (a strict fixed point), or it
	// reproduced a layout already measured this loop (a profile-noise
	// cycle — re-measuring it can teach nothing new).
	Converged bool
	// Best indexes the iteration whose layout the loop settled on; -1
	// means no layout beat the baseline.
	Best int
	// Rewrites is the winning rewrite set ready for dcpi.Config.Rewrites
	// (empty when Best < 0).
	Rewrites []image.Layout
}

// BaselineCPI is the pristine workload's measured cycles per instruction.
func (r *LoopResult) BaselineCPI() float64 { return cpiOf(r.Baseline) }

// Speedup is baseline cycles over best cycles (1.0 = no change).
func (r *LoopResult) Speedup() float64 {
	if r.Best < 0 {
		return 1
	}
	return float64(r.Baseline.Cycles) / float64(r.Iters[r.Best].Stats.Cycles)
}

func cpiOf(s sim.Stats) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// RunLoop drives the closed profile->optimize->measure loop to a fixed
// point.
func RunLoop(cfg LoopConfig) (*LoopResult, error) {
	run := cfg.Run
	if run == nil {
		run = dcpi.Run
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 5
	}

	profCfg := cfg.Base
	if profCfg.Mode == sim.ModeOff {
		profCfg.Mode = sim.ModeCycles
		if profCfg.CyclesPeriod.Base == 0 {
			// Dense sampling stands in for the paper's hours of epochs; it
			// is zero-cost so the measured machine is undisturbed (the
			// honest comparison happens in the unprofiled runs anyway).
			profCfg.CyclesPeriod = sim.PeriodSpec{Base: 2048, Spread: 512}
		}
		profCfg.ZeroCostCollection = true
	}

	measure := func(rw []image.Layout) (sim.Stats, error) {
		mcfg := cfg.Base
		mcfg.Mode = sim.ModeOff
		mcfg.ZeroCostCollection = false
		mcfg.Rewrites = rw
		res, err := run(mcfg)
		if err != nil {
			return sim.Stats{}, err
		}
		return res.MachineStats, nil
	}

	baseline, err := measure(nil)
	if err != nil {
		return nil, err
	}
	out := &LoopResult{Image: cfg.Image, Baseline: baseline, Best: -1}
	bestCycles := baseline.Cycles

	var current []image.Layout
	seen := map[string]bool{}
	for len(out.Iters) < iters {
		pcfg := profCfg
		pcfg.Rewrites = current
		prof, err := run(pcfg)
		if err != nil {
			return nil, err
		}
		if out.Image == "" {
			out.Image, err = hottestImage(prof)
			if err != nil {
				return nil, err
			}
		}
		plan, err := PlanImage(prof, out.Image)
		if err != nil {
			return nil, err
		}
		if plan.Identity() || seen[plan.Layout.Digest()] {
			out.Converged = true
			break
		}
		seen[plan.Layout.Digest()] = true
		stats, err := measure([]image.Layout{plan.Layout})
		if err != nil {
			return nil, err
		}
		it := &Iteration{Plan: plan, Stats: stats, Improved: stats.Cycles < bestCycles}
		out.Iters = append(out.Iters, it)
		if !it.Improved {
			// Convergence guard: the new layout regressed (or tied), so it
			// is discarded — `current` keeps the best state. The next
			// iteration re-profiles that state; if the profile proposes the
			// same rejected plan again, the digest check above declares
			// quiescence instead of chasing profile noise.
			continue
		}
		bestCycles = stats.Cycles
		out.Best = len(out.Iters) - 1
		current = []image.Layout{plan.Layout}
	}
	out.Rewrites = current
	return out, nil
}

// hottestImage picks the non-kernel image with the most CYCLES samples.
func hottestImage(res *dcpi.Result) (string, error) {
	totals := map[string]uint64{}
	for _, row := range res.ProcRows() {
		totals[row.ImagePath] += row.Counts[sim.EvCycles]
	}
	best, bestN := "", uint64(0)
	for path, n := range totals {
		if im, ok := res.Loader.ImageByPath(path); !ok || im.Kind == image.KindKernel {
			continue
		}
		if n > bestN || (n == bestN && path < best) {
			best, bestN = path, n
		}
	}
	if best == "" || bestN == 0 {
		return "", fmt.Errorf("optimize: no sampled user image to optimize")
	}
	return best, nil
}
