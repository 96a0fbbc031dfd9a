package eval

import (
	"fmt"
	"io"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// Paper §6.2: "To gauge how the accuracy of the estimates is affected by
// the number of CYCLES samples gathered, we compared the estimates obtained
// from a profile for a single run of the integer workloads with those
// obtained from 80 runs" — single run 54% within 5%, 80 runs 70%; gcc went
// from 23% to 53%. This experiment merges profiles across N runs and
// measures the same effect.

// MultiRunResult compares estimate accuracy for 1 vs N merged runs.
type MultiRunResult struct {
	Runs                     int
	SingleWithin5, Within5   float64
	SingleWithin10, Within10 float64
}

// Fig8MultiRun runs each accuracy workload Runs times, merges the profiles
// (and the exact counts), and compares frequency-estimate accuracy against
// the single-run case.
func Fig8MultiRun(o Options, runs int) (*MultiRunResult, error) {
	o = o.withDefaults()
	defer o.span("Figure 8 multi-run")()
	if runs < 2 {
		runs = 4
	}
	res := &MultiRunResult{Runs: runs}

	single := newAccuracyResult()
	merged := newAccuracyResult()

	// Submit every run of every workload before collecting anything, so
	// the whole grid fans out across the runner's workers at once. Run 0
	// of each workload is the accuracy suite's own run (accCfg), so with a
	// shared runner the single-run baseline costs no extra simulation.
	pending := make([][]*runner.Pending, len(AccuracyWorkloads))
	for wi, wl := range AccuracyWorkloads {
		for run := 0; run < runs; run++ {
			pending[wi] = append(pending[wi], o.Runner.Submit(accCfg(o, wl, run, denseCycles)))
		}
	}

	for wi, wl := range AccuracyWorkloads {
		// Collect per-run profiles and exact counts.
		type runData struct {
			r *dcpi.Result
		}
		var rds []runData
		for run := 0; run < runs; run++ {
			r, err := pending[wi][run].Wait()
			if err != nil {
				return nil, fmt.Errorf("multirun %s run %d: %w", wl, run, err)
			}
			rds = append(rds, runData{r})
		}

		first := rds[0].r
		model, period := first.Model(), first.AvgCyclesPeriod()
		var cur *image.Image
		var mergedSamples, mergedExact []uint64
		// The single run is Figure 8's run 0, analysed once for both.
		err := first.AnalyzeSampled(func(im *image.Image, s int, paSingle *analysis.ProcAnalysis) {
			if im != cur {
				// Merge samples and exact counts across runs. Images are
				// identical across runs (same workload source), so offsets
				// align.
				cur = im
				mergedSamples = make([]uint64, len(im.Code))
				mergedExact = make([]uint64, len(im.Code))
				for _, rd := range rds {
					for i, n := range rd.r.InstSamples(im.Path, sim.EvCycles) {
						mergedSamples[i] += n
					}
					rim, ok := rd.r.Loader.ImageByPath(im.Path)
					if !ok {
						continue
					}
					for i, n := range rd.r.Exact.Exec[rim.ID] {
						mergedExact[i] += n
					}
				}
			}
			g, _ := im.ProcGraph(s)
			lo := g.BaseOffset / alpha.InstBytes
			paMerged := analysis.Analyze(im.Symbols[s].Name, g,
				analysis.Inputs{Samples: mergedSamples[lo : lo+uint64(len(g.Code))]}, model, period)
			single.addFreqErrors(paSingle, first.Exact.Exec[im.ID])
			merged.addFreqErrors(paMerged, mergedExact)
		})
		if err != nil {
			return nil, err
		}
	}
	single.finish()
	merged.finish()
	res.SingleWithin5, res.SingleWithin10 = single.Within5, single.Within10
	res.Within5, res.Within10 = merged.Within5, merged.Within10
	return res, nil
}

// FormatMultiRun renders the comparison.
func FormatMultiRun(w io.Writer, res *MultiRunResult) {
	fmt.Fprintf(w, "§6.2 sample-count sensitivity: 1 run vs %d merged runs\n\n", res.Runs)
	fmt.Fprintf(w, "%-14s %10s %10s\n", "", "within 5%", "within 10%")
	fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%%\n", "single run", 100*res.SingleWithin5, 100*res.SingleWithin10)
	fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%%\n", fmt.Sprintf("%d runs merged", res.Runs),
		100*res.Within5, 100*res.Within10)
}
