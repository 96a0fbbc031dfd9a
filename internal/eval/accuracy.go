package eval

import (
	"fmt"
	"io"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/cfg"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/runner"
	"dcpi/internal/stats"
)

// Figures 8 and 9: accuracy of the frequency estimates against dcpix-style
// exact execution counts, as weighted error histograms split by predicted
// confidence.

// AccuracyResult holds one histogram per confidence level plus the paper's
// headline within-X% fractions.
type AccuracyResult struct {
	Hist map[analysis.Confidence]*stats.Histogram
	// Within are the overall weighted fractions with |error| <= 5/10/15%.
	Within5, Within10, Within15 float64
	TotalWeight                 float64
	Procedures                  int
}

func newAccuracyResult() *AccuracyResult {
	mk := func() *stats.Histogram { return stats.NewHistogram(-0.475, 0.475, 0.05) }
	return &AccuracyResult{Hist: map[analysis.Confidence]*stats.Histogram{
		analysis.ConfLow:    mk(),
		analysis.ConfMedium: mk(),
		analysis.ConfHigh:   mk(),
	}}
}

func (a *AccuracyResult) add(conf analysis.Confidence, err, weight float64) {
	if weight <= 0 {
		return
	}
	a.Hist[conf].Add(err, weight)
	a.TotalWeight += weight
	abs := err
	if abs < 0 {
		abs = -abs
	}
	if abs <= 0.05 {
		a.Within5 += weight
	}
	if abs <= 0.10 {
		a.Within10 += weight
	}
	if abs <= 0.15 {
		a.Within15 += weight
	}
}

func (a *AccuracyResult) finish() {
	if a.TotalWeight > 0 {
		a.Within5 /= a.TotalWeight
		a.Within10 /= a.TotalWeight
		a.Within15 /= a.TotalWeight
	}
}

// forEachProcAnalysis runs a workload suite with dense zero-cost CYCLES
// sampling and exact counting, invoking fn for every sampled procedure.
// All runs are submitted up front; Figures 8 and 9 request identical
// configurations, so a shared runner simulates the suite once for both, and
// since a result keeps its analyses, analyses each procedure once for both.
func forEachProcAnalysis(o Options, suite []string, sampling dcpi.Config,
	fn func(r *dcpi.Result, im *image.Image, s int, pa *analysis.ProcAnalysis)) error {
	o = o.withDefaults()
	pending := make([]*runner.Pending, len(suite))
	for i, wl := range suite {
		pending[i] = o.Runner.Submit(accCfg(o, wl, 0, sampling))
	}
	for i, wl := range suite {
		r, err := pending[i].Wait()
		if err != nil {
			return fmt.Errorf("accuracy %s: %w", wl, err)
		}
		err = r.AnalyzeSampled(func(im *image.Image, s int, pa *analysis.ProcAnalysis) { fn(r, im, s, pa) })
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig8 measures instruction-frequency estimate errors, weighted by CYCLES
// samples (paper Figure 8).
func Fig8(o Options) (*AccuracyResult, error) {
	defer o.span("Figure 8")()
	res := newAccuracyResult()
	err := forEachProcAnalysis(o, AccuracyWorkloads, denseCycles,
		func(r *dcpi.Result, im *image.Image, _ int, pa *analysis.ProcAnalysis) {
			res.Procedures++
			res.addFreqErrors(pa, r.Exact.Exec[im.ID])
		})
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// addFreqErrors adds the error of each sampled instruction's frequency
// estimate in pa, against exact, its image's execution counts, weighted by
// its samples (Figure 8's measure).
func (a *AccuracyResult) addFreqErrors(pa *analysis.ProcAnalysis, exact []uint64) {
	base := int(pa.BaseOffset / alpha.InstBytes)
	for i := range pa.Insts {
		ia := &pa.Insts[i]
		weight := float64(ia.Samples)
		if weight == 0 {
			continue
		}
		truth := float64(exact[base+i])
		var errFrac float64
		switch {
		case truth == 0 && ia.Freq <= 0:
			errFrac = 0
		case truth == 0:
			errFrac = 10 // clamps into the top bucket
		default:
			errFrac = ia.Freq/truth - 1
		}
		a.add(ia.Confidence, errFrac, weight)
	}
}

// Fig9 measures CFG edge-frequency estimate errors, weighted by true edge
// executions (paper Figure 9; edges never receive samples directly).
func Fig9(o Options) (*AccuracyResult, error) {
	return fig9(o, denseCycles)
}

// fig9 is Figure 9 over the accuracy suite sampled as sampling says.
func fig9(o Options, sampling dcpi.Config) (*AccuracyResult, error) {
	defer o.span("Figure 9")()
	res := newAccuracyResult()
	err := forEachProcAnalysis(o, AccuracyWorkloads, sampling,
		func(r *dcpi.Result, im *image.Image, s int, pa *analysis.ProcAnalysis) {
			sym := im.Symbols[s]
			exact := r.Exact.Exec[im.ID]
			taken := r.Exact.Taken[im.ID]
			g := pa.Graph
			res.Procedures++
			base := int(sym.Offset / alpha.InstBytes)
			for ei, e := range g.Edges {
				if e.From < 0 || e.To < 0 || e.Kind == cfg.EdgeVirtual {
					continue
				}
				lastLocal := g.Blocks[e.From].End - 1
				last := pa.Insts[lastLocal].Inst
				gi := base + lastLocal
				var truth float64
				switch {
				case last.Op.IsCondBranch() && e.Kind == cfg.EdgeTaken:
					truth = float64(taken[gi])
				case last.Op.IsCondBranch() && e.Kind == cfg.EdgeFallthrough:
					truth = float64(exact[gi]) - float64(taken[gi])
				default:
					// Unconditional flow: the edge runs whenever the block's
					// last instruction does.
					truth = float64(exact[gi])
				}
				est := pa.EdgeFreq[ei] * pa.Period
				conf := pa.ClassConf[g.EdgeClass[ei]]
				weight := truth
				if truth == 0 {
					// Never-executed edge: correct if estimated (near) zero.
					if est > 0.5*pa.Period {
						res.add(conf, 10, est/pa.Period)
					}
					continue
				}
				res.add(conf, est/truth-1, weight)
			}
		})
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// Fig9DoubleSampling repeats the edge-frequency experiment with the §7
// double-sampling prototype enabled: measured edge samples let the analysis
// split block frequencies across conditional successors directly, which is
// exactly the improvement the paper anticipates from edge samples.
func Fig9DoubleSampling(o Options) (*AccuracyResult, error) {
	sampling := denseCycles
	sampling.DoubleSample = true
	return fig9(o, sampling)
}

// Fig9Interpretation repeats the edge-frequency experiment with the §7
// instruction-interpretation prototype: sampled conditional branches are
// decoded and their direction recorded, yielding edge samples without the
// second interrupt double sampling needs.
func Fig9Interpretation(o Options) (*AccuracyResult, error) {
	sampling := denseCycles
	sampling.InterpretBranches = true
	return fig9(o, sampling)
}

// FormatAccuracy renders a Figure 8/9-style histogram table.
func FormatAccuracy(w io.Writer, title string, res *AccuracyResult) {
	fmt.Fprintf(w, "%s\n\n", title)
	fmt.Fprintf(w, "%12s %10s %10s %10s\n", "error bucket", "low", "medium", "high")
	n := len(res.Hist[analysis.ConfHigh].Buckets)
	for i := 0; i < n; i++ {
		lo, hi := res.Hist[analysis.ConfHigh].BucketLabel(i)
		fmt.Fprintf(w, "%5.0f..%3.0f%% ", 100*lo, 100*hi)
		for _, conf := range []analysis.Confidence{analysis.ConfLow, analysis.ConfMedium, analysis.ConfHigh} {
			h := res.Hist[conf]
			fmt.Fprintf(w, " %9.2f%%", 100*h.Buckets[i]/max(res.TotalWeight, 1))
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "\nwithin  5%%: %5.1f%%\nwithin 10%%: %5.1f%%\nwithin 15%%: %5.1f%%\n",
		100*res.Within5, 100*res.Within10, 100*res.Within15)
	fmt.Fprintf(w, "(%d procedures, total weight %.0f)\n", res.Procedures, res.TotalWeight)
}
