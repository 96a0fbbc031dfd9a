package dcpi

import (
	"fmt"
	"io"
	"strings"

	"dcpi/internal/analysis"
	"dcpi/internal/image"
	"dcpi/internal/pipeline"
)

// ProgramSummary aggregates where an entire run's cycles went by combining
// every sampled procedure's stall summary, weighted by samples — the
// paper's §3 "summarize where time is spent in an entire program" tool.
type ProgramSummary struct {
	analysis.Summary
	BestCaseCPI float64
	ActualCPI   float64
	Procedures  int
}

// Summarize analyzes every sampled procedure in the run and aggregates.
func (r *Result) Summarize() (*ProgramSummary, error) {
	out := &ProgramSummary{}
	out.Static = make(map[pipeline.StallKind]float64)
	var totalSamples float64
	var bestW, actualW float64

	err := r.AnalyzeSampled(func(_ *image.Image, _ int, pa *analysis.ProcAnalysis) {
		w := float64(pa.Summary.TotalSamples)
		if w == 0 {
			return
		}
		out.Procedures++
		totalSamples += w
		out.TotalSamples += pa.Summary.TotalSamples
		out.Execution += w * pa.Summary.Execution
		out.DynTotal += w * pa.Summary.DynTotal
		out.UnexplainedStall += w * pa.Summary.UnexplainedStall
		out.UnexplainedGain += w * pa.Summary.UnexplainedGain
		for c := analysis.Cause(0); c < analysis.NumCauses; c++ {
			out.DynMin[c] += w * pa.Summary.DynMin[c]
			out.DynMax[c] += w * pa.Summary.DynMax[c]
		}
		for k, v := range pa.Summary.Static {
			out.Static[k] += w * v
		}
		bestW += w * pa.BestCaseCPI
		actualW += w * pa.ActualCPI
	})
	if err != nil {
		return nil, err
	}
	if totalSamples > 0 {
		inv := 1 / totalSamples
		out.Execution *= inv
		out.DynTotal *= inv
		out.UnexplainedStall *= inv
		out.UnexplainedGain *= inv
		for c := analysis.Cause(0); c < analysis.NumCauses; c++ {
			out.DynMin[c] *= inv
			out.DynMax[c] *= inv
		}
		for k := range out.Static {
			out.Static[k] *= inv
		}
		out.BestCaseCPI = bestW * inv
		out.ActualCPI = actualW * inv
	}
	return out, nil
}

// FormatProgramSummary renders the whole-program view.
func FormatProgramSummary(w io.Writer, ps *ProgramSummary) {
	fmt.Fprintf(w, "Whole-program summary over %d sampled procedures (%d samples)\n",
		ps.Procedures, ps.TotalSamples)
	fmt.Fprintf(w, "*** Sample-weighted best-case %.2fCPI, actual %.2fCPI\n***\n",
		ps.BestCaseCPI, ps.ActualCPI)
	pct := func(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }
	causes := []analysis.Cause{
		analysis.CauseICache, analysis.CauseITB, analysis.CauseDCache,
		analysis.CauseDTB, analysis.CauseWB, analysis.CauseSync,
		analysis.CauseBranchMP, analysis.CauseFUMul, analysis.CauseFUDiv,
	}
	for _, c := range causes {
		fmt.Fprintf(w, "***   %-22s %s to %s\n", c.String(), pct(ps.DynMin[c]), pct(ps.DynMax[c]))
	}
	fmt.Fprintf(w, "***   %-22s %s\n", "Unexplained stall", pct(ps.UnexplainedStall))
	fmt.Fprintf(w, "*** %s\n", strings.Repeat("-", 42))
	fmt.Fprintf(w, "***   %-22s %s\n", "Subtotal dynamic", pct(ps.DynTotal))
	kinds := []pipeline.StallKind{
		pipeline.StallSlotting, pipeline.StallRaDep, pipeline.StallRbDep,
		pipeline.StallRcDep, pipeline.StallFUDep,
	}
	for _, k := range kinds {
		fmt.Fprintf(w, "***   %-22s %s\n", k.String(), pct(ps.Static[k]))
	}
	fmt.Fprintf(w, "*** %s\n", strings.Repeat("-", 42))
	fmt.Fprintf(w, "***   %-22s %s\n", "Subtotal static", pct(ps.SubtotalStatic()))
	fmt.Fprintf(w, "***   %-22s %s\n", "Execution", pct(ps.Execution))
}
