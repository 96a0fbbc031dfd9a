package eval

import (
	"fmt"
	"io"

	"dcpi/internal/analysis"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/sim"
	"dcpi/internal/stats"
)

// Figure 10: correlation between the culprit analysis's I-cache stall-cycle
// ranges and independently measured IMISS events, per procedure.

// Fig10Point is one procedure's pair of measurements.
type Fig10Point struct {
	Workload  string
	Procedure string
	// IMissEvents is the projected number of I-cache misses (IMISS samples
	// scaled by the sampling period).
	IMissEvents float64
	// StallMin/StallMax bound the stall cycles attributed to I-cache misses
	// by the analysis.
	StallMin, StallMax float64
}

// Fig10Result holds the scatter plus the paper's three correlation
// coefficients (top, bottom, midpoint of each range).
type Fig10Result struct {
	Points              []Fig10Point
	RTop, RBottom, RMid float64
}

// Fig10 runs the suite in default mode (CYCLES + IMISS) and correlates.
// Sampling is denser than the Figure 8/9 runs so the many small procedures
// of the I-cache-pressure programs each gather enough samples to place.
// The denser periods make these configurations distinct from the Figure
// 8/9 runs, so they never falsely share cached simulations with them.
func Fig10(o Options) (*Fig10Result, error) {
	defer o.span("Figure 10")()
	res := &Fig10Result{}
	err := forEachProcAnalysis(o, Fig10Workloads, fig10Sampling,
		func(r *dcpi.Result, im *image.Image, s int, pa *analysis.ProcAnalysis) {
			if pa.Summary.TotalSamples < 8 {
				return
			}
			var imissSamples uint64
			if inProc := r.ProcSamples(im.Path, sim.EvIMiss); inProc != nil {
				imissSamples = inProc[s]
			}
			events := float64(imissSamples) * r.AvgEventPeriod()
			totalCycles := float64(pa.Summary.TotalSamples) * pa.Period
			res.Points = append(res.Points, Fig10Point{
				Workload:    r.Config.Workload,
				Procedure:   im.Symbols[s].Name,
				IMissEvents: events,
				StallMin:    pa.Summary.DynMin[analysis.CauseICache] * totalCycles,
				StallMax:    pa.Summary.DynMax[analysis.CauseICache] * totalCycles,
			})
		})
	if err != nil {
		return nil, err
	}
	var xs, top, bottom, mid []float64
	for _, p := range res.Points {
		xs = append(xs, p.IMissEvents)
		top = append(top, p.StallMax)
		bottom = append(bottom, p.StallMin)
		mid = append(mid, (p.StallMin+p.StallMax)/2)
	}
	res.RTop = stats.Correlation(xs, top)
	res.RBottom = stats.Correlation(xs, bottom)
	res.RMid = stats.Correlation(xs, mid)
	return res, nil
}

// fig10Sampling is Figure 10's sampling: CYCLES and IMISS, both denser
// than the Figure 8/9 runs.
var fig10Sampling = dcpi.Config{
	Mode:         sim.ModeDefault,
	CyclesPeriod: sim.PeriodSpec{Base: 256, Spread: 64},
	EventPeriod:  sim.PeriodSpec{Base: 64, Spread: 16},
}

// FormatFig10 renders the scatter and correlations.
func FormatFig10(w io.Writer, res *Fig10Result) {
	fmt.Fprintf(w, "Figure 10: I-cache miss stall cycles vs IMISS events per procedure\n\n")
	fmt.Fprintf(w, "%-12s %-24s %14s %14s %14s\n", "workload", "procedure", "imiss events", "stall min", "stall max")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-12s %-24s %14.0f %14.0f %14.0f\n",
			p.Workload, p.Procedure, p.IMissEvents, p.StallMin, p.StallMax)
	}
	fmt.Fprintf(w, "\ncorrelation (top of range)    r = %.3f\n", res.RTop)
	fmt.Fprintf(w, "correlation (bottom of range) r = %.3f\n", res.RBottom)
	fmt.Fprintf(w, "correlation (midpoint)        r = %.3f\n", res.RMid)
}
