package eval

import (
	"fmt"
	"io"

	"dcpi/internal/dcpi"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// Figures 1-4: the paper's worked tool-output examples, regenerated on the
// simulated machine.

// Fig1 profiles the x11perf-like workload in default mode and writes the
// dcpiprof per-procedure listing.
func Fig1(o Options, w io.Writer) error {
	defer o.span("Figure 1")()
	o = o.withDefaults()
	r, err := o.Runner.Run(dcpi.Config{
		Workload:     "x11perf",
		Scale:        o.Scale,
		Mode:         sim.ModeDefault,
		Seed:         seedFor("fig1", "x11perf", 0),
		CyclesPeriod: sim.DenseCyclesPeriod,
	})
	if err != nil {
		return fmt.Errorf("fig1: %w", err)
	}
	dcpi.FormatProcList(w, r, 12)
	return nil
}

// Fig2 profiles the McCalpin copy loop and writes the dcpicalc annotated
// listing of the copy-loop basic block.
func Fig2(o Options, w io.Writer) error {
	defer o.span("Figure 2")()
	o = o.withDefaults()
	r, err := o.Runner.Run(dcpi.Config{
		Workload:     "mccalpin-assign",
		Scale:        o.Scale,
		Mode:         sim.ModeCycles,
		Seed:         seedFor("fig2", "mccalpin-assign", 0),
		CyclesPeriod: sim.DenseCyclesPeriod,
	})
	if err != nil {
		return fmt.Errorf("fig2: %w", err)
	}
	pa, err := r.AnalyzeProc("/bin/mccalpin", "copyloop")
	if err != nil {
		return err
	}
	dcpi.FormatCalc(w, pa)
	return nil
}

// Fig7 regenerates the paper's frequency-estimation walkthrough: the
// Sᵢ/Mᵢ table for the copy loop with the cluster-selected issue points
// starred.
func Fig7(o Options, w io.Writer) error {
	defer o.span("Figure 7")()
	o = o.withDefaults()
	r, err := o.Runner.Run(dcpi.Config{
		Workload:           "mccalpin-assign",
		Scale:              o.Scale,
		Mode:               sim.ModeCycles,
		Seed:               seedFor("fig7", "mccalpin-assign", 0),
		CyclesPeriod:       sim.DenseCyclesPeriod,
		ZeroCostCollection: true,
	})
	if err != nil {
		return fmt.Errorf("fig7: %w", err)
	}
	pa, err := r.AnalyzeProc("/bin/mccalpin", "copyloop")
	if err != nil {
		return err
	}
	dcpi.FormatFreqTable(w, pa)
	return nil
}

// Fig3 runs wave5 eight times with different page placements and writes the
// dcpistats cross-run variance table; it returns the per-run procedure
// sample maps so Fig4 can reuse the fastest run.
func Fig3(o Options, w io.Writer) ([]*dcpi.Result, error) {
	defer o.span("Figure 3")()
	o = o.withDefaults()
	const runs = 8
	pending := make([]*runner.Pending, runs)
	for i := range pending {
		pending[i] = o.Runner.Submit(dcpi.Config{
			Workload:     "wave5",
			Scale:        o.Scale,
			Mode:         sim.ModeCycles,
			Seed:         seedFor("fig3", "wave5", i),
			CyclesPeriod: sim.DenseCyclesPeriod,
		})
	}
	var (
		results []*dcpi.Result
		maps    []map[string]uint64
		totals  []uint64
	)
	for i := 0; i < runs; i++ {
		r, err := pending[i].Wait()
		if err != nil {
			return nil, fmt.Errorf("fig3 run %d: %w", i, err)
		}
		results = append(results, r)
		m := r.ProcSampleMap()
		maps = append(maps, m)
		var t uint64
		for _, v := range m {
			t += v
		}
		totals = append(totals, t)
	}
	rows := dcpi.StatsAcrossRuns(maps)
	dcpi.FormatStats(w, rows, totals, 12)
	return results, nil
}

// Fig4 writes the dcpicalc stall summary for smooth_ from the fastest of
// the runs Fig3 returned (the paper's Figure 4).
func Fig4(w io.Writer, fig3Runs []*dcpi.Result) error {
	fastest := fig3Runs[0]
	for _, r := range fig3Runs[1:] {
		if r.Wall < fastest.Wall {
			fastest = r
		}
	}
	pa, err := fastest.AnalyzeProc("/usr/bin/wave5", "smooth_")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Summary of how cycles are spent in smooth_ (fastest of %d runs)\n\n", len(fig3Runs))
	dcpi.FormatSummary(w, pa)
	return nil
}
