package eval

import (
	"fmt"
	"io"

	"dcpi/internal/runner"
	"dcpi/internal/sim"
	"dcpi/internal/stats"
	"dcpi/internal/workload"
)

// Table2Row is one workload's base characterization (paper Table 2).
type Table2Row struct {
	Workload    string
	Description string
	NumCPUs     int
	MeanCycles  float64
	CI95        float64
	Runs        int
}

// Table2 measures base (unprofiled) run times with confidence intervals.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()
	defer o.span("Table 2")()
	pending := make([][]*runner.Pending, len(o.Workloads))
	for wi, wl := range o.Workloads {
		for run := 0; run < o.Runs; run++ {
			pending[wi] = append(pending[wi], o.Runner.Submit(modeCfg(o, wl, sim.ModeOff, run)))
		}
	}
	var rows []Table2Row
	for wi, wl := range o.Workloads {
		results, err := collect(pending[wi], "table2 "+wl)
		if err != nil {
			return nil, err
		}
		var times []float64
		var ncpu int
		for _, r := range results {
			times = append(times, float64(r.Wall))
			ncpu = r.NumCPUs
		}
		spec, _ := workload.Get(wl)
		rows = append(rows, Table2Row{
			Workload: wl, Description: spec.Description, NumCPUs: ncpu,
			MeanCycles: stats.Mean(times), CI95: stats.CI95(times), Runs: o.Runs,
		})
	}
	return rows, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: workloads and base runtimes (simulated cycles, 95%% CI)\n\n")
	fmt.Fprintf(w, "%-18s %5s %16s %14s  %s\n", "workload", "CPUs", "mean cycles", "95% CI", "description")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %5d %16.0f %10.0f (±)  %s\n",
			r.Workload, r.NumCPUs, r.MeanCycles, r.CI95, r.Description)
	}
}

// Table3Row is one workload's slowdown under each profiling configuration
// (paper Table 3).
type Table3Row struct {
	Workload string
	// Overhead[mode] is the mean slowdown fraction with its CI half-width.
	Overhead map[sim.Mode]Measurement
}

// Measurement is a mean with a 95% confidence half-width.
type Measurement struct {
	Mean float64
	CI   float64
	N    int
}

// Table3Modes are the profiled configurations measured against base.
var Table3Modes = []sim.Mode{sim.ModeCycles, sim.ModeDefault, sim.ModeMux}

// Table3 measures the overall time overhead of the three configurations.
// Its base runs are the same configurations as Table 2's, so a shared
// runner simulates them only once.
func Table3(o Options) ([]Table3Row, error) {
	o = o.withDefaults()
	defer o.span("Table 3")()
	type wlPending struct {
		base  []*runner.Pending
		modes map[sim.Mode][]*runner.Pending
	}
	pending := make([]wlPending, len(o.Workloads))
	for wi, wl := range o.Workloads {
		pending[wi].modes = map[sim.Mode][]*runner.Pending{}
		for run := 0; run < o.Runs; run++ {
			pending[wi].base = append(pending[wi].base, o.Runner.Submit(modeCfg(o, wl, sim.ModeOff, run)))
		}
		for _, mode := range Table3Modes {
			for run := 0; run < o.Runs; run++ {
				pending[wi].modes[mode] = append(pending[wi].modes[mode],
					o.Runner.Submit(modeCfg(o, wl, mode, run)))
			}
		}
	}
	var rows []Table3Row
	for wi, wl := range o.Workloads {
		row := Table3Row{Workload: wl, Overhead: map[sim.Mode]Measurement{}}
		// Per-seed base times, reused across modes (paired comparison).
		baseResults, err := collect(pending[wi].base, "table3 "+wl+" base")
		if err != nil {
			return nil, err
		}
		base := make([]float64, o.Runs)
		for run, r := range baseResults {
			base[run] = float64(r.Wall)
		}
		for _, mode := range Table3Modes {
			results, err := collect(pending[wi].modes[mode], fmt.Sprintf("table3 %s %v", wl, mode))
			if err != nil {
				return nil, err
			}
			var ovh []float64
			for run, r := range results {
				ovh = append(ovh, float64(r.Wall)/base[run]-1)
			}
			row.Overhead[mode] = Measurement{Mean: stats.Mean(ovh), CI: stats.CI95(ovh), N: o.Runs}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders Table 3 (percent slowdown per configuration).
func FormatTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: overall slowdown (percent, mean ± 95%% CI)\n\n")
	fmt.Fprintf(w, "%-18s %16s %16s %16s\n", "workload", "cycles", "default", "mux")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s", r.Workload)
		for _, mode := range Table3Modes {
			m := r.Overhead[mode]
			fmt.Fprintf(w, "  %6.2f ±%5.2f%%", 100*m.Mean, 100*m.CI)
		}
		fmt.Fprintf(w, "\n")
	}
}

// Fig6Series is the running-time scatter for one workload (paper Figure 6):
// per-run times under all four configurations.
type Fig6Series struct {
	Workload string
	// Times[mode] holds one wall time per run, in cycles.
	Times map[sim.Mode][]float64
}

// Fig6Workloads are the three programs the paper plots.
var Fig6Workloads = []string{"altavista", "gcc", "wave5"}

// Fig6 collects the running-time distributions. Every configuration it
// measures also appears in the Table 2/3 sweeps, so with a shared runner
// this figure costs no additional simulation.
func Fig6(o Options) ([]Fig6Series, error) {
	o = o.withDefaults()
	defer o.span("Figure 6")()
	modes := []sim.Mode{sim.ModeOff, sim.ModeCycles, sim.ModeDefault, sim.ModeMux}
	pending := make(map[string]map[sim.Mode][]*runner.Pending)
	for _, wl := range Fig6Workloads {
		pending[wl] = map[sim.Mode][]*runner.Pending{}
		for _, mode := range modes {
			for run := 0; run < o.Runs; run++ {
				pending[wl][mode] = append(pending[wl][mode],
					o.Runner.Submit(modeCfg(o, wl, mode, run)))
			}
		}
	}
	var out []Fig6Series
	for _, wl := range Fig6Workloads {
		s := Fig6Series{Workload: wl, Times: map[sim.Mode][]float64{}}
		for _, mode := range modes {
			results, err := collect(pending[wl][mode], fmt.Sprintf("fig6 %s %v", wl, mode))
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				s.Times[mode] = append(s.Times[mode], float64(r.Wall))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// FormatFig6 renders the distributions as mean-normalized scatter rows.
func FormatFig6(w io.Writer, series []Fig6Series) {
	fmt.Fprintf(w, "Figure 6: distribution of running times (normalized to the base mean)\n\n")
	for _, s := range series {
		baseMean := stats.Mean(s.Times[sim.ModeOff])
		fmt.Fprintf(w, "%s (base mean = %.0f cycles)\n", s.Workload, baseMean)
		for _, mode := range []sim.Mode{sim.ModeOff, sim.ModeCycles, sim.ModeDefault, sim.ModeMux} {
			fmt.Fprintf(w, "  %-8s", mode)
			for _, t := range s.Times[mode] {
				fmt.Fprintf(w, " %6.2f%%", 100*t/baseMean)
			}
			m := stats.Mean(s.Times[mode])
			ci := stats.CI95(s.Times[mode])
			fmt.Fprintf(w, "   mean %.2f%% ± %.2f%%\n", 100*m/baseMean, 100*ci/baseMean)
		}
	}
}
