// Package dcpibench regenerates every table and figure of the paper's
// evaluation as Go benchmarks — the per-experiment index in DESIGN.md maps
// each benchmark to its table/figure. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the experiment's headline metric via
// b.ReportMetric (overhead percentages, accuracy fractions, correlation
// coefficients) so regressions in the reproduction are visible in benchmark
// output. The full text renderings come from `go run ./cmd/dcpieval -all`.
package dcpibench

import (
	"io"
	"testing"

	"dcpi/internal/dcpi"
	"dcpi/internal/eval"
	"dcpi/internal/optimize"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// benchOpts keeps each experiment benchmark in the seconds range; dcpieval
// exposes bigger sweeps.
var benchOpts = eval.Options{
	Runs:  2,
	Scale: 0.12,
	Workloads: []string{
		"compress", "gcc", "mccalpin-assign", "wave5", "x11perf",
	},
}

// BenchmarkTable2Workloads measures base runtimes (paper Table 2).
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, r := range rows {
			mean += r.MeanCycles
		}
		b.ReportMetric(mean/float64(len(rows)), "simcycles/workload")
	}
}

// BenchmarkTable3Overhead measures profiling slowdown (paper Table 3:
// 1-3% typical).
func BenchmarkTable3Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var cyc, mux float64
		for _, r := range rows {
			cyc += r.Overhead[sim.ModeCycles].Mean
			mux += r.Overhead[sim.ModeMux].Mean
		}
		b.ReportMetric(100*cyc/float64(len(rows)), "cycles-overhead-%")
		b.ReportMetric(100*mux/float64(len(rows)), "mux-overhead-%")
	}
}

// BenchmarkTable4CostComponents measures per-sample costs (paper Table 4).
func BenchmarkTable4CostComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		var gccMiss, otherMiss float64
		var nOther int
		for _, r := range rows {
			if r.Mode != sim.ModeCycles {
				continue
			}
			if r.Workload == "gcc" {
				gccMiss = r.MissRate
			} else {
				otherMiss += r.MissRate
				nOther++
			}
		}
		b.ReportMetric(100*gccMiss, "gcc-missrate-%")
		b.ReportMetric(100*otherMiss/float64(nOther), "other-missrate-%")
	}
}

// BenchmarkTable5Space measures daemon memory and database size (Table 5).
func BenchmarkTable5Space(b *testing.B) {
	o := benchOpts
	o.Workloads = []string{"compress", "x11perf"}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table5(o)
		if err != nil {
			b.Fatal(err)
		}
		var disk, mem float64
		for _, r := range rows {
			disk += float64(r.DiskBytes)
			mem += float64(r.PeakBytes)
		}
		b.ReportMetric(disk/float64(len(rows)), "disk-bytes")
		b.ReportMetric(mem/float64(len(rows)), "daemon-peak-bytes")
	}
}

// BenchmarkFig1X11Prof regenerates the dcpiprof listing (Figure 1).
func BenchmarkFig1X11Prof(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := eval.Fig1(benchOpts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2CopyLoop regenerates the dcpicalc copy-loop listing
// (Figure 2) and reports the best-case vs actual CPI gap.
func BenchmarkFig2CopyLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := dcpi.Run(dcpi.Config{
			Workload:     "mccalpin-assign",
			Mode:         sim.ModeCycles,
			Scale:        benchOpts.Scale,
			Seed:         1,
			CyclesPeriod: sim.PeriodSpec{Base: 2048, Spread: 512},
		})
		if err != nil {
			b.Fatal(err)
		}
		pa, err := r.AnalyzeProc("/bin/mccalpin", "copyloop")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pa.BestCaseCPI, "bestcase-cpi")
		b.ReportMetric(pa.ActualCPI, "actual-cpi")
	}
}

// BenchmarkFig7FreqTable regenerates the frequency-estimation table
// (Figure 7).
func BenchmarkFig7FreqTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := eval.Fig7(benchOpts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Wave5Stats regenerates the dcpistats variance study
// (Figure 3).
func BenchmarkFig3Wave5Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3(benchOpts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4StallSummary regenerates the smooth_ stall summary
// (Figure 4).
func BenchmarkFig4StallSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := eval.Fig3(benchOpts, io.Discard)
		if err == nil {
			err = eval.Fig4(io.Discard, runs)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6RuntimeDistribution collects the running-time scatter
// (Figure 6).
func BenchmarkFig6RuntimeDistribution(b *testing.B) {
	o := benchOpts
	o.Runs = 2
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8FreqAccuracy measures instruction-frequency estimate
// accuracy (Figure 8; the paper reports 73% of samples within 5%).
func BenchmarkFig8FreqAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Within5, "within5-%")
		b.ReportMetric(100*res.Within10, "within10-%")
	}
}

// BenchmarkFig9EdgeAccuracy measures edge-frequency estimate accuracy
// (Figure 9; edges are worse than blocks, as in the paper).
func BenchmarkFig9EdgeAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig9(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Within10, "within10-%")
	}
}

// BenchmarkFig10IcacheCorrelation measures the IMISS vs I-cache-stall
// correlation (Figure 10; the paper reports r = 0.86-0.91).
func BenchmarkFig10IcacheCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RTop, "r-top")
		b.ReportMetric(res.RMid, "r-mid")
	}
}

// BenchmarkAblationHashTable runs the §5.4 design sweep and reports the
// 6-way + swap-to-front cost relative to the shipping design (the paper
// projects a 10-20% reduction).
func BenchmarkAblationHashTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.AblationHT(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Label == "6-way swap-to-front" {
				b.ReportMetric(100*row.CostRatio, "cost-vs-shipping-%")
			}
		}
	}
}

// BenchmarkRunnerCacheEffectiveness measures the evaluation engine's
// memoization across overlapping experiment sections: Table 2's base runs
// are a subset of Table 3's, so with a shared runner the dedup rate is the
// fraction of simulation requests served from cache (the dedup-% column
// of go test -bench RunnerCacheEffectiveness).
func BenchmarkRunnerCacheEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := runner.New(0)
		o := benchOpts
		o.Runner = sched
		if _, err := eval.Table2(o); err != nil {
			b.Fatal(err)
		}
		if _, err := eval.Table3(o); err != nil {
			b.Fatal(err)
		}
		st := sched.Stats()
		b.ReportMetric(float64(st.Simulated), "sims-run")
		b.ReportMetric(float64(st.MemHits), "cache-hits")
		if st.Simulated+st.MemHits > 0 {
			b.ReportMetric(100*float64(st.MemHits)/float64(st.Simulated+st.MemHits), "dedup-%")
		}
	}
}

// BenchmarkAnalysisThroughput measures the offline analysis speed itself
// (the paper: ~3 minutes for 26MB of executables).
func BenchmarkAnalysisThroughput(b *testing.B) {
	r, err := dcpi.Run(dcpi.Config{
		Workload:     "x11perf",
		Mode:         sim.ModeCycles,
		Scale:        0.12,
		Seed:         1,
		CyclesPeriod: sim.PeriodSpec{Base: 2048, Spread: 512},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, im := range r.Loader.Images() {
			for _, sym := range im.Symbols {
				pa, err := r.AnalyzeProc(im.Path, sym.Name)
				if err != nil {
					b.Fatal(err)
				}
				insts += len(pa.Insts)
			}
		}
	}
	b.ReportMetric(float64(insts), "insts-analyzed")
}

// BenchmarkOptLoop measures the closed §7 optimization loop end to end:
// profile, whole-image re-layout, ground-truth re-measurement, iterated
// to convergence on the pessimized classifier. The reported speedup is
// the experiment's headline metric (EXPERIMENTS.md "Closing the loop").
func BenchmarkOptLoop(b *testing.B) {
	var speedup float64
	var iters int
	for i := 0; i < b.N; i++ {
		sched := runner.New(0)
		res, err := optimize.RunLoop(optimize.LoopConfig{
			Base: dcpi.Config{Workload: "classify", Scale: 0.25, Seed: 3},
			Run:  sched.Run,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged || res.Best < 0 {
			b.Fatalf("loop did not converge to an improvement: %+v", res)
		}
		speedup, iters = res.Speedup(), len(res.Iters)
	}
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(float64(iters), "loop-iters")
}
