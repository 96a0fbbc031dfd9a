package eval

import (
	"bytes"
	"strings"
	"testing"

	"dcpi/internal/analysis"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// tiny keeps test experiments fast. The shared runner deduplicates
// identical configurations across the whole test suite (e.g. TestTable2 and
// TestTable3 request the same base runs), exactly like dcpieval -all does.
var tiny = Options{
	Runs:  3,
	Scale: 0.12,
	Workloads: []string{
		"compress", "gcc", "mccalpin-assign", "wave5",
	},
	Runner: runner.New(0),
}

func TestTable2(t *testing.T) {
	rows, err := Table2(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tiny.Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanCycles <= 0 {
			t.Errorf("%s: mean = %v", r.Workload, r.MeanCycles)
		}
		if r.Description == "" {
			t.Errorf("%s: no description", r.Workload)
		}
	}
	var buf bytes.Buffer
	FormatTable2(&buf, rows)
	if !strings.Contains(buf.String(), "compress") {
		t.Error("format output missing workloads")
	}
}

func TestTable3OverheadShape(t *testing.T) {
	rows, err := Table3(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		cyc := r.Overhead[sim.ModeCycles].Mean
		mux := r.Overhead[sim.ModeMux].Mean
		// The headline result: overhead is low (a few percent).
		if cyc < -0.02 || cyc > 0.12 {
			t.Errorf("%s: cycles overhead = %.2f%%", r.Workload, 100*cyc)
		}
		if mux < -0.02 || mux > 0.15 {
			t.Errorf("%s: mux overhead = %.2f%%", r.Workload, 100*mux)
		}
	}
	var buf bytes.Buffer
	FormatTable3(&buf, rows)
	if !strings.Contains(buf.String(), "slowdown") {
		t.Error("format output wrong")
	}
}

func TestTable4CostShape(t *testing.T) {
	rows, err := Table4(tiny)
	if err != nil {
		t.Fatal(err)
	}
	byWL := map[string]map[sim.Mode]Table4Row{}
	for _, r := range rows {
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[sim.Mode]Table4Row{}
		}
		byWL[r.Workload][r.Mode] = r
		if r.Samples == 0 {
			t.Errorf("%s/%v: no samples", r.Workload, r.Mode)
		}
		if r.AvgIntr < r.HitCost || (r.MissCost > 0 && r.MissCost < r.HitCost) {
			t.Errorf("%s/%v: costs inconsistent: %+v", r.Workload, r.Mode, r)
		}
	}
	// The paper's key contrast: gcc (many PIDs) has a much higher
	// hash-table miss rate than the loopy workloads, and a higher daemon
	// cost per sample.
	gcc := byWL["gcc"][sim.ModeCycles]
	compress := byWL["compress"][sim.ModeCycles]
	if gcc.MissRate <= compress.MissRate {
		t.Errorf("gcc miss rate %.3f <= compress %.3f", gcc.MissRate, compress.MissRate)
	}
	if gcc.DaemonCost <= compress.DaemonCost {
		t.Errorf("gcc daemon cost %.1f <= compress %.1f", gcc.DaemonCost, compress.DaemonCost)
	}
	var buf bytes.Buffer
	FormatTable4(&buf, rows)
	if !strings.Contains(buf.String(), "missrate") {
		t.Error("format output wrong")
	}
}

func TestTable5SpaceShape(t *testing.T) {
	o := tiny
	o.Workloads = []string{"compress", "x11perf"}
	rows, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DiskBytes <= 0 {
			t.Errorf("%s/%v: no disk usage", r.Workload, r.Mode)
		}
		if r.PeakBytes < r.MemoryBytes {
			t.Errorf("%s/%v: peak < current", r.Workload, r.Mode)
		}
		if r.DriverKernel != 512*1024 {
			t.Errorf("%s/%v: driver kernel memory = %d", r.Workload, r.Mode, r.DriverKernel)
		}
	}
	var buf bytes.Buffer
	FormatTable5(&buf, rows)
	if !strings.Contains(buf.String(), "disk") {
		t.Error("format output wrong")
	}
}

func TestFig6(t *testing.T) {
	o := tiny
	o.Runs = 2
	series, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Fig6Workloads) {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for mode, times := range s.Times {
			if len(times) != o.Runs {
				t.Errorf("%s/%v: %d times", s.Workload, mode, len(times))
			}
		}
	}
	var buf bytes.Buffer
	FormatFig6(&buf, series)
	if !strings.Contains(buf.String(), "wave5") {
		t.Error("format output wrong")
	}
}

func TestFig8FrequencyAccuracy(t *testing.T) {
	o := tiny
	res, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight == 0 || res.Procedures == 0 {
		t.Fatal("no data")
	}
	// Shape: a solid majority of samples within 10% (the paper reports
	// 87%; our simulated setup should also put most weight near zero).
	if res.Within10 < 0.5 {
		t.Errorf("within 10%% = %.1f%%, want at least half", 100*res.Within10)
	}
	if res.Within5 > res.Within10 || res.Within10 > res.Within15 {
		t.Error("within-X fractions not monotone")
	}
	var buf bytes.Buffer
	FormatAccuracy(&buf, "Figure 8", res)
	if !strings.Contains(buf.String(), "within 10%") {
		t.Error("format output wrong")
	}
}

func TestFig9EdgeAccuracy(t *testing.T) {
	res, err := Fig9(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight == 0 {
		t.Fatal("no edge data")
	}
	// Edges are estimated indirectly; still expect meaningful accuracy.
	if res.Within10 < 0.3 {
		t.Errorf("edge within 10%% = %.1f%%", 100*res.Within10)
	}
}

func TestFig10Correlation(t *testing.T) {
	res, err := Fig10(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The paper finds a strong positive correlation (~0.9). Require a
	// clearly positive one.
	if res.RTop < 0.3 {
		t.Errorf("top correlation = %.3f, want positive", res.RTop)
	}
	var buf bytes.Buffer
	FormatFig10(&buf, res)
	if !strings.Contains(buf.String(), "correlation") {
		t.Error("format output wrong")
	}
}

func TestAblationHT(t *testing.T) {
	res, err := AblationHT(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceLength < 500 {
		t.Fatalf("trace too short: %d", res.TraceLength)
	}
	byLabel := map[string]AblationRow{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r
	}
	base := byLabel["4-way round-robin (shipping)"]
	best := byLabel["6-way swap-to-front"]
	if base.Cost == 0 || best.Cost == 0 {
		t.Fatal("missing design points")
	}
	// The paper's §5.4 result: the 6-way + swap-to-front design reduces
	// cost relative to the shipping configuration.
	if best.Cost >= base.Cost {
		t.Errorf("6-way+stf cost %d >= shipping %d", best.Cost, base.Cost)
	}
	two := byLabel["2-way round-robin"]
	if two.Stats.Evictions < base.Stats.Evictions {
		t.Error("2-way should evict at least as much as 4-way")
	}
	var buf bytes.Buffer
	FormatAblation(&buf, res)
	if !strings.Contains(buf.String(), "design") {
		t.Error("format output wrong")
	}
}

func TestFigures1Through4(t *testing.T) {
	o := tiny
	var buf bytes.Buffer
	if err := Fig1(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ffb8ZeroPolyArc", "vmunix", "procedure"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := Fig2(o, &buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"Best-case", "Actual", "stq"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}

	buf.Reset()
	runs, err := Fig3(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"range%", "parmvr_"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := Fig4(&buf, runs); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"D-cache miss", "Subtotal dynamic", "Execution"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q:\n%s", want, out)
		}
	}
	_ = analysis.ConfHigh
}

func TestFig7FreqTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Si/Mi", "stq", "estimated frequency", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8MultiRun(t *testing.T) {
	o := tiny
	res, err := Fig8MultiRun(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Within5 <= 0 || res.SingleWithin5 <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// More samples should not hurt accuracy appreciably (the paper: 54% ->
	// 70% for the integer workloads).
	if res.Within5 < res.SingleWithin5-0.05 {
		t.Errorf("merged runs less accurate: %.2f vs %.2f", res.Within5, res.SingleWithin5)
	}
	var buf bytes.Buffer
	FormatMultiRun(&buf, res)
	if !strings.Contains(buf.String(), "merged") {
		t.Error("format output")
	}
}
