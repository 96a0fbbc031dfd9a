package dcpi

import (
	"testing"

	"dcpi/internal/sim"
)

// fastPeriods makes tests quick: dense sampling over short runs.
var fastPeriods = sim.PeriodSpec{Base: 2048, Spread: 512}

func runWL(t *testing.T, name string, mode sim.Mode, seed uint64, scale float64) *Result {
	t.Helper()
	r, err := Run(Config{
		Workload:     name,
		Mode:         mode,
		Seed:         seed,
		Scale:        scale,
		CyclesPeriod: fastPeriods,
		CollectExact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunMcCalpinAssign(t *testing.T) {
	r := runWL(t, "mccalpin-assign", sim.ModeCycles, 1, 0.25)
	if r.Wall <= 0 {
		t.Fatal("no cycles simulated")
	}
	st := r.Machine.Stats()
	if st.Faults != 0 {
		t.Fatalf("faults: %+v", st)
	}
	if st.Samples < 200 {
		t.Fatalf("samples = %d, want plenty", st.Samples)
	}
	// The copy loop must be write-buffer bound.
	if st.WBOverflows == 0 {
		t.Error("no write-buffer overflows in the copy loop")
	}
	rows := r.ProcRows()
	if len(rows) == 0 {
		t.Fatal("no procedure rows")
	}
	if rows[0].Procedure != "copyloop" && rows[0].Procedure != "main" {
		t.Errorf("top procedure = %q, want the copy loop", rows[0].Procedure)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestNegativeDriverGeometryRejected: a negative hash-table bucket count or
// overflow-buffer capacity is an error from Run, not a makeslice panic in
// driver.New.
func TestNegativeDriverGeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name              string
		buckets, overflow int
	}{
		{"buckets", -4, 0},
		{"overflow", 0, -4},
		{"both", -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Workload: "compress", Mode: sim.ModeCycles, Scale: 0.02,
				DriverBuckets: tc.buckets, DriverOverflow: tc.overflow})
			if err == nil {
				t.Errorf("Run accepted DriverBuckets %d, DriverOverflow %d", tc.buckets, tc.overflow)
			}
		})
	}
}

func TestBaseModeCollectsNothing(t *testing.T) {
	r, err := Run(Config{Workload: "compress", Mode: sim.ModeOff, Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Driver != nil || r.Daemon != nil || len(r.Profiles()) != 0 {
		t.Error("base mode should have no collection stack")
	}
	if r.Machine.Stats().Samples != 0 {
		t.Error("base mode took samples")
	}
}

func TestOverheadOrdering(t *testing.T) {
	// base <= cycles <= default (more events, more interrupts) on the same
	// seed. Uses the real 60K-64K period so overhead is the paper's scale.
	wall := map[sim.Mode]int64{}
	for _, mode := range []sim.Mode{sim.ModeOff, sim.ModeCycles, sim.ModeDefault} {
		r, err := Run(Config{Workload: "compress", Mode: mode, Seed: 5, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		wall[mode] = r.Wall
	}
	if wall[sim.ModeCycles] < wall[sim.ModeOff] {
		t.Errorf("cycles run (%d) faster than base (%d)", wall[sim.ModeCycles], wall[sim.ModeOff])
	}
	over := float64(wall[sim.ModeCycles]-wall[sim.ModeOff]) / float64(wall[sim.ModeOff])
	if over > 0.10 {
		t.Errorf("cycles overhead = %.2f%%, want low", over*100)
	}
}

func TestAnalyzeCopyLoop(t *testing.T) {
	r := runWL(t, "mccalpin-assign", sim.ModeCycles, 2, 0.25)
	pa, err := r.AnalyzeProc("/bin/mccalpin", "copyloop")
	if err != nil {
		t.Fatal(err)
	}
	if pa.Summary.TotalSamples == 0 {
		t.Fatal("no samples in copy loop")
	}
	// Figure 2's headline: best-case ~0.62 CPI, actual much higher.
	if pa.BestCaseCPI < 0.4 || pa.BestCaseCPI > 0.9 {
		t.Errorf("best-case CPI = %v", pa.BestCaseCPI)
	}
	if pa.ActualCPI < 2*pa.BestCaseCPI {
		t.Errorf("actual CPI = %v vs best %v: expected large dynamic stalls", pa.ActualCPI, pa.BestCaseCPI)
	}
	// The write buffer and D-cache must appear among the summary's causes.
	if pa.Summary.DynMax[1] == 0 && pa.Summary.DynMax[2] == 0 && pa.Summary.DynMax[4] == 0 {
		t.Logf("summary: %+v", pa.Summary)
	}
}

func TestExactCountsAvailable(t *testing.T) {
	r := runWL(t, "compress", sim.ModeCycles, 3, 0.1)
	if r.Exact == nil || len(r.Exact.Exec) == 0 {
		t.Fatal("exact counts missing")
	}
	im, ok := r.Loader.ImageByPath("/usr/bin/compress")
	if !ok {
		t.Fatal("compress image not registered")
	}
	exec := r.Exact.Exec[im.ID]
	var total uint64
	for _, n := range exec {
		total += n
	}
	if total == 0 {
		t.Error("no executions counted")
	}
}

func TestStatsAcrossRuns(t *testing.T) {
	runs := []map[string]uint64{
		{"smooth_": 100, "parmvr_": 1000},
		{"smooth_": 300, "parmvr_": 1010},
		{"smooth_": 200, "parmvr_": 990},
	}
	rows := StatsAcrossRuns(runs)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Procedure != "smooth_" {
		t.Errorf("highest range%% = %q, want smooth_", rows[0].Procedure)
	}
	r0 := rows[0]
	if r0.Sum != 600 || r0.Min != 100 || r0.Max != 300 || r0.N != 3 {
		t.Errorf("row = %+v", r0)
	}
	if r0.Mean != 200 {
		t.Errorf("mean = %v", r0.Mean)
	}
	if r0.StdDev < 99 || r0.StdDev > 101 {
		t.Errorf("stddev = %v, want 100", r0.StdDev)
	}
	if rp := r0.RangePct(); rp < 0.33 || rp > 0.34 {
		t.Errorf("range%% = %v", rp)
	}
}
