package dcpi

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/cfg"
	"dcpi/internal/daemon"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

func TestDoubleSamplingProducesEdgeProfiles(t *testing.T) {
	r, err := Run(Config{
		Workload:     "compress",
		Mode:         sim.ModeCycles,
		Seed:         11,
		Scale:        0.1,
		CyclesPeriod: fastPeriods,
		DoubleSample: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge := r.Profile("/usr/bin/compress", sim.EvEdge)
	if edge == nil || edge.Total() == 0 {
		t.Fatal("no edge samples collected")
	}
	// Every edge key unpacks to in-image offsets, and the hot loop's back
	// edge should be represented: some pair with to < from.
	im, _ := r.Loader.ImageByPath("/usr/bin/compress")
	var backEdges uint64
	for key, n := range edge.Counts {
		from, to := daemon.UnpackEdge(key)
		if from >= im.Size() || to >= im.Size() {
			t.Fatalf("edge key out of image: %#x -> %#x", from, to)
		}
		if to < from {
			backEdges += n
		}
	}
	if backEdges == 0 {
		t.Error("no back-edge pairs in a loopy program")
	}
	// The analysis should pick them up.
	pa, err := r.AnalyzeProc("/usr/bin/compress", "main")
	if err != nil {
		t.Fatal(err)
	}
	if pa.EdgeSampleCounts == nil {
		t.Fatal("analysis did not receive edge samples")
	}
	var attributed uint64
	for _, n := range pa.EdgeSampleCounts {
		attributed += n
	}
	if attributed == 0 {
		t.Error("no edge samples attributed to CFG edges")
	}
}

func TestDoubleSamplingEdgeAccuracy(t *testing.T) {
	// Weighted edge-frequency accuracy with and without the §7 prototype.
	// Rare edges stay noisy either way (few pair samples — a Poisson
	// effect the real system would share), so the assertion is on the
	// execution-weighted aggregate: double sampling must not degrade it.
	run := func(ds bool) (float64, float64) {
		r, err := Run(Config{
			Workload:           "compress",
			Mode:               sim.ModeCycles,
			Seed:               21,
			Scale:              0.15,
			CyclesPeriod:       sim.PeriodSpec{Base: 1024, Spread: 256},
			DoubleSample:       ds,
			CollectExact:       true,
			ZeroCostCollection: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := r.AnalyzeProc("/usr/bin/compress", "main")
		if err != nil {
			t.Fatal(err)
		}
		im, _ := r.Loader.ImageByPath("/usr/bin/compress")
		exact := r.Exact.Exec[im.ID]
		taken := r.Exact.Taken[im.ID]
		g := pa.Graph
		var within, total float64
		for ei, e := range g.Edges {
			if e.From < 0 || e.To < 0 {
				continue
			}
			last := g.Blocks[e.From].End - 1
			var truth float64
			switch {
			case pa.Insts[last].Inst.Op.IsCondBranch() && e.Kind == cfg.EdgeTaken:
				truth = float64(taken[last])
			case pa.Insts[last].Inst.Op.IsCondBranch() && e.Kind == cfg.EdgeFallthrough:
				truth = float64(exact[last]) - float64(taken[last])
			default:
				truth = float64(exact[last])
			}
			if truth == 0 {
				continue
			}
			est := pa.EdgeFreq[ei] * pa.Period
			errv := est/truth - 1
			if errv < 0 {
				errv = -errv
			}
			total += truth
			if errv <= 0.10 {
				within += truth
			}
		}
		return within, total
	}
	withinPlain, totalPlain := run(false)
	withinDS, totalDS := run(true)
	if totalPlain == 0 || totalDS == 0 {
		t.Fatal("no edges measured")
	}
	fracPlain := withinPlain / totalPlain
	fracDS := withinDS / totalDS
	t.Logf("edges within 10%%: plain %.1f%%, double-sampled %.1f%%", 100*fracPlain, 100*fracDS)
	if fracDS < fracPlain-0.10 {
		t.Errorf("double sampling degraded weighted edge accuracy: %.2f vs %.2f", fracDS, fracPlain)
	}
}

func TestOfflineView(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	r, err := Run(Config{
		Workload:     "mccalpin-assign",
		Mode:         sim.ModeDefault,
		Seed:         5,
		Scale:        0.1,
		CyclesPeriod: fastPeriods,
		DBDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	liveTotal := r.TotalSamples(sim.EvCycles)
	if liveTotal == 0 {
		t.Fatal("no samples")
	}

	off, err := OpenView(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if off.Config.Workload != "mccalpin-assign" || off.Config.Mode != sim.ModeDefault {
		t.Errorf("config = %+v", off.Config)
	}
	if got := off.TotalSamples(sim.EvCycles); got != liveTotal {
		t.Errorf("offline samples = %d, live = %d", got, liveTotal)
	}
	// The offline analysis should work and agree on the headline CPI.
	livePA, err := r.AnalyzeProc("/bin/mccalpin", "copyloop")
	if err != nil {
		t.Fatal(err)
	}
	offPA, err := off.AnalyzeProc("/bin/mccalpin", "copyloop")
	if err != nil {
		t.Fatal(err)
	}
	if offPA.BestCaseCPI != livePA.BestCaseCPI {
		t.Errorf("best-case CPI: offline %v vs live %v", offPA.BestCaseCPI, livePA.BestCaseCPI)
	}
	diff := offPA.ActualCPI - livePA.ActualCPI
	if diff < -0.1 || diff > 0.1 {
		t.Errorf("actual CPI: offline %v vs live %v", offPA.ActualCPI, livePA.ActualCPI)
	}
	// Rows symbolize offline too.
	rows := off.ProcRows()
	if len(rows) == 0 || rows[0].Procedure == "<unknown>" {
		t.Errorf("offline rows = %+v", rows)
	}
}

// An offline tool reads a database with the periods the run sampled at: its
// mean periods, and so every frequency the analysis derives from them, are
// the live run's. That holds for the default periods, the dense ones, means
// that are a half (dcpid -period 1008 samples at {1008, 63}), and a database
// without metadata, which means the defaults.
func TestOfflinePeriodsMatchLive(t *testing.T) {
	compare := func(t *testing.T, live, off *Result) {
		t.Helper()
		if live.AvgCyclesPeriod() != off.AvgCyclesPeriod() || live.AvgEventPeriod() != off.AvgEventPeriod() {
			t.Errorf("mean periods: live %v, %v; offline %v, %v",
				live.AvgCyclesPeriod(), live.AvgEventPeriod(), off.AvgCyclesPeriod(), off.AvgEventPeriod())
		}
		livePA, err := live.AnalyzeProc("/bin/mccalpin", "copyloop")
		if err != nil {
			t.Fatal(err)
		}
		offPA, err := off.AnalyzeProc("/bin/mccalpin", "copyloop")
		if err != nil {
			t.Fatal(err)
		}
		for i := range livePA.Insts {
			if l, o := livePA.Insts[i].Freq, offPA.Insts[i].Freq; l != o {
				t.Errorf("instruction %d: frequency live %.3f, offline %.3f", i, l, o)
			}
		}
	}
	for _, period := range [][2]sim.PeriodSpec{
		{},
		{{Base: 2048, Spread: 511}, {Base: 2048, Spread: 511}},
		{sim.DenseCyclesPeriod, sim.DenseEventPeriod},
		{{Base: 1008, Spread: 63}, {Base: 1008, Spread: 63}},
	} {
		dir := filepath.Join(t.TempDir(), "db")
		live, err := Run(Config{Workload: "mccalpin-assign", Mode: sim.ModeDefault, Seed: 5, Scale: 0.1,
			CyclesPeriod: period[0], EventPeriod: period[1], DBDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		off, err := OpenView(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		compare(t, live, off)
		if period != ([2]sim.PeriodSpec{}) {
			continue
		}
		metas, err := filepath.Glob(filepath.Join(dir, "epoch-*", "epoch.meta"))
		if err != nil || len(metas) != 1 {
			t.Fatalf("epoch metadata files: %v, %v", metas, err)
		}
		if err := os.Remove(metas[0]); err != nil {
			t.Fatal(err)
		}
		if off, err = OpenView(dir, "mccalpin-assign"); err != nil {
			t.Fatal(err)
		}
		compare(t, live, off)
	}
}

// OpenView refuses a recorded mean period that is negative, naming the
// database, and reads a large finite one as the number it is.
func TestOpenViewChecksRecordedPeriods(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if _, err := Run(Config{Workload: "mccalpin-assign", Mode: sim.ModeDefault, Seed: 5, Scale: 0.1, DBDir: dir}); err != nil {
		t.Fatal(err)
	}
	metas, err := filepath.Glob(filepath.Join(dir, "epoch-*", "epoch.meta"))
	if err != nil || len(metas) != 1 {
		t.Fatalf("epoch metadata files: %v, %v", metas, err)
	}
	data, err := os.ReadFile(metas[0])
	if err != nil {
		t.Fatal(err)
	}
	var recorded profiledb.Meta
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ cycles, event float64 }{{-5, 0}, {0, -5}, {1e300, 0}} {
		meta := recorded
		if c.cycles != 0 {
			meta.CyclesPeriod = c.cycles
		}
		if c.event != 0 {
			meta.EventPeriod = c.event
		}
		data, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metas[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		off, err := OpenView(dir, "")
		if c.cycles < 0 || c.event < 0 {
			if err == nil || !strings.Contains(err.Error(), dir) {
				t.Errorf("periods %v, %v: OpenView error %v, want one naming %s", c.cycles, c.event, err, dir)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := off.AvgCyclesPeriod(); got != c.cycles {
			t.Errorf("recorded mean %v read as %v", c.cycles, got)
		}
		pa, err := off.AnalyzeProc("/bin/mccalpin", "copyloop")
		if err != nil {
			t.Fatal(err)
		}
		if f := pa.Insts[0].Freq; f <= 0 {
			t.Errorf("recorded mean %v: instruction 0's frequency %v", c.cycles, f)
		}
	}
}

func TestOpenViewErrors(t *testing.T) {
	if _, err := OpenView(t.TempDir(), ""); err == nil {
		t.Error("view without metadata or workload should fail")
	}
	if _, err := OpenView(t.TempDir(), "no-such-workload"); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := SetupImages("nope"); err == nil {
		t.Error("SetupImages with unknown workload should fail")
	}
	if l, err := SetupImages("compress"); err != nil || l == nil {
		t.Errorf("SetupImages(compress) = %v, %v", l, err)
	}
}

func TestMetaSamplesAttributeHandlerTime(t *testing.T) {
	// A CYCLES overflow can only land inside the handler when some *other*
	// interrupt's handler is running (a single counter's overflows are a
	// full period apart), so drive dense IMISS interrupts alongside
	// CYCLES. The meta method (paper footnote 2) must attribute those
	// deliveries to the handler's own kernel symbol.
	cfg := Config{
		Workload:     "vortex",
		Mode:         sim.ModeDefault,
		Seed:         31,
		Scale:        0.1,
		CyclesPeriod: sim.PeriodSpec{Base: 1024, Spread: 128},
		EventPeriod:  sim.PeriodSpec{Base: 8, Spread: 2},
		MetaSamples:  true,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var handler uint64
	for _, row := range r.ProcRows() {
		if row.Procedure == "perfcount_intr" {
			handler = row.Counts[sim.EvCycles]
		}
	}
	if handler == 0 {
		t.Fatal("no meta samples at perfcount_intr")
	}
	total := r.TotalSamples(sim.EvCycles)
	if share := float64(handler) / float64(total); share > 0.9 {
		t.Errorf("handler share = %.2f of %d samples, implausibly high", share, total)
	}

	// Without the meta method, no samples hit the handler symbol.
	cfg.MetaSamples = false
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r2.ProcRows() {
		if row.Procedure == "perfcount_intr" && row.Counts[sim.EvCycles] > 0 {
			t.Error("handler samples without the meta method")
		}
	}
}

func TestUnknownSampleRateLow(t *testing.T) {
	// Paper §4.3.2: "the number of unknown samples is considerably smaller
	// than 1%; a typical fraction ... is 0.05%".
	for _, wl := range []string{"x11perf", "timeshare", "gcc"} {
		r, err := Run(Config{
			Workload:     wl,
			Mode:         sim.ModeCycles,
			Seed:         17,
			Scale:        0.1,
			CyclesPeriod: fastPeriods,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rate := r.Daemon.Stats().UnknownRate(); rate > 0.01 {
			t.Errorf("%s: unknown sample rate = %.3f%%, want < 1%%", wl, 100*rate)
		}
	}
}

func TestDaemonReapsExitedProcesses(t *testing.T) {
	r, err := Run(Config{
		Workload:     "gcc", // 14 processes, all exit
		Mode:         sim.ModeCycles,
		Seed:         41,
		Scale:        0.05,
		CyclesPeriod: fastPeriods,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the final flush every process has exited and been reaped: the
	// loadmap memory should be gone while the profiles remain.
	if got := r.Daemon.MemoryBytes(); got != 0 && len(r.Profiles()) == 0 {
		t.Errorf("daemon memory = %d with no profiles", got)
	}
	// Classified samples survived reaping.
	if r.TotalSamples(sim.EvCycles) == 0 {
		t.Fatal("no samples")
	}
	if rate := r.Daemon.Stats().UnknownRate(); rate > 0.01 {
		t.Errorf("unknown rate = %.3f after reaping (reap must not precede classification)", rate)
	}
}

func TestDTBMissEventRulesOutDTB(t *testing.T) {
	// In mux mode the DTBMISS event rotates in; a loop whose working set
	// fits the DTB should then have DTB ruled out as a culprit, while a
	// page-walking loop keeps it (§3.2's dcpicalc behaviour).
	run := func(wl string) (hasDTBCulprit bool, procs int) {
		r, err := Run(Config{
			Workload:     wl,
			Mode:         sim.ModeMux,
			Seed:         13,
			Scale:        0.15,
			CyclesPeriod: sim.PeriodSpec{Base: 1024, Spread: 256},
			EventPeriod:  sim.PeriodSpec{Base: 16, Spread: 4},
			MuxInterval:  4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.ProcRows() {
			if row.Counts[sim.EvCycles] < 50 {
				continue
			}
			pa, err := r.AnalyzeProc(row.ImagePath, row.Procedure)
			if err != nil {
				continue
			}
			procs++
			for i := range pa.Insts {
				for _, c := range pa.Insts[i].Culprits {
					if c.Cause == analysis.CauseDTB {
						hasDTBCulprit = true
					}
				}
			}
		}
		return hasDTBCulprit, procs
	}
	// compress: ~96KB of data across a handful of pages, all DTB-resident.
	dtbCompress, n1 := run("compress")
	// li: pointer chasing across a 64KB list — fits 8 pages... also DTB
	// resident; use mccalpin-assign: 2.25MB arrays = hundreds of pages,
	// far beyond the 64-entry DTB.
	dtbStream, n2 := run("mccalpin-assign")
	if n1 == 0 || n2 == 0 {
		t.Fatal("no procedures analyzed")
	}
	if dtbCompress {
		t.Error("compress: DTB culprit not ruled out despite zero DTBMISS events")
	}
	if !dtbStream {
		t.Error("streaming copy: DTB culprit missing despite real DTB misses")
	}
}

// TestProcRowsRemainder holds dcpiprof's rows to the image's symbol table:
// a profile of a registered image is divided among its procedures, samples
// at no procedure's offset are one "<unknown>" row of that image, and a
// per-process profile ("path#pid") is divided among the procedures of the
// image at path into rows of its own. Every sample of a profile whose
// image is not registered is its "<unknown>" row. Edge profiles hold packed
// offset pairs and make no row.
func TestProcRowsRemainder(t *testing.T) {
	kernel, _ := workload.Kernel()
	l := loader.New(kernel)
	im := image.New("app", "/bin/app", image.KindExecutable, alpha.MustAssemble(`
first:
	nop
	ret (ra)
second:
	nop
	ret (ra)
`))
	if _, err := l.NewProcess("app", im); err != nil {
		t.Fatal(err)
	}
	r := &Result{Loader: l, profiles: []*profiledb.Profile{
		{ImagePath: "/bin/app", Event: sim.EvCycles, Counts: map[uint64]uint64{0: 5, 6: 1, 8: 7, 12: 2, 64: 3}},
		{ImagePath: "/bin/app", Event: sim.EvIMiss, Counts: map[uint64]uint64{4: 1, 100: 4}},
		{ImagePath: "/bin/app", Event: sim.EvEdge, Counts: map[uint64]uint64{daemon.PackEdge(0, 8): 9}},
		{ImagePath: "/bin/app#7", Event: sim.EvCycles, Counts: map[uint64]uint64{0: 2, 8: 1}},
		{ImagePath: "/bin/gone", Event: sim.EvCycles, Counts: map[uint64]uint64{0: 4}},
	}}
	row := func(proc, path string, cycles, imiss uint64) ProcRow {
		pr := ProcRow{Procedure: proc, ImagePath: path}
		pr.Counts[sim.EvCycles], pr.Counts[sim.EvIMiss] = cycles, imiss
		return pr
	}
	want := []ProcRow{
		row("second", "/bin/app", 9, 0),
		row("first", "/bin/app", 6, 1),
		row("<unknown>", "/bin/gone", 4, 0),
		row("<unknown>", "/bin/app", 3, 4),
		row("first", "/bin/app#7", 2, 0),
		row("second", "/bin/app#7", 1, 0),
	}
	if got := r.ProcRows(); !reflect.DeepEqual(got, want) {
		t.Errorf("ProcRows:\n%+v\nwant\n%+v", got, want)
	}
}
