package dcpi_test

import (
	"reflect"
	"sync"
	"testing"

	"dcpi/internal/analysis"
	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/sim"
)

// TestToolMemosAreSharedAcrossGoroutines asks for every sampled procedure of
// one served result from several goroutines at once, as concurrent dcpieval
// sections do: each procedure is analysed once, every caller gets that one
// analysis, and it equals the analysis of a second result decoded from the
// same blob and read by one goroutine.
func TestToolMemosAreSharedAcrossGoroutines(t *testing.T) {
	cfg := dcpi.Config{Workload: "compress", Scale: 0.05, Mode: sim.ModeMux, Seed: 2,
		CyclesPeriod: sim.PeriodSpec{Base: 512, Spread: 64}, EventPeriod: sim.PeriodSpec{Base: 128, Spread: 16},
		ZeroCostCollection: true, DoubleSample: true}
	live, err := dcpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := dcpi.EncodeSnapshot(live)
	decode := func() *dcpi.Result {
		res, err := dcpi.DecodeSnapshot(blob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	type proc struct{ image, name string }
	analyzeAll := func(r *dcpi.Result) map[proc]*analysis.ProcAnalysis {
		out := map[proc]*analysis.ProcAnalysis{}
		err := r.AnalyzeSampled(func(im *image.Image, s int, pa *analysis.ProcAnalysis) {
			out[proc{im.Path, im.Symbols[s].Name}] = pa
		})
		if err != nil {
			t.Error(err)
		}
		return out
	}

	shared := decode()
	const callers = 8
	got := make([]map[proc]*analysis.ProcAnalysis, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = analyzeAll(shared)
		}(i)
	}
	wg.Wait()
	want := analyzeAll(decode())
	if len(want) == 0 {
		t.Fatal("no sampled procedures")
	}
	for i, m := range got {
		if len(m) != len(want) {
			t.Fatalf("caller %d analysed %d procedures, want %d", i, len(m), len(want))
		}
		for k, pa := range m {
			if pa != got[0][k] {
				t.Errorf("caller %d got its own analysis of %v", i, k)
			}
		}
	}
	for k, pa := range got[0] {
		if !reflect.DeepEqual(pa, want[k]) {
			t.Errorf("%v: the shared analysis differs from one made alone", k)
		}
	}
}

// TestPerProcessProfilesCountOnce runs with a per-process profile kept for
// the workload's process: totals count each sample once, the per-process
// profile's rows name the image's procedures, and each repeats no more
// samples than its aggregate row holds.
func TestPerProcessProfilesCountOnce(t *testing.T) {
	r, err := dcpi.Run(dcpi.Config{Workload: "wave5", Scale: 0.1, Mode: sim.ModeCycles, Seed: 1,
		CyclesPeriod: sim.PeriodSpec{Base: 2048}, PerProcessPIDs: []uint32{100}})
	if err != nil {
		t.Fatal(err)
	}
	var aggregate, perProcess uint64
	for _, p := range r.Profiles() {
		if _, pid := daemon.ParseProfileName(p.ImagePath); pid != 0 {
			perProcess += p.Total()
		} else if p.Event == sim.EvCycles {
			aggregate += p.Total()
		}
	}
	if perProcess == 0 {
		t.Fatal("no per-process samples")
	}
	if got := r.TotalSamples(sim.EvCycles); got != aggregate {
		t.Errorf("TotalSamples = %d, want the aggregate profiles' %d", got, aggregate)
	}
	var mapped uint64
	for _, n := range r.ProcSampleMap() {
		mapped += n
	}
	if mapped != aggregate {
		t.Errorf("ProcSampleMap holds %d samples, want the aggregate profiles' %d", mapped, aggregate)
	}
	type key struct{ image, proc string }
	rows := map[key]uint64{}
	for _, row := range r.ProcRows() {
		rows[key{row.ImagePath, row.Procedure}] = row.Counts[sim.EvCycles]
	}
	var symbolized uint64
	for k, n := range rows {
		path, pid := daemon.ParseProfileName(k.image)
		if pid == 0 {
			continue
		}
		if k.proc != "<unknown>" {
			symbolized += n
		}
		if agg := rows[key{path, k.proc}]; n > agg {
			t.Errorf("%s %s: %d samples, its aggregate row %d", k.image, k.proc, n, agg)
		}
	}
	if symbolized == 0 {
		t.Error("no per-process row names a procedure")
	}
}
