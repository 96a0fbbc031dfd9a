package dcpi_test

import (
	"reflect"
	"sync"
	"testing"

	"dcpi/internal/analysis"
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
