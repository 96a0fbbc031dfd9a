package cfg_test

import (
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
	"dcpi/internal/loader"
	"dcpi/internal/workload"
)

// TestIntervalDominanceMatchesChainWalk builds the CFG of every procedure
// of every image every registered workload loads, and holds each one's
// dominance queries and equivalence classes to the chain-walk reference.
func TestIntervalDominanceMatchesChainWalk(t *testing.T) {
	procs := 0
	for _, name := range workload.Names() {
		spec, _ := workload.Get(name)
		kernel, _ := workload.Kernel()
		l := loader.New(kernel)
		if err := spec.Setup(&workload.Ctx{Loader: l, Scale: 0.05}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, im := range l.Images() {
			for _, sym := range im.Symbols {
				code, base, err := im.ProcCode(sym.Name)
				if err != nil {
					t.Fatal(err)
				}
				if err := cfg.CheckReference(cfg.Build(code, base)); err != nil {
					t.Errorf("%s %s!%s: %v", name, im.Path, sym.Name, err)
				}
				procs++
			}
		}
	}
	if procs == 0 {
		t.Fatal("no procedures checked")
	}
	t.Logf("%d procedures checked", procs)
}

// BenchmarkBuild builds the CFG, with its equivalence classes, of every
// procedure of gcc's and vortex's images once per op.
func BenchmarkBuild(b *testing.B) {
	type proc struct {
		code []alpha.Inst
		base uint64
	}
	var procs []proc
	for _, name := range []string{"gcc", "vortex"} {
		spec, _ := workload.Get(name)
		kernel, _ := workload.Kernel()
		l := loader.New(kernel)
		if err := spec.Setup(&workload.Ctx{Loader: l, Scale: 0.05}); err != nil {
			b.Fatal(err)
		}
		for _, im := range l.Images() {
			for _, sym := range im.Symbols {
				code, base, _ := im.ProcCode(sym.Name)
				procs = append(procs, proc{code, base})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range procs {
			cfg.Build(p.code, p.base)
		}
	}
	b.ReportMetric(float64(len(procs)), "procs/op")
}
