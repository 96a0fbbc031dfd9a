package dcpi

import (
	"testing"

	"dcpi/internal/sim"
)

// BenchmarkRehydrate times DecodeSnapshot on a typical cache entry: "hit"
// with the shape's shell already in the shared table (every rehydration of a
// sweep but the first of each shape), "first-build" with the shell evicted
// before each decode (what every rehydration cost when each rebuilt its own
// images, less the data fill).
func BenchmarkRehydrate(b *testing.B) {
	cfg := Config{Workload: "wave5", Scale: 0.05, Mode: sim.ModeCycles, Seed: 1}
	live, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := EncodeSnapshot(live)
	if err != nil {
		b.Fatal(err)
	}
	decode := func(b *testing.B) {
		if _, err := DecodeSnapshot(blob, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		decode(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode(b)
		}
	})
	b.Run("first-build", func(b *testing.B) {
		key := shellKey(cfg, cfg.Scale, 1)
		if _, ok := shells.Load(key); !ok {
			b.Fatalf("no shell under %q: the benchmark evicts the wrong key", key)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shells.Delete(key)
			decode(b)
		}
	})
}

// BenchmarkAnalyzeProcs analyses every sampled procedure of one rehydrated
// gcc run and one rehydrated vortex run (Figure 10's largest programs, at its
// dense periods) once per op: each op reads the runs through fresh results,
// so it pays for the sample splits and the analyses, and finds the CFGs
// already built on the shared shells' images, as every run after the first
// of a shape does.
func BenchmarkAnalyzeProcs(b *testing.B) {
	var served []*Result
	for _, wl := range []string{"gcc", "vortex"} {
		cfg := Config{Workload: wl, Scale: 0.05, Mode: sim.ModeDefault, Seed: 1,
			CyclesPeriod: sim.PeriodSpec{Base: 256, Spread: 64}, EventPeriod: sim.PeriodSpec{Base: 64, Spread: 16},
			CollectExact: true, ZeroCostCollection: true}
		live, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		blob, _ := EncodeSnapshot(live)
		res, err := DecodeSnapshot(blob, cfg)
		if err != nil {
			b.Fatal(err)
		}
		served = append(served, res)
	}
	analyzeAll := func(b *testing.B) (procs int) {
		for _, r := range served {
			fresh := &Result{Config: r.Config, Loader: r.Loader, profiles: r.profiles, model: r.model}
			for _, p := range fresh.profiles {
				if p.Event != sim.EvCycles {
					continue
				}
				im, ok := fresh.Loader.ImageByPath(p.ImagePath)
				if !ok {
					continue
				}
				for s, n := range fresh.ProcSamples(p.ImagePath, sim.EvCycles) {
					if n == 0 {
						continue
					}
					if _, err := fresh.AnalyzeProc(p.ImagePath, im.Symbols[s].Name); err != nil {
						b.Fatal(err)
					}
					procs++
				}
			}
		}
		return procs
	}
	procs := analyzeAll(b) // builds the CFGs
	if procs == 0 {
		b.Fatal("no sampled procedures")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeAll(b)
	}
	b.ReportMetric(float64(procs), "procs/op")
}
