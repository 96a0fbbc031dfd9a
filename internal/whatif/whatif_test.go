package whatif

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/dcpi"
	"dcpi/internal/hw"
	"dcpi/internal/runner"
)

func TestDefaultGridIsWellFormed(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) < 6 {
		t.Fatalf("grid has %d points, want >= 6", len(grid))
	}
	seen := map[string]bool{}
	for _, p := range grid {
		if seen[p.Name] {
			t.Errorf("duplicate grid point %q", p.Name)
		}
		seen[p.Name] = true
		cfg, err := hw.Parse(p.Spec)
		if err != nil {
			t.Errorf("%s: spec %q does not parse: %v", p.Name, p.Spec, err)
			continue
		}
		if cfg.IsDefault() {
			t.Errorf("%s: spec %q is the default machine — the point perturbs nothing", p.Name, p.Spec)
		}
	}
	// The ISSUE's named perturbations must all be present.
	for _, want := range []string{"icache2x", "dassoc2", "itb-half", "wb-zero", "memlat2x", "l2lat2x", "issue4"} {
		if !seen[want] {
			t.Errorf("grid is missing %q", want)
		}
	}
}

func TestGridByNames(t *testing.T) {
	grid, err := GridByNames([]string{"memlat2x", "icache2x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || grid[0].Name != "memlat2x" || grid[1].Name != "icache2x" {
		t.Fatalf("subset = %+v, want memlat2x then icache2x", grid)
	}
	if _, err := GridByNames([]string{"warp9"}); err == nil {
		t.Fatal("unknown grid point accepted")
	}
}

func TestSweepRejectsNonDefaultBaseline(t *testing.T) {
	base := dcpi.Config{Workload: "compress", Scale: 0.02}
	base.HW = hw.Default()
	base.HW.ITBEntries = 24
	if _, err := Sweep(Options{Base: base}); err == nil {
		t.Fatal("Sweep accepted a perturbed baseline")
	}
}

// TestSweepCompress runs a real 3-point sweep end to end and checks the
// report's structure, the runner-cache interaction, and determinism.
func TestSweepCompress(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test simulates several runs")
	}
	grid, err := GridByNames([]string{"dcache2x", "memlat2x", "issue1"})
	if err != nil {
		t.Fatal(err)
	}
	sched := runner.New(0)
	opts := Options{
		Base:   dcpi.Config{Workload: "compress", Scale: 0.05, Seed: 3},
		Grid:   grid,
		Runner: sched,
	}
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseWall <= 0 || rep.Workload != "compress" {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(rep.Points))
	}
	if rep.Points[0].Name != "dcache2x" || rep.Points[2].Name != "issue1" {
		t.Fatalf("points out of grid order: %v %v", rep.Points[0].Name, rep.Points[2].Name)
	}
	if len(rep.Procs) == 0 || rep.Claims == 0 {
		t.Fatalf("no procedures analyzed or no claims: procs=%v claims=%d", rep.Procs, rep.Claims)
	}
	// Doubling memory latency must slow the machine down.
	mem := rep.Points[1]
	if mem.WallDeltaPct <= 0 {
		t.Errorf("memlat2x wall delta = %+.2f%%, want positive", mem.WallDeltaPct)
	}
	// issue1 is a wall-only point: no claims tested, no score.
	if is1 := rep.Points[2]; len(is1.Targets) != 0 || is1.ClaimsTested != 0 {
		t.Errorf("issue1 should be wall-only: %+v", is1)
	}
	if st := sched.Stats(); st.Simulated != 4 {
		t.Errorf("cold sweep simulated %d runs, want 4 (baseline + 3 points)", st.Simulated)
	}

	// The formatted report must mention every point and the aggregate.
	var buf bytes.Buffer
	FormatReport(&buf, rep)
	out := buf.String()
	for _, want := range []string{"dcache2x", "memlat2x", "issue1", "aggregate:", "per-cause"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}

	// JSON round-trip.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.BaseWall != rep.BaseWall || len(back.Points) != len(rep.Points) {
		t.Error("JSON round-trip lost data")
	}

	// Warm rerun through the same runner: all four runs served from the
	// single-flight cache, byte-identical report.
	rep2, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.Simulated != 4 || st.MemHits != 4 {
		t.Errorf("warm sweep stats = %+v, want 4 simulated / 4 mem hits", st)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("repeated sweep produced a different report")
	}
}

// benchSweep is the 2-point compress sweep both benchmarks run.
func benchSweep(b *testing.B) Options {
	grid, err := GridByNames([]string{"dcache2x", "memlat2x"})
	if err != nil {
		b.Fatal(err)
	}
	return Options{Base: dcpi.Config{Workload: "compress", Scale: 0.05, Seed: 3}, Grid: grid}
}

// BenchmarkWhatifRescore measures a warm 2-point sweep: every simulation
// resolves from the runner's memory cache, so what is timed is the
// analysis, diffing and scoring of one sweep (a microscope: go test -bench
// WhatifRescore ./internal/whatif).
func BenchmarkWhatifRescore(b *testing.B) {
	opts := benchSweep(b)
	opts.Runner = runner.New(0)
	rep, err := Sweep(opts) // cold pass populates the cache
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Sweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		if r.BaseWall != rep.BaseWall {
			b.Fatal("sweep diverged")
		}
	}
	b.ReportMetric(float64(rep.Claims), "claims/sweep")
}

// BenchmarkWhatifSweep measures a cold 2-point sweep: a fresh runner per
// iteration, so the baseline and both grid points simulate every time, as
// in a first dcpiwhatif run (bench/ reports the 11-point sweep as
// whatif.sweep_s).
func BenchmarkWhatifSweep(b *testing.B) {
	opts := benchSweep(b)
	for i := 0; i < b.N; i++ {
		opts.Runner = runner.New(0)
		if _, err := Sweep(opts); err != nil {
			b.Fatal(err)
		}
	}
}
