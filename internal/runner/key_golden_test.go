package runner

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/hw"
	"dcpi/internal/image"
	"dcpi/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenKeyConfigs spans every Config field Key folds in, so any change to
// the key format — or to what a field renders as — shows up as a diff.
func goldenKeyConfigs() []dcpi.Config {
	return []dcpi.Config{
		{},
		{Workload: "compress", Scale: 0.25, Mode: sim.ModeCycles, Seed: 1},
		{Workload: "gcc", Scale: 0.12, Mode: sim.ModeDefault, Seed: 42,
			CyclesPeriod: sim.PeriodSpec{Base: 60000, Spread: 4096},
			EventPeriod:  sim.PeriodSpec{Base: 65536, Spread: 0}},
		{Workload: "x11perf", Mode: sim.ModeMux, MuxInterval: 1 << 20, NumCPUs: 4},
		{Workload: "timeshare", DBDir: "/tmp/db", PerProcessPIDs: []uint32{100, 200}},
		{Workload: "timeshare", EphemeralDB: true, DrainInterval: 50000, MergeInterval: 900000},
		{Workload: "dss", CollectExact: true, MaxCycles: 1 << 24, TraceSamples: true},
		{Workload: "wave5", ZeroCostCollection: true, DoubleSample: true,
			InterpretBranches: true, MetaSamples: true},
		{Workload: "li", DriverBuckets: 1024, DriverOverflow: 8,
			Fault: daemon.FaultPlan{}},
		{Workload: "go", Mode: sim.ModeOff, Rewrites: []image.Layout{
			{Path: "/bin/go", Procs: []image.ProcLayout{
				{Name: "main"},
				{Name: "evalpos", Code: []alpha.Inst{{Op: alpha.OpRET, Rb: alpha.RegRA}}},
			}},
		}},
		{Workload: "compress", Scale: 0.25, Mode: sim.ModeCycles, Seed: 1,
			HW: mustParseHW("icache=16K/32/2,wb=6/0,issue=4,memlat=160")},
	}
}

func mustParseHW(spec string) hw.Config {
	c, err := hw.Parse(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// TestKeyGolden pins the exact content-key strings for a fixed set of
// configurations. The persistent run cache addresses entries by these keys
// across processes and machine lifetimes, so an accidental format change
// silently invalidates every existing cache directory. Deliberate
// changes must regenerate the golden file (go test -run TestKeyGolden
// -update ./internal/runner) and bump dcpi.SimVersion if the change
// re-partitions shard assignments.
func TestKeyGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range goldenKeyConfigs() {
		fmt.Fprintf(&b, "%s\n", Key(cfg))
	}
	got := b.String()

	path := filepath.Join("testdata", "key_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("Key format changed — existing cache directories silently invalidate.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestKeyDefaultHWIsByteStable proves the hw.Config refactor left every
// pre-existing cache key untouched: a config with the zero (default) HW —
// and one with the default machine spelled out explicitly — renders no
// "hw=" segment at all, so keys persisted before internal/hw existed still
// address the same entries.
func TestKeyDefaultHWIsByteStable(t *testing.T) {
	for _, cfg := range goldenKeyConfigs() {
		if !cfg.HW.IsDefault() {
			continue
		}
		base := Key(cfg)
		if strings.Contains(base, "hw=") {
			t.Errorf("default-HW key contains hw segment: %s", base)
		}
		// The default machine spelled out field-by-field must produce the
		// same key as the zero value.
		explicit := cfg
		explicit.HW = hw.Default()
		if k := Key(explicit); k != base {
			t.Errorf("explicit-default HW changed the key:\n %s\n %s", base, k)
		}
	}
	nd := dcpi.Config{Workload: "compress", HW: mustParseHW("itb=24")}
	if k := Key(nd); !strings.Contains(k, "|hw=itb=24") {
		t.Errorf("non-default HW missing from key: %s", k)
	}
}
