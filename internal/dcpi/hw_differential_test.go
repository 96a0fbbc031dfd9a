package dcpi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"dcpi/internal/hw"
	"dcpi/internal/sim"
)

// TestDefaultHWConfigByteIdentical is the differential lock on the hw.Config
// refactor: a full profiled run with the zero HW must be byte-identical —
// wall clock, machine stats, driver stats, every profile, the whole encoded
// snapshot — to one with hw.Default() spelled out. Together with the golden
// Table 2 digest (which runs the zero config) this proves the refactor
// changed no default behaviour.
func TestDefaultHWConfigByteIdentical(t *testing.T) {
	base := Config{Workload: "compress", Scale: 0.05, Mode: sim.ModeDefault, Seed: 3,
		CollectExact: true}
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withHW := base
	withHW.HW = hw.Default()
	r2, err := Run(withHW)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Wall != r2.Wall {
		t.Fatalf("wall diverged: %d vs %d", r1.Wall, r2.Wall)
	}
	if r1.MachineStats != r2.MachineStats {
		t.Fatalf("machine stats diverged:\n %v\n %v", r1.MachineStats, r2.MachineStats)
	}
	b1, err := EncodeSnapshot(r1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeSnapshot(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoded snapshots diverged between zero HW and explicit default HW")
	}
}

// TestNonDefaultHWChangesTheMachine sanity-checks the other direction: a
// perturbed machine must actually produce different timing (otherwise the
// what-if engine would be diffing a config that never reached the
// simulator) while leaving the architectural instruction stream intact.
func TestNonDefaultHWChangesTheMachine(t *testing.T) {
	base := Config{Workload: "compress", Scale: 0.05, Mode: sim.ModeDefault, Seed: 3,
		CollectExact: true}
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.HW = hw.Default()
	slow.HW.Model.MemLat *= 2
	r2, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Wall <= r1.Wall {
		t.Fatalf("doubling MemLat did not slow the machine: %d vs %d", r2.Wall, r1.Wall)
	}
	if r2.Machine.Model.MemLat != 160 {
		t.Fatalf("result model MemLat = %d, want 160", r2.Machine.Model.MemLat)
	}
}

// TestSnapshotRejectsHWMismatch: a blob encoded under one machine must not
// decode under a different one (the cache key normally prevents this; the
// embedded spec is defense in depth against key collisions or hand-moved
// cache files).
func TestSnapshotRejectsHWMismatch(t *testing.T) {
	cfg := Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeCycles, Seed: 1}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSnapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(blob, cfg); err != nil {
		t.Fatalf("same-machine decode failed: %v", err)
	}
	other := cfg
	other.HW = hw.Default()
	other.HW.ITBEntries = 24
	if _, err := DecodeSnapshot(blob, other); err == nil {
		t.Fatal("decode under a different machine succeeded")
	}
}

// TestInvalidHWRejectedByRun: Run must validate before simulating.
func TestInvalidHWRejectedByRun(t *testing.T) {
	cfg := Config{Workload: "compress", Scale: 0.02}
	cfg.HW = hw.Default()
	cfg.HW.ICache.Size = 12345 // not a power of two
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an invalid hw config")
	}
}

// TestWideIssuePinned pins a run on a 4-wide machine — where a group's later
// slots are checked against its non-adjacent members pairwise and against
// their predecessor through the static pairing table — to the statistics and
// snapshot recorded before the simulator's step path read that table (the
// what-if goldens cover the default width).
func TestWideIssuePinned(t *testing.T) {
	cfg := Config{Workload: "x11perf", Scale: 0.05, Mode: sim.ModeDefault, Seed: 3, CollectExact: true}
	cfg.HW = hw.Default()
	cfg.HW.IssueWidth = 4
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Stats{Cycles: 3946903, Instructions: 0x10863a, IssueGroups: 0xaaed7, Samples: 0x3e,
		ICacheMisses: 0x12c3, DCacheMisses: 0x3840, ITBMisses: 0x6, DTBMisses: 0x7,
		Mispredicts: 0x123f, WBOverflows: 0x7150}
	if r.Wall != want.Cycles || r.MachineStats != want {
		t.Errorf("4-wide x11perf diverged from the recorded run:\n got  wall=%d %v\n want wall=%d %v",
			r.Wall, r.MachineStats, want.Cycles, want)
	}
	blob, err := EncodeSnapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	const wantSum = "4e565d0b46de1b1adf2ba91b417e1b21253299a0c447bfa92460f891e07f50d4"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != wantSum {
		t.Errorf("4-wide x11perf snapshot sha256 = %s, recorded %s", got, wantSum)
	}
}
