package dcpi

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcpi/internal/daemon"
	"dcpi/internal/driver"
	"dcpi/internal/pipeline"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

// fixtureResult is the fixed input testdata/snapshot_v3.bin was recorded
// from (at the commit before the codec moved onto internal/wire): every
// field of the blob distinct, exact counts for two images, a three-sample
// trace and two profiles. It is built by hand, not simulated, so the
// fixture pins the blob layout and nothing about the simulator.
func fixtureResult() *Result {
	text := profiledb.NewProfile("/usr/bin/compress", sim.EvCycles)
	text.Add(0, 11)
	text.Add(8, 400)
	text.Add(0x2000, 70000)
	kernel := profiledb.NewProfile("/kernel", sim.EvIMiss)
	kernel.Add(1<<33, 3)
	return &Result{
		Config:  Config{Workload: "compress", Scale: 0.02},
		Wall:    1_234_567,
		NumCPUs: 1,
		DriverStats: driver.Stats{
			Samples: 101, Hits: 102, Misses: 103, Evictions: 104, Inserts: 105, FlushIPIs: 106,
			BufSwaps: 107, Direct: 108, Lost: 109, Deferred: 110, CostCycles: -111,
		},
		DriverKernelBytes: 112,
		DaemonStats: daemon.Stats{
			Entries: 201, Samples: 202, Unknown: 203, Drains: 204, Merges: 205, BuffersFull: 206,
			Deferred: 207, Crashes: 208, Restarts: 209, CrashDropped: 210, CostCycles: 1 << 40,
			Notifications: 212,
		},
		DaemonMemBytes:  213,
		DaemonPeakBytes: 214,
		DBDiskBytes:     215,
		MachineStats: sim.Stats{
			Cycles: 301, Instructions: 302, IssueGroups: 303, Samples: 304, ICacheMisses: 305,
			DCacheMisses: 306, ITBMisses: 307, DTBMisses: 308, Mispredicts: 309, WBOverflows: 310,
			Faults: 311,
		},
		Exact: &sim.Counts{
			Exec:  map[uint32][]uint64{1: {5, 0, 1 << 35}, 3: {9}},
			Taken: map[uint32][]uint64{1: {1, 0, 0}, 3: {}},
		},
		Trace: []sim.Sample{
			{CPU: 0, PID: 7, PC: 0x120000000, Event: sim.EvCycles, Clock: 99},
			{CPU: 0, PID: 7, PC: 0x120000004, PC2: 0x120000040, Event: sim.EvEdge, Clock: 1 << 34},
			{CPU: 0, PID: 0, PC: 1 << 63, Event: sim.EvDTBMiss, Clock: -1},
		},
		profiles: []*profiledb.Profile{text, kernel},
	}
}

// TestSnapshotFixture pins the snapshot layout to bytes on disk: the
// committed blob must decode to fixtureResult and re-encode to itself. The
// fixture is compatibility evidence, not a golden to refresh: a
// SnapshotVersion bump records a new file.
func TestSnapshotFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot_v3.bin"))
	if err != nil {
		t.Fatal(err)
	}
	fix := fixtureResult()
	res, err := DecodeSnapshot(want, fix.Config)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot_v3.bin re-encodes to different bytes:\n got %x\nwant %x", got, want)
	}
	if res.Loader == nil || res.Model() != fix.Config.HW.Resolved().Model {
		t.Error("decoded result has no shell")
	}
	res.Loader, res.model = nil, pipeline.Model{}
	if !reflect.DeepEqual(res, fix) {
		t.Errorf("snapshot_v3.bin decoded to\n%+v\nwant\n%+v", res, fix)
	}
}
