package dcpi

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dcpi/internal/daemon"
	"dcpi/internal/driver"
	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

var updateCorpus = flag.Bool("update", false, "re-record the FuzzDecodeSnapshot seed corpus")

func snapshotTestConfig() Config {
	return Config{
		Workload:     "compress",
		Scale:        0.02,
		Mode:         sim.ModeDefault,
		Seed:         7,
		CollectExact: true,
		TraceSamples: true,
	}
}

// A decoded snapshot must be indistinguishable from the live run through
// every accessor the evaluation harness uses: same summary text, same
// procedure rows, same per-instruction analysis, same stats snapshot.
func TestSnapshotRoundTrip(t *testing.T) {
	live, err := Run(snapshotTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSnapshot(live)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := DecodeSnapshot(blob, live.Config)
	if err != nil {
		t.Fatal(err)
	}

	if warm.Wall != live.Wall || warm.NumCPUs != live.NumCPUs {
		t.Errorf("wall/ncpu = %d/%d, want %d/%d", warm.Wall, warm.NumCPUs, live.Wall, live.NumCPUs)
	}
	if warm.DriverStats != live.DriverStats {
		t.Errorf("driver stats = %+v, want %+v", warm.DriverStats, live.DriverStats)
	}
	if warm.DaemonStats != live.DaemonStats {
		t.Errorf("daemon stats = %+v, want %+v", warm.DaemonStats, live.DaemonStats)
	}
	if warm.MachineStats != live.MachineStats {
		t.Errorf("machine stats = %+v, want %+v", warm.MachineStats, live.MachineStats)
	}
	if live.MachineStats.Cycles == 0 || live.MachineStats.Instructions == 0 {
		t.Errorf("live run captured empty machine stats: %+v", live.MachineStats)
	}
	if warm.DaemonMemBytes != live.DaemonMemBytes || warm.DaemonPeakBytes != live.DaemonPeakBytes ||
		warm.DriverKernelBytes != live.DriverKernelBytes || warm.DBDiskBytes != live.DBDiskBytes {
		t.Error("memory/disk byte counters did not round-trip")
	}
	if !reflect.DeepEqual(warm.Trace, live.Trace) {
		t.Errorf("trace did not round-trip (%d vs %d samples)", len(warm.Trace), len(live.Trace))
	}
	if !reflect.DeepEqual(warm.Exact.Exec, live.Exact.Exec) || !reflect.DeepEqual(warm.Exact.Taken, live.Exact.Taken) {
		t.Error("exact counts did not round-trip")
	}
	if len(warm.Profiles()) != len(live.Profiles()) {
		t.Fatalf("profiles = %d, want %d", len(warm.Profiles()), len(live.Profiles()))
	}
	for i, lp := range live.Profiles() {
		wp := warm.Profiles()[i]
		if wp.ImagePath != lp.ImagePath || wp.Event != lp.Event || !reflect.DeepEqual(wp.Counts, lp.Counts) {
			t.Errorf("profile %d (%s/%v) did not round-trip", i, lp.ImagePath, lp.Event)
		}
	}

	// Rendered output paths: summary and procedure rows must match exactly.
	ls, err := live.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := warm.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, ls) {
		t.Error("Summarize() differs between live and rehydrated result")
	}
	if !reflect.DeepEqual(warm.ProcRows(), live.ProcRows()) {
		t.Error("ProcRows() differs between live and rehydrated result")
	}
	rows := live.ProcRows()
	if len(rows) > 0 {
		la, err := live.AnalyzeProc(rows[0].ImagePath, rows[0].Procedure)
		if err != nil {
			t.Fatal(err)
		}
		wa, err := warm.AnalyzeProc(rows[0].ImagePath, rows[0].Procedure)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wa, la) {
			t.Errorf("AnalyzeProc(%s) differs between live and rehydrated result", rows[0].Procedure)
		}
	}
}

// An ephemeral-DB run must report the database footprint it would have had
// with a real DBDir, while leaving nothing behind on disk and keeping the
// result serializable.
func TestEphemeralDBMeasuresDiskUsage(t *testing.T) {
	cfg := snapshotTestConfig()
	cfg.EphemeralDB = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DBDiskBytes <= 0 {
		t.Errorf("DBDiskBytes = %d, want > 0", res.DBDiskBytes)
	}
	if res.DB != nil {
		t.Error("ephemeral run leaked a live DB handle")
	}
	if len(res.Profiles()) == 0 {
		t.Error("ephemeral run lost its profiles")
	}
	if _, err := EncodeSnapshot(res); err != nil {
		t.Errorf("ephemeral result not serializable: %v", err)
	}
}

// PlaceholderResult must satisfy every accessor a section touches without
// panicking, since shard mode feeds placeholders through full experiment
// rendering code.
func TestPlaceholderResultIsRenderable(t *testing.T) {
	res, err := PlaceholderResult(snapshotTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Summarize(); err != nil {
		t.Errorf("Summarize: %v", err)
	}
	res.ProcRows()
	res.ProcSampleMap()
	res.TotalSamples(sim.EvCycles)
	if res.NumCPUs == 0 || res.Loader == nil {
		t.Fatal("placeholder missing CPU count/loader")
	}
}

// The snapshot codec hardcodes the field-by-field layout of driver.Stats
// and daemon.Stats. If either struct gains or loses a field, the encoding
// silently drops data — so pin the field counts here.
func TestSnapshotPinsStatsFields(t *testing.T) {
	if n := reflect.TypeOf(driver.Stats{}).NumField(); n != 11 {
		t.Errorf("driver.Stats has %d fields, snapshot codec encodes 11: update EncodeSnapshot/DecodeSnapshot and bump SnapshotVersion", n)
	}
	if n := reflect.TypeOf(daemon.Stats{}).NumField(); n != 12 {
		t.Errorf("daemon.Stats has %d fields, snapshot codec encodes 12: update EncodeSnapshot/DecodeSnapshot and bump SnapshotVersion", n)
	}
	if n := reflect.TypeOf(sim.Stats{}).NumField(); n != 11 {
		t.Errorf("sim.Stats has %d fields, snapshot codec encodes 11: update EncodeSnapshot/DecodeSnapshot and bump SnapshotVersion", n)
	}
}

// snapshotPrefix writes a well-formed blob for cfg up to and including the
// machine statistics, every number zero except the machine size: what
// precedes the first count DecodeSnapshot sizes an allocation from.
func snapshotPrefix(cfg Config, ncpu uint64) *wire.Enc {
	w := &wire.Enc{}
	w.Uvarint(SnapshotVersion)
	w.Str(cfg.HW.String())
	w.Varint(0) // wall
	w.Uvarint(ncpu)
	for i := 0; i < 12+15+11; i++ { // driver, daemon, machine stats
		w.Uvarint(0)
	}
	return w
}

// A blob is untrusted: a count that the remaining bytes cannot hold must
// fail the decode, not size an allocation (these panicked or tried to
// allocate terabytes before the counts were bounded).
func TestDecodeSnapshotBoundsCounts(t *testing.T) {
	cfg := Config{Workload: "compress", Scale: 0.02}
	const huge = 1 << 40
	tails := map[string][]uint64{
		"images":   {1, huge},
		"exec":     {1, 1, 7, huge},
		"taken":    {1, 1, 7, 0, huge},
		"trace":    {0, huge},
		"profiles": {0, 0, huge},
		"profile":  {0, 0, 1, huge},
	}
	for name, tail := range tails {
		w := snapshotPrefix(cfg, 1)
		for _, v := range tail {
			w.Uvarint(v)
		}
		if _, err := DecodeSnapshot(w.B, cfg); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s count of 2^40: err = %v, want a bounds error", name, err)
		}
	}

	// The machine size is checked against the configuration instead: it
	// would otherwise pick how many CPUs the shell's machine is built with.
	w := snapshotPrefix(cfg, huge)
	for i := 0; i < 3; i++ { // no exact counts, no trace, no profiles
		w.Uvarint(0)
	}
	if _, err := DecodeSnapshot(w.B, cfg); err == nil || !strings.Contains(err.Error(), "CPUs") {
		t.Errorf("machine size of 2^40: err = %v, want a CPU-count mismatch", err)
	}
}

// fuzzSnapshotConfig is the configuration FuzzDecodeSnapshot decodes under
// and the committed corpus was recorded with (testdata/fuzz).
func fuzzSnapshotConfig() Config {
	return Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeDefault, Seed: 7}
}

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary bytes: it must fail or
// succeed without panicking or allocating past its input, and whatever it
// accepts must survive its own codec. The corpus is seeded from real
// snapshots, with and without exact counts and trace; re-record it with
// go test ./internal/dcpi -run TestSnapshotFuzzCorpus -update
// after a SnapshotVersion bump.
func FuzzDecodeSnapshot(f *testing.F) {
	cfg := fuzzSnapshotConfig()
	f.Fuzz(func(t *testing.T, blob []byte) {
		res, err := DecodeSnapshot(blob, cfg)
		if err != nil {
			return
		}
		again, err := EncodeSnapshot(res)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(again, cfg); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}

// TestSnapshotFuzzCorpus keeps the committed seed corpus honest: every seed
// must still decode (a seed that stopped decoding exercises nothing past the
// version check).
func TestSnapshotFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, shape := range map[string][2]bool{
			"seed-plain": {false, false}, "seed-exact": {true, false},
			"seed-trace": {false, true}, "seed-exact-trace": {true, true},
		} {
			cfg := fuzzSnapshotConfig()
			cfg.CollectExact, cfg.TraceSamples = shape[0], shape[1]
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := EncodeSnapshot(res)
			if err != nil {
				t.Fatal(err)
			}
			seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeds, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil || len(seeds) < 4 {
		t.Fatalf("corpus has %d seeds (%v), want the four real snapshots", len(seeds), err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(string(data), "go test fuzz v1\n[]byte("), ")\n")
		blob, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := DecodeSnapshot([]byte(blob), fuzzSnapshotConfig()); err != nil {
			t.Errorf("%s no longer decodes: %v", path, err)
		}
	}
}
