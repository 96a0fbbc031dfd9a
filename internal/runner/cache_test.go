package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/runcache"
	"dcpi/internal/sim"
)

func testDisk(t *testing.T, dir string) *runcache.Cache {
	t.Helper()
	disk, err := runcache.Open(dir, runcache.Options{Stamp: dcpi.CacheStamp()})
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

// realRun stubs runFn with a tiny real simulation so the result survives
// the encode/decode round trip the disk tier performs.
func realRun(r *Runner, calls *atomic.Int64) {
	r.runFn = func(cfg dcpi.Config) (*dcpi.Result, error) {
		calls.Add(1)
		return dcpi.Run(cfg)
	}
}

func diskCfg() dcpi.Config {
	return dcpi.Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeCycles, Seed: 3}
}

func TestDiskTierServesAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	cfg := diskCfg()

	cold := New(2)
	cold.Disk = testDisk(t, dir)
	var coldCalls atomic.Int64
	realRun(cold, &coldCalls)
	res1, err := cold.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if coldCalls.Load() != 1 {
		t.Fatalf("cold run simulated %d times, want 1", coldCalls.Load())
	}

	// A fresh runner (fresh process, conceptually) over the same directory
	// must rehydrate instead of simulating.
	warm := New(2)
	warm.Disk = testDisk(t, dir)
	var warmCalls atomic.Int64
	realRun(warm, &warmCalls)
	res2, err := warm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmCalls.Load() != 0 {
		t.Errorf("warm run simulated %d times, want 0", warmCalls.Load())
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit, 0 simulated", st)
	}
	if res2.Wall != res1.Wall {
		t.Errorf("rehydrated Wall = %d, want %d", res2.Wall, res1.Wall)
	}
	ls, err := res1.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := res2.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if ws.ActualCPI != ls.ActualCPI || ws.Procedures != ls.Procedures {
		t.Error("rehydrated summary differs from simulated one")
	}
}

func TestCorruptDiskEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	cfg := diskCfg()

	cold := New(1)
	cold.Disk = testDisk(t, dir)
	var calls atomic.Int64
	realRun(cold, &calls)
	if _, err := cold.Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the single cache entry.
	matches, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("cache entries = %v, %v; want exactly 1", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := New(1)
	warm.Disk = testDisk(t, dir)
	var warmCalls atomic.Int64
	realRun(warm, &warmCalls)
	res, err := warm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmCalls.Load() != 1 {
		t.Errorf("corrupt entry served without re-simulation (%d calls)", warmCalls.Load())
	}
	if res == nil || res.Wall == 0 {
		t.Error("re-simulated result is empty")
	}
	bad, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bad) != 1 {
		t.Errorf("corrupt entry not quarantined: %v", bad)
	}
}

// A shard's results are the cache entries it writes: across the shards'
// directories the entries are disjoint, cover every key, and each sits where
// ShardOf says.
func TestShardsPartitionRunSet(t *testing.T) {
	const numShards = 3
	cfgs := make([]dcpi.Config, 7)
	for i := range cfgs {
		cfgs[i] = dcpi.Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeCycles, Seed: uint64(i + 1)}
	}

	disks := make([]*runcache.Cache, numShards+1) // indexed by shard, 1-based
	for shard := 1; shard <= numShards; shard++ {
		r := New(2)
		r.Shard, r.NumShards = shard, numShards
		r.Disk = testDisk(t, t.TempDir())
		disks[shard] = r.Disk
		var calls atomic.Int64
		realRun(r, &calls)
		for _, cfg := range cfgs {
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				t.Fatal("nil result from sharded run")
			}
		}
		st := r.Stats()
		held, _ := filepath.Glob(filepath.Join(r.Disk.Path(), "*.run"))
		if st.Simulated != len(held) {
			t.Errorf("shard %d: simulated %d but holds %d entries", shard, st.Simulated, len(held))
		}
		if st.Simulated+st.ShardSkipped != len(cfgs) {
			t.Errorf("shard %d: simulated %d + skipped %d != %d runs", shard, st.Simulated, st.ShardSkipped, len(cfgs))
		}
	}

	// Every run's entry is in exactly one shard's directory: its own.
	for _, cfg := range cfgs {
		key := Key(cfg)
		var heldBy []int
		for shard := 1; shard <= numShards; shard++ {
			if _, ok := disks[shard].Get(key); ok {
				heldBy = append(heldBy, shard)
			}
		}
		if want := ShardOf(key, numShards); len(heldBy) != 1 || heldBy[0] != want {
			t.Errorf("key %q held by shards %v, ShardOf says %d", key, heldBy, want)
		}
	}
}

func TestShardOfRangeAndDeterminism(t *testing.T) {
	for _, key := range []string{"", "a", "w=gcc|scale=0.25", "w=compress|seed=9"} {
		for _, n := range []int{1, 2, 4, 7} {
			s1, s2 := ShardOf(key, n), ShardOf(key, n)
			if s1 != s2 {
				t.Errorf("ShardOf(%q, %d) unstable: %d vs %d", key, n, s1, s2)
			}
			if s1 < 1 || s1 > n {
				t.Errorf("ShardOf(%q, %d) = %d out of range", key, n, s1)
			}
		}
	}
}

// A cached entry whose layout no longer applies must not be served: the
// decode fails as dcpi.Run would, the entry is quarantined, and the
// re-simulation surfaces Run's own error.
func TestStaleLayoutEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	res, err := dcpi.Run(diskCfg())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := dcpi.EncodeSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	stale := diskCfg()
	stale.Rewrites = []image.Layout{{Path: "/usr/bin/compress",
		Procs: []image.ProcLayout{{Name: "main"}, {Name: "no_such_procedure"}}}}
	testDisk(t, dir).Put(Key(stale), blob)

	r := New(1)
	r.Disk = testDisk(t, dir)
	var calls atomic.Int64
	realRun(r, &calls)
	_, err = r.Run(stale)
	if err == nil || !strings.Contains(err.Error(), "rewrite failed") {
		t.Errorf("err = %v, want Run's rewrite failure", err)
	}
	if st := r.Stats(); st.DiskHits != 0 || calls.Load() != 1 {
		t.Errorf("stats = %+v with %d simulations, want no disk hit and one simulation", st, calls.Load())
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) != 1 {
		t.Errorf("stale entry not quarantined: %v", bad)
	}
}

// With Obs on, every decode onto the shared shell — the one that follows a
// simulation as much as the one that follows a disk hit — is timed and
// accounted to a shell build or a shell hit in the runner's registry; the
// results keep the configuration they were submitted with.
func TestRehydrationMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfgs := make([]dcpi.Config, 5)
	for i := range cfgs {
		cfgs[i] = dcpi.Config{Workload: "compress", Scale: 0.020004, Mode: sim.ModeCycles, Seed: uint64(i + 1)}
	}
	runAll := func(r *Runner) {
		t.Helper()
		r.Disk = testDisk(t, dir)
		r.Obs = obs.Hooks{Registry: reg}
		for _, cfg := range cfgs {
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Config.Obs.Enabled() {
				t.Error("the runner's registry leaked into the result's configuration")
			}
		}
	}

	cold := New(1)
	runAll(cold)
	if st := cold.Stats(); st.Simulated != len(cfgs) {
		t.Fatalf("cold stats = %+v, want %d simulations", st, len(cfgs))
	}
	warm := New(2)
	runAll(warm)
	if st := warm.Stats(); st.DiskHits != len(cfgs) {
		t.Fatalf("warm stats = %+v, want %d disk hits", st, len(cfgs))
	}

	// One shape, so one shell: the first simulation's decode builds it and
	// every later decode, cold or warm, finds it.
	decodes := uint64(2 * len(cfgs))
	builds, hits := reg.Counter("dcpi.shell_builds").Value(), reg.Counter("dcpi.shell_hits").Value()
	if builds != 1 || builds+hits != decodes {
		t.Errorf("%d shell builds and %d hits over %d simulations and %d rehydrations of one shape, want 1 and %d",
			builds, hits, len(cfgs), len(cfgs), decodes-1)
	}
	if n := reg.Histogram("runner.rehydrate_us", rehydrateBuckets()).Count(); n != decodes {
		t.Errorf("runner.rehydrate_us has %d observations, want %d", n, decodes)
	}
}

// The memory tier holds what the disk tier would serve: a finished run's
// snapshot decoded onto the shared shell, with nothing of the machine that
// produced it behind it.
func TestMemoryTierRetainsNoMachine(t *testing.T) {
	cfg := diskCfg()
	direct, err := dcpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dcpi.EncodeSnapshot(direct)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++

	for _, withDisk := range []bool{false, true} {
		r := New(1)
		if withDisk {
			r.Disk = testDisk(t, t.TempDir())
		}
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Simulated != 1 {
			t.Fatalf("disk=%t: stats = %+v, want one simulation", withDisk, st)
		}
		if res.Driver != nil || res.Daemon != nil {
			t.Errorf("disk=%t: the memory tier kept the run's live driver or daemon", withDisk)
		}
		for _, p := range res.Loader.Processes() {
			if n := p.Mem.Pages(); n != 0 {
				t.Errorf("disk=%t: process %s still holds %d pages of memory", withDisk, p.Name, n)
			}
		}
		got, err := dcpi.EncodeSnapshot(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("disk=%t: the served result encodes differently from a direct dcpi.Run", withDisk)
		}
		res2, err := r.Run(other)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Loader != res.Loader {
			t.Errorf("disk=%t: two results of one shape do not share a loader", withDisk)
		}
	}
}
