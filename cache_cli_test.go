package dcpibench

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRunCache checks the persistent-cache and sharding contract end to
// end on a small section (Figure 6's 24 runs, so that both shards have
// some): -cache-dir — cold, warm, or filled by -shard processes into one
// directory or into one each — must never change stdout by a byte, the warm
// pass must skip every simulation, and the cache-stats stderr line must
// account for how runs were resolved.
func TestCLIRunCache(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI cache test is slow")
	}
	bin := buildTool(t, "dcpieval")
	base := []string{"-fig", "6", "-runs", "2", "-scale", "0.05"}
	run := func(extra ...string) (stdout, stderr string) {
		cmd := exec.Command(bin, append(append([]string{}, base...), extra...)...)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
		if err := cmd.Run(); err != nil {
			t.Fatalf("dcpieval %v: %v\n%s", extra, err, errBuf.String())
		}
		return outBuf.String(), errBuf.String()
	}
	statsOf := func(stderr string) map[string]float64 {
		var line string
		for _, l := range strings.Split(stderr, "\n") {
			if rest, ok := strings.CutPrefix(l, "dcpieval-cache-stats "); ok {
				line = rest
			}
		}
		if line == "" {
			t.Fatalf("no dcpieval-cache-stats line:\n%s", stderr)
		}
		stats := make(map[string]float64)
		if err := json.Unmarshal([]byte(line), &stats); err != nil {
			t.Fatalf("cache-stats not JSON: %v\n%s", err, line)
		}
		return stats
	}

	want, _ := run()

	// Cold pass populates the cache without changing output.
	dir := filepath.Join(t.TempDir(), "cache")
	metrics := filepath.Join(t.TempDir(), "m.json")
	cold, coldErr := run("-cache-dir", dir, "-metrics-out", metrics)
	if cold != want {
		t.Errorf("cold -cache-dir changed stdout:\n%s", cold)
	}
	cs := statsOf(coldErr)
	if cs["simulated"] == 0 || cs["disk_hits"] != 0 {
		t.Errorf("cold stats implausible: %v", cs)
	}

	// Warm pass: byte-identical, zero simulations, all disk hits.
	warm, warmErr := run("-cache-dir", dir, "-metrics-out", metrics)
	if warm != want {
		t.Errorf("warm -cache-dir changed stdout:\n%s", warm)
	}
	ws := statsOf(warmErr)
	if ws["simulated"] != 0 {
		t.Errorf("warm pass simulated %v runs, want 0: %v", ws["simulated"], ws)
	}
	if ws["disk_hits"] < 1 {
		t.Errorf("warm pass had no disk hits: %v", ws)
	}

	// Two shards into one directory, then the plain command over it: stdout
	// identical to the unsharded run, every run rehydrated, none simulated.
	sh := filepath.Join(t.TempDir(), "shards")
	for _, spec := range []string{"1/2", "2/2"} {
		out, stderr := run("-shard", spec, "-cache-dir", sh)
		if out != "" {
			t.Errorf("shard mode wrote to stdout:\n%s", out)
		}
		if !strings.Contains(stderr, "shard "+spec+": simulated ") || !strings.Contains(stderr, " into "+sh) {
			t.Errorf("shard %s did not report what it simulated into %s:\n%s", spec, sh, stderr)
		}
	}
	merged, mergedErr := run("-cache-dir", sh, "-metrics-out", metrics)
	if merged != want {
		t.Errorf("output over the shards' directory differs from unsharded run:\n%s", merged)
	}
	ms := statsOf(mergedErr)
	if ms["disk_hits"] < 1 {
		t.Errorf("pass over the shards' directory rehydrated nothing: %v", ms)
	}
	if ms["simulated"] != 0 || !strings.Contains(mergedErr, "dcpieval: 0 simulations run") {
		t.Errorf("pass over the shards' directory re-simulated %v runs, want 0: %v\n%s", ms["simulated"], ms, mergedErr)
	}

	// Hosts with no shared filesystem: a directory per shard, merged by
	// copying the entries (their names are content hashes) into one.
	union := filepath.Join(t.TempDir(), "union")
	if err := os.Mkdir(union, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"1/2", "2/2"} {
		own := filepath.Join(t.TempDir(), "shard")
		run("-shard", spec, "-cache-dir", own)
		entries, _ := filepath.Glob(filepath.Join(own, "*.run"))
		if len(entries) == 0 {
			t.Errorf("shard %s wrote no entries into its own directory", spec)
		}
		for _, e := range entries {
			data, err := os.ReadFile(e)
			if err == nil {
				err = os.WriteFile(filepath.Join(union, filepath.Base(e)), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	unioned, unionedErr := run("-cache-dir", union, "-metrics-out", metrics)
	if unioned != want {
		t.Errorf("output over the union of per-shard directories differs from unsharded run:\n%s", unioned)
	}
	if us := statsOf(unionedErr); us["simulated"] != 0 {
		t.Errorf("pass over the union of per-shard directories re-simulated %v runs, want 0: %v", us["simulated"], us)
	}

	// A shard's results are the cache entries it writes, so -shard with no
	// cache directory is a usage error that writes nothing.
	empty := t.TempDir()
	cmd := exec.Command(bin, append(append([]string{}, base...), "-shard", "1/2")...)
	cmd.Dir = empty
	cmd.Env = append(os.Environ(), "DCPI_CACHE_DIR=")
	msg, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("-shard without a cache directory: %v, want exit 2\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "-shard needs -cache-dir") || strings.Count(strings.TrimSpace(string(msg)), "\n") != 0 {
		t.Errorf("-shard without a cache directory: want a one-line reason, got:\n%s", msg)
	}
	if left, _ := os.ReadDir(empty); len(left) != 0 {
		t.Errorf("-shard without a cache directory wrote %d files", len(left))
	}
}

// TestCLIColdSweepKeepsNoMachines bounds what a cold sweep still holds when
// it exits: the results it served, not the machines that produced them (24
// simulations used to leave 266 MB of process memory, driver tables and
// caches reachable; the served results are under 10 MB). The warm pass over
// the cache it filled must then rehydrate all 24 onto shared image shells:
// Figure 6 is 3 workloads x 4 modes x runs, so at most one shell build per
// workload however many runs share it, and every rehydration accounted to a
// build or a hit — counts, not timings.
func TestCLIColdSweepKeepsNoMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI cache test is slow")
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	cache := filepath.Join(t.TempDir(), "cache")
	run := func() (stdout string, m metricsFile) {
		cmd := exec.Command(buildTool(t, "dcpieval"),
			"-fig", "6", "-runs", "2", "-scale", "0.05", "-cache-dir", cache, "-metrics-out", metrics)
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("dcpieval: %v\n%s", err, errBuf.String())
		}
		return string(out), readMetrics(t, metrics)
	}

	cold, m := run()
	if m.Counters["runner.simulated"] == 0 {
		t.Fatalf("the sweep simulated nothing: %v", m.Counters)
	}
	if heap := m.Gauges["runtime.heap_alloc_bytes"]; heap <= 0 || heap >= 64<<20 {
		t.Errorf("runtime.heap_alloc_bytes = %.1f MB after a cold sweep, want under 64 MB", heap/(1<<20))
	}

	warm, m := run()
	if warm != cold {
		t.Errorf("warm pass changed stdout:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	// A counter that was never incremented is absent, which reads as 0.
	simulated, rehydrated := m.Counters["runner.simulated"], m.Counters["runner.disk_hits"]
	builds, hits := m.Counters["dcpi.shell_builds"], m.Counters["dcpi.shell_hits"]
	if simulated != 0 || rehydrated != 24 {
		t.Errorf("warm pass: %d simulated, %d rehydrated; want 0 and 24", simulated, rehydrated)
	}
	if builds < 1 || builds > 3 || builds+hits != rehydrated {
		t.Errorf("warm pass: %d shell builds + %d shell hits for %d rehydrated runs; want 1 to 3 builds, builds + hits = rehydrated",
			builds, hits, rehydrated)
	}
	if _, ok := m.Histograms["runner.rehydrate_us"]; !ok {
		t.Error("warm pass: no runner.rehydrate_us histogram")
	}
}
