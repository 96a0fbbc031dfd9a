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
// end on a small section: -cache-dir — cold, warm, or filled by -shard
// processes — must never change stdout by a byte, the warm pass must skip
// every simulation, and the cache-stats stderr line must account for how
// runs were resolved.
func TestCLIRunCache(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI cache test is slow")
	}
	bin := buildTool(t, "dcpieval")
	base := []string{"-fig", "7", "-runs", "1", "-scale", "0.1"}
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
// caches reachable; the served results are under 10 MB).
func TestCLIColdSweepKeepsNoMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI cache test is slow")
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	cmd := exec.Command(buildTool(t, "dcpieval"),
		"-fig", "6", "-runs", "2", "-scale", "0.05", "-metrics-out", metrics)
	cmd.Env = append(os.Environ(), "DCPI_CACHE_DIR=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dcpieval: %v\n%s", err, out)
	}
	m := readMetrics(t, metrics)
	if m.Counters["runner.simulated"] == 0 {
		t.Fatalf("the sweep simulated nothing: %v", m.Counters)
	}
	if heap := m.Gauges["runtime.heap_alloc_bytes"]; heap <= 0 || heap >= 64<<20 {
		t.Errorf("runtime.heap_alloc_bytes = %.1f MB after a cold sweep, want under 64 MB", heap/(1<<20))
	}
}
