package dcpibench

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRunCache checks the persistent-cache and sharding contract end to
// end on a small section: -cache-dir and -shard/-merge-shards must never
// change stdout by a byte, the warm pass must skip every simulation, and
// the cache-stats stderr line must account for how runs were resolved.
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

	// Two shards then merge: stdout identical to the unsharded run, and
	// the merge resolves the sharded runs by rehydration.
	sh := t.TempDir()
	a1 := filepath.Join(sh, "s1")
	a2 := filepath.Join(sh, "s2")
	if out, _ := run("-shard", "1/2", "-shard-out", a1); out != "" {
		t.Errorf("shard mode wrote to stdout:\n%s", out)
	}
	run("-shard", "2/2", "-shard-out", a2)
	merged, mergedErr := run("-merge-shards", a1+","+a2, "-metrics-out", metrics)
	if merged != want {
		t.Errorf("merged shard output differs from unsharded run:\n%s", merged)
	}
	ms := statsOf(mergedErr)
	if ms["disk_hits"] < 1 {
		t.Errorf("merge pass rehydrated nothing: %v", ms)
	}
	if ms["simulated"] != 0 {
		t.Errorf("merge pass re-simulated %v runs, want 0: %v", ms["simulated"], ms)
	}
}
