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

// TestCLIWhatif checks the what-if sweep end to end through the binary: a
// small grid over two workloads must print testdata/golden_whatif.txt byte
// for byte (every TP, FP, FN, precision and cycle recall is pinned), the
// JSON artifact must round-trip, and a warm rerun over a persistent cache
// must simulate nothing while keeping stdout byte for byte. Regenerate the
// golden after an intentional change with
//
//	go run ./cmd/dcpiwhatif -workloads compress,li -scale 0.05 \
//	    -grid dcache2x,memlat2x,issue1 > testdata/golden_whatif.txt
func TestCLIWhatif(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI what-if test simulates several runs")
	}
	bin := buildTool(t, "dcpiwhatif")
	dir := filepath.Join(t.TempDir(), "cache")
	jsonOut := filepath.Join(t.TempDir(), "report.json")
	base := []string{
		"-workloads", "compress,li", "-scale", "0.05",
		"-grid", "dcache2x,memlat2x,issue1",
		"-cache-dir", dir, "-json", jsonOut,
	}
	run := func() (stdout, stderr string) {
		cmd := exec.Command(bin, base...)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
		if err := cmd.Run(); err != nil {
			t.Fatalf("dcpiwhatif: %v\n%s", err, errBuf.String())
		}
		return outBuf.String(), errBuf.String()
	}
	statsOf := func(stderr string) map[string]float64 {
		var line string
		for _, l := range strings.Split(stderr, "\n") {
			if rest, ok := strings.CutPrefix(l, "dcpiwhatif-cache-stats "); ok {
				line = rest
			}
		}
		if line == "" {
			t.Fatalf("no dcpiwhatif-cache-stats line:\n%s", stderr)
		}
		stats := make(map[string]float64)
		if err := json.Unmarshal([]byte(line), &stats); err != nil {
			t.Fatalf("cache-stats not JSON: %v\n%s", err, line)
		}
		return stats
	}

	cold, coldErr := run()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_whatif.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if cold != string(golden) {
		t.Errorf("report differs from testdata/golden_whatif.txt:\n%s", cold)
	}
	cs := statsOf(coldErr)
	// Two workloads x (baseline + 3 points), all distinct configurations.
	if cs["simulated"] != 8 {
		t.Errorf("cold pass simulated %v runs, want 8", cs["simulated"])
	}

	var reports []map[string]any
	blob, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if len(reports) != 2 || reports[0]["workload"] != "compress" || reports[1]["workload"] != "li" {
		t.Fatalf("JSON reports malformed: %d entries", len(reports))
	}
	if w, ok := reports[0]["base_wall_cycles"].(float64); !ok || w <= 0 {
		t.Errorf("compress base wall = %v", reports[0]["base_wall_cycles"])
	}

	// Warm rerun: byte-identical stdout, zero simulations, all disk hits.
	warm, warmErr := run()
	if warm != cold {
		t.Errorf("warm rerun changed stdout:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	ws := statsOf(warmErr)
	if ws["simulated"] != 0 {
		t.Errorf("warm rerun simulated %v runs, want 0: %v", ws["simulated"], ws)
	}
	if ws["disk_hits"] != 8 {
		t.Errorf("warm rerun disk hits = %v, want 8: %v", ws["disk_hits"], ws)
	}
}
