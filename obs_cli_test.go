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

// TestCLIObservability checks the self-observability contract end to end:
//
//  1. With -stats-out/-trace-out unset, dcpid and dcpieval stdout is
//     byte-identical to an instrumented run (zero overhead when disabled).
//  2. The metrics JSON covers every figure printed in the dcpid summary
//     block (handler-cycle histogram, hash miss rate, evictions, daemon
//     cycles/sample, database bytes, ...).
//  3. The trace JSON parses as Chrome trace format (Perfetto-loadable).
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI observability test is slow")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		return out
	}
	// run executes prog in dir and returns stdout only: the obs flags add
	// stderr chatter by design, stdout is the byte-stable surface.
	run := func(dir, prog string, args ...string) string {
		cmd := exec.Command(prog, args...)
		cmd.Dir = dir
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\n%s%s", filepath.Base(prog), args, err, stdout.String(), stderr.String())
		}
		return stdout.String()
	}

	dcpid := build("dcpid")
	dcpieval := build("dcpieval")

	// Identical args in two different working directories: the relative -db
	// path keeps the stdout summary identical, the obs flags only add files
	// and stderr lines.
	dirPlain := t.TempDir()
	dirObs := t.TempDir()
	args := []string{"-workload", "x11perf", "-mode", "default", "-db", "dcpidb",
		"-scale", "0.15", "-seed", "1", "-period", "2048"}
	plain := run(dirPlain, dcpid, args...)
	instr := run(dirObs, dcpid, append(args, "-stats-out", "metrics.json", "-trace-out", "trace.json")...)
	if plain != instr {
		t.Errorf("dcpid stdout changed when observability enabled:\nplain:\n%s\nobs:\n%s", plain, instr)
	}

	metrics := readMetrics(t, filepath.Join(dirObs, "metrics.json"))
	// Every figure in the dcpid summary block must have a metrics key.
	for _, key := range []string{"machine.instructions", "driver.samples", "driver.evictions"} {
		if _, ok := metrics.Counters[key]; !ok {
			t.Errorf("metrics missing counter %q", key)
		}
	}
	for _, key := range []string{
		"machine.wall_cycles", "driver.miss_rate", "driver.avg_handler_cycles",
		"daemon.unknown_rate", "daemon.cycles_per_sample", "daemon.memory_bytes",
		"db.epoch", "db.disk_bytes", "sim.host_ns_per_inst",
	} {
		if _, ok := metrics.Gauges[key]; !ok {
			t.Errorf("metrics missing gauge %q", key)
		}
	}
	hcy, ok := metrics.Histograms["driver.handler_cycles"]
	if !ok {
		t.Fatal("metrics missing histogram driver.handler_cycles")
	}
	if hcy.Count == 0 || hcy.Count != metrics.Counters["driver.samples"] {
		t.Errorf("handler histogram count %d != driver.samples %d",
			hcy.Count, metrics.Counters["driver.samples"])
	}
	if hcy.P50 <= 0 || hcy.P99 < hcy.P50 {
		t.Errorf("handler histogram percentiles p50=%g p99=%g", hcy.P50, hcy.P99)
	}

	checkChromeTrace(t, filepath.Join(dirObs, "trace.json"),
		"intr:", "process:", "epoch_flush")

	// Same contract for dcpieval on a small section.
	eargs := []string{"-fig", "7", "-runs", "1", "-scale", "0.1"}
	eplain := run(dirPlain, dcpieval, eargs...)
	einstr := run(dirObs, dcpieval, append(eargs, "-metrics-out", "eval_metrics.json", "-trace-out", "eval_trace.json")...)
	if eplain != einstr {
		t.Errorf("dcpieval stdout changed when observability enabled:\nplain:\n%s\nobs:\n%s", eplain, einstr)
	}
	em := readMetrics(t, filepath.Join(dirObs, "eval_metrics.json"))
	if em.Counters["runner.simulated"] == 0 {
		t.Error("eval metrics: runner.simulated is zero")
	}
	for _, key := range []string{"runner.workers", "runner.dedup_rate"} {
		if _, ok := em.Gauges[key]; !ok {
			t.Errorf("eval metrics missing gauge %q", key)
		}
	}
	for _, key := range []string{"runner.queue_wait_us", "runner.run_wall_us"} {
		if h, ok := em.Histograms[key]; !ok || h.Count == 0 {
			t.Errorf("eval metrics histogram %q missing or empty", key)
		}
	}
	checkChromeTrace(t, filepath.Join(dirObs, "eval_trace.json"), "Figure 7")

	// The machine-readable cache-stats stderr line rides along with
	// -metrics-out (satellite: pipelines scrape it without reading files).
	cmd := exec.Command(dcpieval, "-fig", "7", "-runs", "1", "-scale", "0.1",
		"-metrics-out", filepath.Join(dirObs, "m2.json"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Stdout = new(bytes.Buffer)
	if err := cmd.Run(); err != nil {
		t.Fatalf("dcpieval -metrics-out: %v\n%s", err, stderr.String())
	}
	var statsLine string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "dcpieval-cache-stats "); ok {
			statsLine = rest
		}
	}
	if statsLine == "" {
		t.Fatalf("no dcpieval-cache-stats line on stderr:\n%s", stderr.String())
	}
	var stats struct {
		Simulated    int     `json:"simulated"`
		MemHits      int     `json:"mem_hits"`
		DiskHits     int     `json:"disk_hits"`
		ShardSkipped int     `json:"shard_skipped"`
		DedupRate    float64 `json:"dedup_rate"`
		HitRate      float64 `json:"hit_rate"`
		Workers      int     `json:"workers"`
	}
	if err := json.Unmarshal([]byte(statsLine), &stats); err != nil {
		t.Fatalf("cache-stats line is not JSON: %v\n%s", err, statsLine)
	}
	if stats.Simulated == 0 || stats.Workers == 0 {
		t.Errorf("cache-stats line implausible: %+v", stats)
	}
	if stats.DiskHits != 0 || stats.ShardSkipped != 0 {
		t.Errorf("cache-stats reports disk/shard activity without -cache-dir/-shard: %+v", stats)
	}

	// Metrics on, tracing off: host-side timings need a clock of their own
	// (they used to read the nil tracer's and record zeros).
	m2 := readMetrics(t, filepath.Join(dirObs, "m2.json"))
	if m2.Gauges["sim.host_ns_per_inst"] <= 0 {
		t.Errorf("sim.host_ns_per_inst = %g without -trace-out, want > 0", m2.Gauges["sim.host_ns_per_inst"])
	}
	if h := m2.Histograms["runner.run_wall_us"]; h.Count == 0 || h.Max <= 0 {
		t.Errorf("runner.run_wall_us without -trace-out: count %d, max %g us; want real durations", h.Count, h.Max)
	}
}

// metricsFile mirrors the obs.Snapshot JSON layout.
type metricsFile struct {
	Counters   map[string]uint64  `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Max   float64 `json:"max"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
	} `json:"histograms"`
}

func readMetrics(t *testing.T, path string) metricsFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m metricsFile
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s is not valid metrics JSON: %v", path, err)
	}
	return m
}

// checkChromeTrace parses path as Chrome trace format, validates the
// required per-event fields, and checks each wantNames substring appears in
// some event name.
func checkChromeTrace(t *testing.T, path string, wantNames ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s is not valid Chrome trace JSON: %v", path, err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("%s: no trace events", path)
	}
	names := make([]string, 0, len(trace.TraceEvents))
	for i, ev := range trace.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" || name == "" {
			t.Fatalf("%s event %d: missing ph/name: %v", path, i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("%s event %d: missing pid: %v", path, i, ev)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("%s event %d: complete event missing dur: %v", path, i, ev)
			}
		}
		names = append(names, name)
	}
	all := strings.Join(names, "\n")
	for _, want := range wantNames {
		if !strings.Contains(all, want) {
			t.Errorf("%s: no event name containing %q", path, want)
		}
	}
}
