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
//  1. With -metrics-out/-trace-out unset, dcpid and dcpieval stdout is
//     byte-identical to an instrumented run (zero overhead when disabled).
//  2. The metrics JSON covers every figure printed in the dcpid summary
//     block (handler-cycle histogram, hash miss rate, evictions, daemon
//     cycles/sample, database bytes, ...).
//  3. The trace JSON parses as Chrome trace format (Perfetto-loadable).
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI observability test is slow")
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

	dcpid := buildTool(t, "dcpid")
	dcpieval := buildTool(t, "dcpieval")

	// Identical args in two different working directories: the relative -db
	// path keeps the stdout summary identical, the obs flags only add files
	// and stderr lines.
	dirPlain := t.TempDir()
	dirObs := t.TempDir()
	args := []string{"-workload", "x11perf", "-mode", "default", "-db", "dcpidb",
		"-scale", "0.15", "-seed", "1", "-period", "2048"}
	plain := run(dirPlain, dcpid, args...)
	instr := run(dirObs, dcpid, append(args, "-metrics-out", "metrics.json", "-trace-out", "trace.json")...)
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

// TestCLIArtifactsSurviveFailure: after cli.Start every way out of dcpid
// and dcpieval goes through cli.Exit, so a run that fails still leaves the
// metrics and the trace of exactly the run one wants them for, and an
// artifact that cannot be written fails a run that otherwise succeeded
// without costing it the other artifacts.
func TestCLIArtifactsSurviveFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI artifact test builds and runs the binaries")
	}
	dcpid := buildTool(t, "dcpid")
	dcpieval := buildTool(t, "dcpieval")
	dir := t.TempDir()
	// exitCode runs prog in dir and returns its exit status.
	exitCode := func(prog string, args ...string) int {
		cmd := exec.Command(prog, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(prog), args, err, out)
		}
		return ee.ExitCode()
	}
	// checkArtifacts parses what a failed run must still have written; the
	// trace may be empty (the run may have failed before its first event).
	checkArtifacts := func(metrics, trace string) {
		t.Helper()
		if m := readMetrics(t, filepath.Join(dir, metrics)); m.Gauges == nil {
			t.Errorf("%s has no gauges object", metrics)
		}
		data, err := os.ReadFile(filepath.Join(dir, trace))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil || tr.TraceEvents == nil {
			t.Fatalf("%s is not a Chrome trace (%v):\n%s", trace, err, data)
		}
	}

	if code := exitCode(dcpid, "-workload", "nosuch", "-db", "db-nosuch",
		"-metrics-out", "fail.m.json", "-trace-out", "fail.t.json"); code != 1 {
		t.Errorf("dcpid -workload nosuch: exit %d, want 1", code)
	}
	checkArtifacts("fail.m.json", "fail.t.json")

	if err := os.WriteFile(filepath.Join(dir, "a-file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(dcpieval, "-fig", "7", "-cache-dir", "a-file",
		"-metrics-out", "efail.m.json", "-trace-out", "efail.t.json"); code != 1 {
		t.Errorf("dcpieval with an unopenable -cache-dir: exit %d, want 1", code)
	}
	checkArtifacts("efail.m.json", "efail.t.json")

	// A good run whose metrics file cannot be created exits 1 and still
	// writes its trace; likewise the heap profile.
	good := []string{"-workload", "x11perf", "-scale", "0.05", "-period", "2048"}
	if code := exitCode(dcpid, append(good, "-db", "db-1",
		"-metrics-out", "no-such-dir/m.json", "-trace-out", "ok.t.json")...); code != 1 {
		t.Errorf("dcpid with an unwritable -metrics-out: exit %d, want 1", code)
	}
	checkChromeTrace(t, filepath.Join(dir, "ok.t.json"), "intr:")
	if code := exitCode(dcpid, append(good, "-db", "db-2",
		"-memprofile", "no-such-dir/heap.prof", "-metrics-out", "ok.m.json")...); code != 1 {
		t.Errorf("dcpid with an unwritable -memprofile: exit %d, want 1", code)
	}
	readMetrics(t, filepath.Join(dir, "ok.m.json"))
	if code := exitCode(dcpid, append(good, "-db", "db-3")...); code != 0 {
		t.Errorf("dcpid control run: exit %d, want 0", code)
	}
}

// TestCLIParallelByDefault: dcpid fans its simulated CPUs out over the free
// worker budget without being asked, the result is byte-identical to the
// one-slot (GOMAXPROCS=1) sequential reference, and a fault plan — whose
// crash timing would depend on goroutine order — selects one worker.
func TestCLIParallelByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI parallel-simulation test is slow")
	}
	dcpid := buildTool(t, "dcpid")
	// run returns stdout and the sim.workers gauge of one dcpid run into a
	// fresh directory; the relative -db keeps stdout comparable.
	run := func(procs string, extra ...string) (dir, stdout string, workers float64) {
		dir = t.TempDir()
		args := append([]string{"-workload", "altavista", "-mode", "cycles", "-db", "db",
			"-scale", "0.1", "-seed", "7", "-metrics-out", "m.json"}, extra...)
		cmd := exec.Command(dcpid, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s dcpid %v: %v\n%s", procs, args, err, errBuf.String())
		}
		return dir, string(out), readMetrics(t, filepath.Join(dir, "m.json")).Gauges["sim.workers"]
	}
	seqDir, seqOut, seqWorkers := run("1")
	parDir, parOut, parWorkers := run("4")
	if seqWorkers != 1 || parWorkers <= 1 {
		t.Errorf("sim.workers = %g under GOMAXPROCS=1 and %g under GOMAXPROCS=4; want 1 and > 1", seqWorkers, parWorkers)
	}
	if seqOut != parOut {
		t.Errorf("stdout differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", seqOut, parOut)
	}
	files, err := filepath.Glob(filepath.Join(seqDir, "db", "epoch-0001", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no epoch files under %s (%v)", seqDir, err)
	}
	for _, f := range files {
		want, err1 := os.ReadFile(f)
		got, err2 := os.ReadFile(filepath.Join(parDir, "db", "epoch-0001", filepath.Base(f)))
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			t.Errorf("%s differs between GOMAXPROCS=1 and 4 (%v, %v)", filepath.Base(f), err1, err2)
		}
	}
	if _, _, w := run("4", "-fault", "stall=0-100M"); w != 1 {
		t.Errorf("sim.workers = %g with a fault plan, want 1", w)
	}
}
