package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testEval is the dcpieval binary TestMain builds for the eval workloads.
var testEval string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dcpibench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testEval = filepath.Join(dir, "dcpieval")
	if out, err := exec.Command("go", "build", "-o", testEval, "dcpi/cmd/dcpieval").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building dcpieval: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyOptions(t *testing.T, workload string, trace int) options {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return options{
		workload: workload, seed: 1, seconds: 0.3, trace: trace, size: "tiny",
		root: root, dir: dir, evalBin: testEval, traceOut: filepath.Join(dir, "trace.json"),
	}
}

// checkLine requires exactly the listed metrics, each with its unit, and no
// failed operation. (That every value is finite, result already insists.)
func checkLine(t *testing.T, what string, line *resultLine, reasons []string, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v, %d attempted, %d failed: %v", what, line.Correct, line.Attempted, line.Failed, reasons)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s: got %+v (present %v), want unit %q", what, d.Name, m, ok, d.Unit)
		}
	}
}

// TestEveryMetricEmitted runs every workload at the tiny size, and the
// traced run once, against BENCHMARK.json.
func TestEveryMetricEmitted(t *testing.T) {
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	for _, w := range man.Workloads {
		line, reasons, err := tinyOptions(t, w.Name, 0).run(man)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkLine(t, w.Name, line, reasons, man.EndToEnd)
		for _, name := range []string{"setup_s", "wall_s", "ops_per_s", "op_ms_p50"} {
			if line.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, name, line.Metrics[name].Value)
			}
		}
	}

	opt := tinyOptions(t, "fleet-query", 1)
	line, reasons, err := opt.run(man)
	if err != nil {
		t.Fatal(err)
	}
	checkLine(t, "traced run", line, reasons, man.PerLayer)
	for name := range exactMetrics {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("exact metric %s is not a per-layer metric", name)
		}
	}
	for _, share := range []string{"trace.ingest_root_self_share", "trace.query_root_self_share"} {
		if v := line.Metrics[share].Value; v < 0 || v > 0.05 {
			t.Errorf("%s = %v: more than 5%% of the traced wall is attributed to no layer", share, v)
		}
	}

	// The trace file is Chrome-trace JSON whose spans nest: a child lies
	// within its parent, and no self time exceeds the span or is negative.
	raw, err := os.ReadFile(opt.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TS   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if len(trace.TraceEvents) < 100 {
		t.Fatalf("trace file holds %d events", len(trace.TraceEvents))
	}
	byID := map[int]span{}
	var spans []span
	for _, ev := range trace.TraceEvents {
		s := span{ID: ev.Args.ID, Parent: ev.Args.Parent, Name: ev.Name,
			Start: time.Duration(ev.TS * 1e3), End: time.Duration((ev.TS + ev.Dur) * 1e3)}
		if ev.Ph != "X" || s.ID == 0 || !strings.Contains(s.Name, ".") {
			t.Fatalf("bad trace event %+v", ev)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	const slack = 2 * time.Microsecond // timestamps are rounded to float microseconds
	for id, self := range selfTimes(spans) {
		s := byID[id]
		if self < -slack || self > s.dur()+slack {
			t.Errorf("span %d %s: self time %v of %v", id, s.Name, self, s.dur())
		}
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start-slack || s.End > p.End+slack || self > p.dur()+slack) {
			t.Errorf("span %d %s [%v, %v] is not within its parent %s [%v, %v]", id, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

// TestSelfTimeOfOverlappingChildren pins the rule: self time is the span
// minus the union of its children, not minus their sum.
func TestSelfTimeOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "a.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b.x", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b.x", Start: 40, End: 80}, // overlaps 2
		{ID: 4, Parent: 2, Name: "c.y", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 40, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	if got := selfByName(spans)["b.x"]; got != 80 {
		t.Errorf("b.x self %v, want 80", got)
	}
}

// TestCorruptDigestFails: an eval run whose output does not hash to the
// pinned digest reports every request of the invocation as failed.
func TestCorruptDigestFails(t *testing.T) {
	e, cleanup, err := tinyOptions(t, "eval-cold", 0).newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	e.pinned.EvalDigest = strings.Repeat("0", 64)
	o, err := runEvalCold(e)
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted == 0 || o.failed != o.attempted {
		t.Errorf("%d attempted, %d failed; want every request failed", o.attempted, o.failed)
	}
}

// TestDroppedEpochFails: an epoch that every machine sealed but the
// collector never ingested is one failed operation per machine.
func TestDroppedEpochFails(t *testing.T) {
	e, cleanup, err := tinyOptions(t, "fleet-ingest", 0).newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rig, err := e.ingestSetup(filepath.Join(e.work, "ingest"))
	if err != nil {
		t.Fatal(err)
	}
	defer rig.fleet.Close()
	o := &outcome{}
	if _, err := e.ingestRounds(rig, o, 0); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("rounds failed %d operations: %v", o.failed, o.reasons)
	}
	if err := rig.fleet.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ingestVerify(rig, o, 0); err != nil {
		t.Fatal(err)
	}
	if o.failed < e.size.machines {
		t.Errorf("%d failed operations, want at least one per machine (%d): %v", o.failed, e.size.machines, o.reasons)
	}
}

// TestCompareVerdicts drives -compare over hand-made sets.
func TestCompareVerdicts(t *testing.T) {
	man := &manifest{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []metricDef{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	write := func(name string, walls []float64, insts float64) string {
		var runs []setRun
		for i, v := range walls {
			runs = append(runs, setRun{Workload: "w", Seed: uint64(i + 1), Result: resultLine{
				Metrics: map[string]metricValue{"wall_s": {Value: v, Unit: "s"}}}})
		}
		traced := map[string]metricValue{}
		for name := range exactMetrics {
			traced[name] = metricValue{Value: 1}
		}
		traced["sim.insts"] = metricValue{Value: insts, Unit: "count"}
		runs = append(runs, setRun{Workload: "w", Seed: 1, Trace: 1, Result: resultLine{Metrics: traced}})
		raw, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	slow := []float64{1.20, 1.21, 1.19, 1.20, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.4, 0.6, 1.0}
	base := write("a.json", steady, 100)
	for _, c := range []struct {
		name    string
		path    string
		verdict string
	}{
		{"same", write("b.json", steady, 100), " ok"},
		{"slower", write("b.json", slow, 100), " regressed"},
		{"noisy", write("b.json", noisy, 100), " unresolved"},
		{"count", write("b.json", steady, 101), " differs"},
	} {
		var out strings.Builder
		err := compareSets(&out, man, base, c.path)
		if !strings.Contains(out.String(), c.verdict+"\n") {
			t.Errorf("%s: want verdict%q in:\n%s", c.name, c.verdict, out.String())
		}
		if (err == nil) != (c.verdict == " ok") {
			t.Errorf("%s: compareSets returned %v", c.name, err)
		}
	}
}
