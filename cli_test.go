package dcpibench

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliPins are the offline tools' runs over TestCLIPipeline's two databases
// whose stdout testdata/golden_sections.sha256 pins, named by command line,
// in the order the file lists them. Each turns a database's per-image offset
// profiles into per-procedure counts, the paper's §3 views.
var cliPins = []string{
	"dcpiprof -db db1",
	"dcpiprof -db db1 -images",
	"dcpistats db1 db2",
	"dcpidiff db1 db2",
	"dcpisum -db db1",
	"dcpiannotate -db db2 -image /usr/bin/wave5",
	"dcpitopixie -db db2",
}

// TestCLIPipeline exercises the tool chain the way a user would: collect
// profiles with dcpid, then read them back with every offline tool. The
// tools run in one directory on relative database paths, so that what they
// print does not depend on where it is; cliPins' runs are held to their
// pins (re-recorded with -update; see update).
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is slow")
	}
	dir := t.TempDir()
	run := func(prog string, args ...string) string {
		cmd := exec.Command(buildTool(t, prog), args...)
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s%s", prog, args, err, out, stderr.String())
		}
		return string(out)
	}

	out := run("dcpid", "-workload", "wave5", "-mode", "default", "-db", "db1",
		"-scale", "0.15", "-seed", "1", "-period", "2048")
	if !strings.Contains(out, "finished") {
		t.Fatalf("dcpid output: %s", out)
	}
	run("dcpid", "-workload", "wave5", "-mode", "default", "-db", "db2",
		"-scale", "0.15", "-seed", "9", "-period", "2048")

	outs := map[string]string{}
	var pins []pin
	for _, c := range cliPins {
		args := strings.Fields(c)
		outs[c] = run(args[0], args[1:]...)
		pins = append(pins, pin{c, digest([]byte(outs[c]))})
	}
	checkPins(t, sectionPins, pins)

	for _, want := range []string{"parmvr_", "smooth_", "cycles"} {
		if !strings.Contains(outs["dcpiprof -db db1"], want) {
			t.Errorf("dcpiprof missing %q:\n%s", want, outs["dcpiprof -db db1"])
		}
	}
	for c, want := range map[string]string{
		"dcpiprof -db db1 -images":                   "/usr/bin/wave5",
		"dcpistats db1 db2":                          "range%",
		"dcpisum -db db1":                            "Whole-program summary",
		"dcpidiff db1 db2":                           "delta",
		"dcpitopixie -db db2":                        "parmvr_",
		"dcpiannotate -db db2 -image /usr/bin/wave5": "smooth_:",
	} {
		if !strings.Contains(outs[c], want) {
			t.Errorf("%s missing %q:\n%s", c, want, outs[c])
		}
	}

	out = run("dcpicalc", "-db", "db1", "-image", "/usr/bin/wave5", "-proc", "smooth_")
	if !strings.Contains(out, "Best-case") || !strings.Contains(out, "ldt") {
		t.Errorf("dcpicalc:\n%s", out)
	}
	out = run("dcpicalc", "-db", "db1", "-image", "/usr/bin/wave5", "-proc", "smooth_", "-summary")
	if !strings.Contains(out, "Subtotal dynamic") {
		t.Errorf("dcpicalc -summary:\n%s", out)
	}

	out = run("dcpiepoch", "-db", "db1")
	if !strings.Contains(out, "epoch 1") || !strings.Contains(out, "workload=wave5") {
		t.Errorf("dcpiepoch:\n%s", out)
	}
	out = run("dcpiepoch", "-db", "db1", "-new")
	if !strings.Contains(out, "epoch 2") {
		t.Errorf("dcpiepoch -new:\n%s", out)
	}

	out = run("dcpicfg", "-db", "db2", "-image", "/usr/bin/wave5", "-proc", "smooth_")
	if !strings.Contains(out, "digraph") {
		t.Errorf("dcpicfg:\n%s", out)
	}

	out = run("dcpilayout", "-db", "db2", "-image", "/usr/bin/wave5", "-proc", "smooth_", "-q")
	if !strings.Contains(out, "re-laid") {
		t.Errorf("dcpilayout:\n%s", out)
	}
}

// TestCLIRejectsNegativeDriverGeometry: a negative -buckets or -overflow is
// a usage error (one line on stderr, exit 2, no database created) where it
// used to panic in driver.New with a goroutine dump.
func TestCLIRejectsNegativeDriverGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test builds dcpid")
	}
	dcpid := buildTool(t, "dcpid")
	for _, flag := range []string{"-buckets", "-overflow"} {
		dir := t.TempDir()
		cmd := exec.Command(dcpid, "-workload", "compress", "-db", "db", flag, "-4")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("dcpid %s -4: %v, want exit 2", flag, err)
		}
		if msg := strings.TrimSpace(string(out)); !strings.HasPrefix(msg, "dcpid: ") || strings.Contains(msg, "\n") {
			t.Errorf("dcpid %s -4: want a one-line reason, got:\n%s", flag, out)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("dcpid %s -4 created %d entries before refusing", flag, len(left))
		}
	}
}

// TestExamplesRun executes every example program end to end and holds its
// stdout to the "examples/<name>" line of testdata/golden_sections.sha256
// (re-recorded with -update; see update).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+name)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s%s", name, err, out, stderr.String())
			}
			checkPins(t, sectionPins, []pin{{name: "examples/" + name, digest: digest(out)}})
		})
	}
}

// TestCLIFaultScenarios exercises dcpid's fault injection end to end: a
// stalled daemon loses samples (counted, with conservation intact) and a
// crash mid-merge leaves a database the tools can still read.
func TestCLIFaultScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI fault scenarios are slow")
	}
	dir := t.TempDir()
	run := func(prog string, args ...string) string {
		cmd := exec.Command(prog, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(prog), args, err, out)
		}
		return string(out)
	}
	dcpid := buildTool(t, "dcpid")
	dcpiprof := buildTool(t, "dcpiprof")

	// Scenario 1: daemon stalled for the whole run, tiny driver buffers.
	// Samples must be lost, reported, and conserved.
	dbStall := filepath.Join(dir, "db-stall")
	out := run(dcpid, "-workload", "gcc", "-mode", "cycles", "-db", dbStall,
		"-scale", "0.25", "-period", "768", "-buckets", "64", "-overflow", "64",
		"-fault", "stall=0-100M")
	if !strings.Contains(out, "samples lost") {
		t.Errorf("stalled run reported no loss:\n%s", out)
	}
	if strings.Contains(out, " 0 samples lost") {
		t.Errorf("stalled run lost nothing:\n%s", out)
	}
	if !strings.Contains(out, "conservation") || strings.Contains(out, "VIOLATED") {
		t.Errorf("conservation not reported ok:\n%s", out)
	}

	// Scenario 2: crash during the second disk merge. The torn file is
	// quarantined, the daemon restarts and resumes merging, and the
	// database stays readable by the offline tools.
	dbCrash := filepath.Join(dir, "db-crash")
	out = run(dcpid, "-workload", "wave5", "-mode", "default", "-db", dbCrash,
		"-scale", "0.15", "-seed", "1", "-period", "2048",
		"-drain-interval", "100000", "-merge-interval", "250000",
		"-fault", "crash-merge=2,merge-profiles=1")
	if !strings.Contains(out, "1 crashes") {
		t.Errorf("crash not reported:\n%s", out)
	}
	if strings.Contains(out, "VIOLATED") {
		t.Errorf("conservation violated after crash:\n%s", out)
	}
	var quarantined int
	entries, err := os.ReadDir(filepath.Join(dbCrash, "epoch-0001"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bad") {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Errorf("quarantined files = %d, want 1", quarantined)
	}
	out = run(dcpiprof, "-db", dbCrash)
	if !strings.Contains(out, "cycles") {
		t.Errorf("dcpiprof after crash recovery:\n%s", out)
	}
}
