package dcpibench

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIOptimizeLoop exercises the closed §7 loop the way a user would:
// dcpiopt profiles, re-lays, measures, and iterates; dcpilayout refuses
// procedures that cannot be re-laid.
func TestCLIOptimizeLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI optimization loop is slow")
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
	runFail := func(prog string, args ...string) string {
		cmd := exec.Command(prog, args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v unexpectedly succeeded:\n%s", filepath.Base(prog), args, out)
		}
		return string(out)
	}

	dcpiopt := buildTool(t, "dcpiopt")
	dcpilayout := buildTool(t, "dcpilayout")
	dcpid := buildTool(t, "dcpid")

	// Happy path: the loop converges on the pessimized classifier with a
	// large measured win, reported per iteration.
	out := run(dcpiopt, "-workload", "classify")
	for _, want := range []string{"baseline:", "iter 0:", "kept", "converged", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("dcpiopt missing %q:\n%s", want, out)
		}
	}

	// -q keeps only the summary line.
	out = run(dcpiopt, "-workload", "classify", "-q")
	if strings.Contains(out, "baseline:") || strings.Contains(out, "iter 0:") {
		t.Errorf("dcpiopt -q printed per-iteration detail:\n%s", out)
	}
	if !strings.Contains(out, "converged") {
		t.Errorf("dcpiopt -q missing summary:\n%s", out)
	}

	// A satisfied gain gate exits zero; an unsatisfiable one exits nonzero.
	run(dcpiopt, "-workload", "classify", "-q", "-min-gain", "0.5")
	out = runFail(dcpiopt, "-workload", "classify", "-q", "-min-gain", "100")
	if !strings.Contains(out, "below required gain") {
		t.Errorf("dcpiopt -min-gain:\n%s", out)
	}

	// gcc's image cannot be re-laid (bsr crosses procedures): the loop must
	// refuse with the reason, not silently skip or corrupt.
	out = runFail(dcpiopt, "-workload", "gcc", "-scale", "0.02")
	if !strings.Contains(out, "outside the procedure") {
		t.Errorf("dcpiopt on gcc:\n%s", out)
	}

	out = runFail(dcpiopt)
	if !strings.Contains(out, "-workload is required") {
		t.Errorf("dcpiopt usage error:\n%s", out)
	}

	// dcpilayout, pointed at a profile of the same unsafe procedure, must
	// refuse for the same reason.
	db := filepath.Join(dir, "db-gcc")
	run(dcpid, "-workload", "gcc", "-mode", "cycles", "-db", db,
		"-scale", "0.1", "-seed", "1", "-period", "768")
	out = runFail(dcpilayout, "-db", db, "-image", "/usr/bin/gcc", "-proc", "main")
	if !strings.Contains(out, "bsr") {
		t.Errorf("dcpilayout on bsr procedure:\n%s", out)
	}
}
