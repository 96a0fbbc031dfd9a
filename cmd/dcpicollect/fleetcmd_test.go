package main

import (
	"os"
	"strings"
	"testing"
)

// TestFleetDemoSmall runs the self-verifying fleet demo at a small size —
// four machines, one of them fault-injected, sixteen epochs — and requires
// every one of its self-checks (the store against every sealed epoch of the
// per-machine databases, range and delta answers against the same pass,
// compaction, retry) to pass. A second run at four epochs, below the eight
// at which the range window reaches one epoch, must still print a range
// row: it used to render "epochs 5-4" and test nothing.
func TestFleetDemoSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet demo simulates and scrapes a small fleet")
	}
	args := []string{"-machines", "4", "-epochs", "16", "-scale", "0.02",
		"-fault-machine", "1", "-dir", t.TempDir()}
	if code := fleetMain(args); code != 0 {
		t.Fatalf("dcpicollect fleet %v exited %d; its stdout above names the failed check", args, code)
	}

	args = []string{"-machines", "2", "-epochs", "4", "-rounds", "2", "-scale", "0.02",
		"-fault-machine", "-1", "-dir", t.TempDir()}
	code, stdout := capture(t, &os.Stdout, func() int { return fleetMain(args) })
	if code != 0 {
		t.Fatalf("dcpicollect fleet %v exited %d:\n%s", args, code, stdout)
	}
	lines := strings.Split(stdout, "\n")
	for i, line := range lines {
		if strings.HasSuffix(line, " cycles, epochs 4-4") {
			if i+2 >= len(lines) || !strings.HasPrefix(strings.TrimSpace(lines[i+2]), "4 ") {
				t.Errorf("dcpicollect fleet %v: the range table has no row for epoch 4:\n%s", args, stdout)
			}
			return
		}
	}
	t.Errorf("dcpicollect fleet %v: no range table over epochs 4-4:\n%s", args, stdout)
}

// TestFleetDemoRejectsBadSizes: a fleet with no machines, fewer than two
// epochs (a delta compares two non-empty halves), no scrape rounds (which
// used to divide by zero) or more rounds than epochs (which used to scrape
// rounds nobody sealed anything in) is a usage error — one line on stderr,
// exit 2 — refused before a machine or a store exists.
func TestFleetDemoRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"rounds 0", []string{"-rounds", "0"}},
		{"rounds negative", []string{"-rounds", "-1"}},
		{"rounds above epochs", []string{"-epochs", "4", "-rounds", "5"}},
		{"epochs 0", []string{"-epochs", "0"}},
		{"epochs 1", []string{"-epochs", "1", "-rounds", "1"}},
		{"machines 0", []string{"-machines", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stderr := capture(t, &os.Stderr, func() int {
				return fleetMain(append(tc.args, "-dir", dir))
			})
			if code != 2 {
				t.Errorf("dcpicollect fleet %v exited %d, want 2", tc.args, code)
			}
			if !strings.HasPrefix(stderr, "dcpicollect fleet: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("dcpicollect fleet %v: want one line on stderr, got:\n%s", tc.args, stderr)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("dcpicollect fleet %v created %d entries before refusing", tc.args, len(left))
			}
		})
	}
}

// capture runs f with *stream (os.Stdout or os.Stderr) pointing at a file
// and returns what f returned and wrote there.
func capture(t *testing.T, stream **os.File, f func() int) (int, string) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := *stream
	*stream = tmp
	code := f()
	*stream = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
