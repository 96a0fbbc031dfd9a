package main

import (
	"os"
	"strings"
	"testing"
)

// TestFleetDemoSmall runs the self-verifying fleet demo at a small size —
// four machines, one of them fault-injected, sixteen epochs — and requires
// every one of its self-checks (exactly-once ingestion, labels, range and
// delta against the per-machine databases, compaction, retry) to pass. It
// is the one test that executes internal/fleet.
func TestFleetDemoSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet demo simulates and scrapes a small fleet")
	}
	args := []string{"-machines", "4", "-epochs", "16", "-scale", "0.02",
		"-fault-machine", "1", "-dir", t.TempDir()}
	if code := fleetMain(args); code != 0 {
		t.Fatalf("dcpicollect fleet %v exited %d; its stdout above names the failed check", args, code)
	}
}

// TestFleetDemoRejectsBadSizes: a fleet with no machines, no epochs, no
// scrape rounds (which used to divide by zero) or more rounds than epochs
// (which used to scrape rounds nobody sealed anything in) is a usage error —
// one line on stderr, exit 2 — refused before a machine or a store exists.
func TestFleetDemoRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"rounds 0", []string{"-rounds", "0"}},
		{"rounds negative", []string{"-rounds", "-1"}},
		{"rounds above epochs", []string{"-epochs", "4", "-rounds", "5"}},
		{"epochs 0", []string{"-epochs", "0"}},
		{"machines 0", []string{"-machines", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stderr := captureStderr(t, func() int {
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

// captureStderr runs f with os.Stderr pointing at a file and returns what f
// returned and wrote.
func captureStderr(t *testing.T, f func() int) (int, string) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	code := f()
	os.Stderr = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
