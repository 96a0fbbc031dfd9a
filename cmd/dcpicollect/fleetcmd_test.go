package main

import "testing"

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
