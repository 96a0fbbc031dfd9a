package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompactRefusesToCreateAStore: compact works on a store that exists.
// A -tsdb directory that does not is an error (exit 1), and a positional
// argument is a usage error (exit 2): flag parsing stops at it, so the
// flags after it used to be ignored and the default ./fleetdb compacted in
// their place. Each case prints one line and creates nothing.
func TestCompactRefusesToCreateAStore(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, tc := range []struct {
		name string
		args func(work string) []string
		code int
	}{
		{"missing store", func(work string) []string { return []string{"-tsdb", filepath.Join(work, "typo")} }, 1},
		{"positional store", func(work string) []string { return []string{filepath.Join(work, "store"), "-compact-after", "3"} }, 2},
	} {
		work := t.TempDir()
		if err := os.Chdir(work); err != nil { // where the default -tsdb points
			t.Fatal(err)
		}
		args := tc.args(work)
		code, stderr := capture(t, &os.Stderr, func() int { return compactMain(args) })
		if code != tc.code {
			t.Errorf("%s: dcpicollect compact %v exited %d, want %d", tc.name, args, code, tc.code)
		}
		if !strings.HasPrefix(stderr, "dcpicollect compact: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: dcpicollect compact %v: want one line on stderr, got:\n%s", tc.name, args, stderr)
		}
		if left, _ := os.ReadDir(work); len(left) != 0 {
			t.Errorf("%s: dcpicollect compact %v created %s", tc.name, args, left[0].Name())
		}
	}
}
