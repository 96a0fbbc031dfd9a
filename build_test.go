package dcpibench

import (
	"debug/buildinfo"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// toolDir holds the binaries the CLI tests drive, for the life of the test
// process.
var toolDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dcpi-tools-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var toolBuilds sync.Map // tool name -> func() (path string, err error), built once

// buildTool returns the path of ./cmd/<name>, built once per test process
// however many tests drive it.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	build, _ := toolBuilds.LoadOrStore(name, sync.OnceValues(func() (string, error) {
		out := filepath.Join(toolDir, name)
		if msg, err := exec.Command("go", "build", "-o", out, "./cmd/"+name).CombinedOutput(); err != nil {
			return "", fmt.Errorf("build %s: %v\n%s", name, err, msg)
		}
		return out, nil
	}))
	path, err := build.(func() (string, error))()
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDcpievalBuildsWithProfile holds dcpieval's default build to its
// committed CPU profile: `go build ./cmd/dcpieval` reads
// cmd/dcpieval/default.pgo (-pgo=auto) and inlines the simulator's hot memory
// path on its evidence. Deleting or moving the profile fails here rather
// than as an unexplained slowdown. scripts/pgo.sh refreshes it.
func TestDcpievalBuildsWithProfile(t *testing.T) {
	info, err := buildinfo.ReadFile(buildTool(t, "dcpieval"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range info.Settings {
		if s.Key == "-pgo" {
			if !strings.HasSuffix(filepath.ToSlash(s.Value), "cmd/dcpieval/default.pgo") {
				t.Fatalf("dcpieval built with -pgo=%s, want cmd/dcpieval/default.pgo", s.Value)
			}
			return
		}
	}
	t.Fatal("dcpieval built without a -pgo profile; cmd/dcpieval/default.pgo is missing")
}
