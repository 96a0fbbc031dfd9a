package dcpibench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
