package dcpibench

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dcpi/internal/expo"
)

// TestFleetCLI exercises the fleet pipeline end to end the way an
// operator would: dcpid serving its database over -listen, dcpicollect
// scraping it into a time-series store, the query CLI reading it back —
// the same bytes before and after dcpicollect compact — and SIGINT shutting
// both binaries down gracefully.
func TestFleetCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet CLI pipeline is slow")
	}
	dir := t.TempDir()
	dcpid := buildTool(t, "dcpid")
	dcpicollect := buildTool(t, "dcpicollect")

	// dcpid: three sealed epochs, exposition on an ephemeral port, keeps
	// serving after the runs until interrupted.
	dbDir := filepath.Join(dir, "db")
	daemon := exec.Command(dcpid,
		"-workload", "wave5", "-mode", "default", "-db", dbDir,
		"-scale", "0.15", "-period", "2048", "-seed", "1",
		"-epochs", "3", "-exact", "-machine", "m00", "-listen", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stdout = nil
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill() // a failure below must not leak the server
	daemonDone := make(chan error, 1)

	// The serving address is announced on stderr.
	sc := bufio.NewScanner(stderr)
	var baseURL string
	lines := make(chan string, 64)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	var daemonStderr []string
waitURL:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("dcpid exited before announcing address:\n%s", strings.Join(daemonStderr, "\n"))
			}
			daemonStderr = append(daemonStderr, line)
			if rest, found := strings.CutPrefix(line, "dcpid: serving on "); found {
				baseURL = rest
				break waitURL
			}
		case <-deadline:
			daemon.Process.Kill()
			t.Fatalf("dcpid never announced its address:\n%s", strings.Join(daemonStderr, "\n"))
		}
	}
	go func() {
		for line := range lines {
			daemonStderr = append(daemonStderr, line)
		}
		daemonDone <- daemon.Wait()
	}()

	// Wait for all three epochs to be sealed and visible over HTTP.
	waitSealed := func() {
		for start := time.Now(); time.Since(start) < 60*time.Second; time.Sleep(100 * time.Millisecond) {
			resp, err := http.Get(baseURL + "/epochs")
			if err != nil {
				continue
			}
			var ep expo.EpochsPayload
			err = json.NewDecoder(resp.Body).Decode(&ep)
			resp.Body.Close()
			sealed := 0
			for _, e := range ep.Epochs {
				if e.Sealed {
					sealed++
				}
			}
			if err == nil && sealed >= 3 {
				return
			}
		}
		daemon.Process.Kill()
		t.Fatal("dcpid never sealed 3 epochs")
	}
	waitSealed()

	// Scrape once into a store, then query it back.
	run := func(prog string, args ...string) string {
		cmd := exec.Command(prog, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(prog), args, err, out)
		}
		return string(out)
	}
	storeDir := filepath.Join(dir, "fleetdb")
	out := run(dcpicollect, "-targets", "m00="+baseURL, "-tsdb", storeDir, "-once")
	if !strings.Contains(out, "3 epochs") {
		t.Fatalf("scrape output: %s", out)
	}
	out = run(dcpicollect, "query", "range", "-tsdb", storeDir,
		"-image", "/usr/bin/wave5", "-last", "3")
	if !strings.Contains(out, "epochs 1-3") || strings.Count(out, "\n") < 5 {
		t.Fatalf("range query output: %s", out)
	}
	// -exact runs store instruction counts, so CPI must be real (not "-").
	for _, line := range strings.Split(out, "\n")[2:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.Contains(line, " - ") {
			t.Fatalf("range row missing CPI: %q", line)
		}
	}
	// The same window by epoch numbers must reproduce the committed golden
	// byte for byte.
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_fleet_range.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rangeArgs := []string{"query", "range", "-tsdb", storeDir, "-image", "/usr/bin/wave5", "-from", "1", "-to", "3"}
	if out = run(dcpicollect, rangeArgs...); out != string(golden) {
		t.Errorf("range query differs from testdata/golden_fleet_range.txt:\n%s", out)
	}
	topArgs := []string{"query", "top", "-tsdb", storeDir, "-from", "1", "-to", "3"}
	top := run(dcpicollect, topArgs...)
	if !strings.Contains(top, "/usr/bin/wave5") {
		t.Fatalf("top query output: %s", top)
	}

	// Compaction must be invisible to queries: the raw segments merge into
	// one block, and range, top and delta answer with the bytes they
	// answered with before.
	deltaArgs := []string{"query", "delta", "-tsdb", storeDir, "-a", "1-2", "-b", "3-3"}
	delta := run(dcpicollect, deltaArgs...)
	if out = run(dcpicollect, "compact", "-tsdb", storeDir); !strings.Contains(out, "segments into 1 blocks") {
		t.Errorf("compact output: %s", out)
	}
	blocks, _ := filepath.Glob(filepath.Join(storeDir, "blk-*"))
	segments, _ := filepath.Glob(filepath.Join(storeDir, "seg-*.tsdb"))
	if len(blocks) == 0 || len(segments) != 0 {
		t.Errorf("after compaction the store holds %d blocks and %d raw segments, want at least 1 and 0", len(blocks), len(segments))
	}
	if out = run(dcpicollect, rangeArgs...); out != string(golden) {
		t.Errorf("range query after compaction differs from testdata/golden_fleet_range.txt:\n%s", out)
	}
	if out = run(dcpicollect, topArgs...); out != top {
		t.Errorf("top query changed across compaction:\nbefore:\n%safter:\n%s", top, out)
	}
	if out = run(dcpicollect, deltaArgs...); out != delta {
		t.Errorf("delta query changed across compaction:\nbefore:\n%safter:\n%s", delta, out)
	}
	if out = run(dcpicollect, append(topArgs, "-json")...); !strings.Contains(out, `"rows"`) {
		t.Errorf("top -json output: %s", out)
	}

	// SIGINT: dcpid must shut down cleanly with exit status 0.
	if err := daemon.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-daemonDone:
		if err != nil {
			t.Fatalf("dcpid exit after SIGINT: %v\n%s", err, strings.Join(daemonStderr, "\n"))
		}
	case <-time.After(30 * time.Second):
		daemon.Process.Kill()
		t.Fatalf("dcpid did not exit on SIGINT:\n%s", strings.Join(daemonStderr, "\n"))
	}
	if !strings.Contains(strings.Join(daemonStderr, "\n"), "shutdown complete") {
		t.Errorf("dcpid stderr missing shutdown message:\n%s", strings.Join(daemonStderr, "\n"))
	}

	// dcpicollect's scrape loop must also die cleanly on SIGINT.
	loop := exec.Command(dcpicollect, "-targets", "m00=http://127.0.0.1:1",
		"-tsdb", filepath.Join(dir, "loopdb"), "-interval", "100ms",
		"-retries", "0", "-timeout", "200ms")
	var loopErr strings.Builder
	loop.Stderr = &loopErr
	if err := loop.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := loop.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	loopDone := make(chan error, 1)
	go func() { loopDone <- loop.Wait() }()
	select {
	case err := <-loopDone:
		if err != nil {
			t.Fatalf("dcpicollect exit after SIGINT: %v\n%s", err, loopErr.String())
		}
	case <-time.After(15 * time.Second):
		loop.Process.Kill()
		t.Fatalf("dcpicollect did not exit on SIGINT:\n%s", loopErr.String())
	}
	if !strings.Contains(loopErr.String(), "shutdown complete") {
		t.Errorf("dcpicollect stderr missing shutdown message:\n%s", loopErr.String())
	}
}
