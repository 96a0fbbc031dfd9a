package dcpibench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTable2Digest is the byte-identical determinism guard for the
// evaluation pipeline: the simulator's hot path may be rearranged for
// speed (pre-decoded metadata, memoized schedules, pooled buffers), but
// `dcpieval -table 2` stdout must never change by a single byte. The
// committed digest in testdata/golden_table2.sha256 locks the output; a
// mismatch means an "optimization" changed simulation semantics.
//
// To regenerate after an intentional output change:
//
//	go build -o /tmp/dcpieval ./cmd/dcpieval
//	/tmp/dcpieval -table 2 -runs 2 -scale 0.12 | sha256sum
//
// and update testdata/golden_table2.sha256 (and eval_output.txt, captured
// at default -runs/-scale, alongside it).
func TestGoldenTable2Digest(t *testing.T) {
	goldenTable2(t)
}

// TestGoldenTable2DigestParallel runs the same golden check on a one-slot
// and on a four-slot worker budget. The runner always lets a machine fan
// its simulated CPUs out over the budget's free slots; GOMAXPROCS=1 leaves
// none, so it is the sequential reference, and GOMAXPROCS=4 must reproduce
// the committed digest bit for bit. This pins the PR 5 contract — CPU-level
// parallelism is an execution strategy, not a semantic change.
func TestGoldenTable2DigestParallel(t *testing.T) {
	bin, want := goldenSetup(t)
	for _, procs := range []string{"1", "4"} {
		t.Setenv("GOMAXPROCS", procs) // inherited by the dcpieval child
		goldenCheck(t, bin, want)
	}
}

// TestGoldenTable2DigestWarmCache runs the golden check twice through a
// persistent run cache: the cold pass populates -cache-dir, the warm pass
// must rehydrate every run from disk and still reproduce the committed
// digest bit for bit. This pins the PR 6 contract — a disk-cached result
// is indistinguishable from a freshly simulated one.
func TestGoldenTable2DigestWarmCache(t *testing.T) {
	bin, want := goldenSetup(t)
	cacheDir := filepath.Join(t.TempDir(), "runcache")
	goldenCheck(t, bin, want, "-cache-dir", cacheDir) // cold: populates
	stderr := goldenCheck(t, bin, want, "-cache-dir", cacheDir)
	if !strings.Contains(stderr, "rehydrated from disk") {
		t.Errorf("warm pass did not report disk hits; stderr:\n%s", stderr)
	}
}

// TestGoldenTable2DigestSharded splits the golden sweep across four shard
// processes running concurrently into one cache directory: the plain command
// over that directory must print the committed digest without simulating
// anything — and must print it still, re-simulating what is missing, after
// some of the entries are deleted.
func TestGoldenTable2DigestSharded(t *testing.T) {
	bin, want := goldenSetup(t)
	dir := filepath.Join(t.TempDir(), "cache")
	const n = 4
	shards := make([]*exec.Cmd, n)
	logs := make([]strings.Builder, n)
	for i := range shards {
		args := append(goldenArgs(), "-j", "1", "-shard", fmt.Sprintf("%d/%d", i+1, n), "-cache-dir", dir)
		shards[i] = exec.Command(bin, args...)
		shards[i].Stdout, shards[i].Stderr = &logs[i], &logs[i]
		if err := shards[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range shards {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("shard %d/%d: %v\n%s", i+1, n, err, logs[i].String())
		}
	}
	stderr := goldenCheck(t, bin, want, "-cache-dir", dir)
	if !strings.Contains(stderr, "dcpieval: 0 simulations run") || !strings.Contains(stderr, "rehydrated from disk") {
		t.Errorf("pass over the shards' directory did not rehydrate every run; stderr:\n%s", stderr)
	}

	// A shard that died half-way: its missing runs re-simulate.
	entries, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil || len(entries) < 2 {
		t.Fatalf("cache directory holds %d entries (%v)", len(entries), err)
	}
	for _, path := range entries[:len(entries)/3] {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	stderr = goldenCheck(t, bin, want, "-cache-dir", dir)
	if !strings.Contains(stderr, fmt.Sprintf("dcpieval: %d simulations run", len(entries)/3)) {
		t.Errorf("pass over a partial directory did not re-simulate the %d deleted runs; stderr:\n%s", len(entries)/3, stderr)
	}
}

// TestGoldenFigureDigests pins the sections whose bytes come from the §6
// analysis, which Table 2 does not reach: Figure 2's dcpicalc listing
// (bubbles and culprit addresses), Figure 4's dynamic-stall ranges per
// cause, Figures 8 and 9's frequency accuracy (which analyse the same runs)
// and Figure 10's culprit accuracy. Each line of
// testdata/golden_figures.sha256 is a digest and the command that prints
// it; regenerate a line with
//
//	go build -o /tmp/dcpieval ./cmd/dcpieval
//	/tmp/dcpieval -fig 2 -runs 1 -scale 0.05 | sha256sum
//
// Each figure runs twice: cold into a fresh cache directory, then warm from
// it, where every run is rehydrated onto a shared shell.
func TestGoldenFigureDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest runs simulate")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_figures.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildTool(t, "dcpieval")
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[1] != "dcpieval" {
			t.Fatalf("malformed golden line %q", line)
		}
		t.Run(strings.TrimPrefix(f[2], "-")+f[3], func(t *testing.T) {
			cacheDir := filepath.Join(t.TempDir(), "runcache")
			args := append(f[2:len(f):len(f)], "-cache-dir", cacheDir)
			digestCheck(t, bin, f[0], args) // cold: populates
			if stderr := digestCheck(t, bin, f[0], args); !strings.Contains(stderr, "rehydrated from disk") {
				t.Errorf("warm pass did not report disk hits; stderr:\n%s", stderr)
			}
		})
	}
}

// TestBenchTinyPin holds dcpieval to the benchmark's smallest pinned row,
// read in place from bench/testdata/pinned.json: a cold `-fig 3 -runs 1
// -scale 0.05` into a fresh cache directory prints the pinned stdout
// digest, simulates the pinned number of runs, and serves the pinned number
// of duplicates from memory.
func TestBenchTinyPin(t *testing.T) {
	if testing.Short() {
		t.Skip("the pinned row simulates")
	}
	raw, err := os.ReadFile(filepath.Join("bench", "testdata", "pinned.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]struct {
		EvalDigest string `json:"eval_digest"`
		EvalSims   int    `json:"eval_sims"`
		EvalDups   int    `json:"eval_dups"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	tiny, ok := pins["tiny"]
	if !ok || tiny.EvalDigest == "" {
		t.Fatalf("bench/testdata/pinned.json has no tiny row: %s", raw)
	}
	dir := t.TempDir()
	args := []string{"-fig", "3", "-runs", "1", "-scale", "0.05",
		"-cache-dir", filepath.Join(dir, "cache"), "-metrics-out", filepath.Join(dir, "m.json")}
	stderr := digestCheck(t, buildTool(t, "dcpieval"), tiny.EvalDigest, args)
	var stats struct {
		Simulated int `json:"simulated"`
		MemHits   int `json:"mem_hits"`
	}
	line := ""
	for _, l := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(l, "dcpieval-cache-stats "); ok {
			line = rest
		}
	}
	if err := json.Unmarshal([]byte(line), &stats); err != nil {
		t.Fatalf("no dcpieval-cache-stats line (%v); stderr:\n%s", err, stderr)
	}
	if stats.Simulated != tiny.EvalSims || stats.MemHits != tiny.EvalDups {
		t.Errorf("simulated %d, memory hits %d; pinned %d, %d", stats.Simulated, stats.MemHits, tiny.EvalSims, tiny.EvalDups)
	}
}

func goldenArgs() []string {
	return []string{"-table", "2", "-runs", "2", "-scale", "0.12"}
}

// goldenSetup builds dcpieval and loads the committed digest.
func goldenSetup(t *testing.T) (bin, want string) {
	t.Helper()
	if testing.Short() {
		t.Skip("golden digest run is slow")
	}
	wantRaw, err := os.ReadFile(filepath.Join("testdata", "golden_table2.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want = strings.Fields(string(wantRaw))[0]

	return buildTool(t, "dcpieval"), want
}

// goldenCheck runs the golden sweep with extra args, compares the stdout
// digest against the committed one, and returns stderr.
func goldenCheck(t *testing.T, bin, want string, extraArgs ...string) string {
	t.Helper()
	return digestCheck(t, bin, want, append(goldenArgs(), extraArgs...))
}

// digestCheck runs dcpieval with args, compares the stdout digest against
// want, and returns stderr.
func digestCheck(t *testing.T, bin, want string, args []string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dcpieval %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errBuf.String())
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if got != want {
		dump := filepath.Join(t.TempDir(), "dcpieval.out")
		os.WriteFile(dump, out, 0o644)
		t.Errorf("dcpieval %s stdout digest changed:\n  got  %s\n  want %s\noutput saved to %s\n(see the test comment for how to regenerate if the change is intentional)",
			strings.Join(args, " "), got, want, dump)
	}
	return errBuf.String()
}

func goldenTable2(t *testing.T, extraArgs ...string) {
	bin, want := goldenSetup(t)
	goldenCheck(t, bin, want, extraArgs...)
}
