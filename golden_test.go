package dcpibench

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dcpi/internal/dcpi"
	"dcpi/internal/eval"
	"dcpi/internal/runcache"
	"dcpi/internal/runner"
)

// update re-records the digest files instead of checking them: each test
// rewrites the lines it computes, logs old → new for each, and keeps every
// other line; TestEvalContractStalePins drops the sections file's lines
// that no section, example or tool run owns. The contract's sections are
// re-recorded with
//
//	go test . -run TestEvalContract -update -v
//
// and every pin of the root package's digest files (the sections, the
// examples, the offline tools, Table 2 and Figure 4) with
//
//	go test . -run 'TestEvalContract|TestExamplesRun|TestCLIPipeline|TestGolden' -update -v
//
// It never writes bench/testdata/pinned.json, the benchmark's own pins.
var update = flag.Bool("update", false, "rewrite the lines of the testdata/*.sha256 digest files this run computes")

// TestEvalContract holds the evaluation's output, the contract, to its pins
// from one in-process `dcpieval -all -runs 1 -scale 0.05` (contractRun): the
// whole stdout to the full row's eval_digest in bench/testdata/pinned.json,
// read in place, and each of the fourteen sections to its line of
// testdata/golden_sections.sha256, so that a moved byte names its section.
// The whole default-scale output, eval_output.txt, is cmp'd by
// scripts/ci.sh.
func TestEvalContract(t *testing.T) {
	run := contractRun(t)
	if len(run.sections) != len(eval.Sections) {
		t.Fatalf("-all printed %d sections, eval.Sections lists %d", len(run.sections), len(eval.Sections))
	}
	var all []byte
	var got []pin
	for _, s := range run.sections {
		all = append(all, s.out...)
		got = append(got, pin{name: s.header, digest: digest(s.out)})
	}
	checkPins(t, sectionPins, got)
	if d, want := digest(all), benchPin(t, "full").EvalDigest; d != want {
		t.Errorf("dcpieval -all -runs 1 -scale 0.05 stdout digest %s, bench/testdata/pinned.json's full row pins %s", d, want)
	}
}

// TestEvalContractStalePins holds testdata/golden_sections.sha256 to the
// pins some test checks: every line must be one of sectionNames. A renamed or
// removed section, example or tool run leaves a line that no test reads; it
// fails here, and -update drops it and logs it as removed. It runs after
// TestEvalContract, so `-run TestEvalContract -update` re-records a renamed
// header's line and drops the old one.
func TestEvalContractStalePins(t *testing.T) {
	owned := map[string]bool{}
	for _, name := range sectionNames(t) {
		owned[name] = true
	}
	lines, _ := readPins(t, sectionPins)
	kept := lines[:0:0]
	for _, l := range lines {
		switch {
		case owned[l.name]:
			kept = append(kept, l)
		case *update:
			t.Logf("%s: removed %.12s", l.name, l.digest)
		default:
			t.Errorf("%s has a line for %q, which is neither a section of eval.Sections, an example nor one of cliPins; drop it with -update", sectionPins, l.name)
		}
	}
	if *update && len(kept) != len(lines) {
		writePins(t, sectionPins, kept)
	}
}

// sectionNames is every name testdata/golden_sections.sha256 may hold, in
// the order the file lists them: the sections in output order
// (TestEvalContract), the directories under examples/ (TestExamplesRun),
// then the offline tools' runs (cliPins, TestCLIPipeline).
func sectionNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, s := range eval.Sections {
		names = append(names, s.Header)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, "examples/"+e.Name())
		}
	}
	return append(names, cliPins...)
}

// contract is the contract run: each section's header and bytes, in
// output order, and the run-cache directory it filled.
type contract struct {
	sections []section
	cacheDir string
}

type section struct {
	header string
	out    []byte
}

// evalAll runs `dcpieval -all -runs 1 -scale 0.05` once per test process,
// in process, through the eval.Select and eval.Run that dcpieval prints
// with, into a run-cache directory bound to dcpi.CacheStamp() as
// dcpieval's -cache-dir is.
var evalAll = sync.OnceValues(func() (run contract, failed error) {
	run.cacheDir = filepath.Join(toolDir, "eval-all-cache")
	disk, err := runcache.Open(run.cacheDir, runcache.Options{Stamp: dcpi.CacheStamp()})
	if err != nil {
		return run, err
	}
	sched := runner.New(0)
	sched.Disk = disk
	eval.Run(eval.Options{Runs: 1, Scale: 0.05, Runner: sched}, eval.Select(true, 0, 0, ""),
		func(s eval.Section, out []byte, err error) {
			run.sections = append(run.sections, section{s.Header, out})
			if err != nil && failed == nil {
				failed = fmt.Errorf("%s: %w", s.Header, err)
			}
		})
	return run, failed
})

// contractRun is evalAll's run, or the test's end if it could not be made.
func contractRun(t *testing.T) contract {
	t.Helper()
	if testing.Short() {
		t.Skip("the contract run simulates")
	}
	run, err := evalAll()
	if err != nil {
		t.Fatalf("dcpieval -all -runs 1 -scale 0.05 in process: %v", err)
	}
	return run
}

// The digest files: one "digest  name" line per pin. A section of the
// contract run is named by its header, an example's stdout by its directory,
// and a dcpieval run by its command line.
var (
	sectionPins = filepath.Join("testdata", "golden_sections.sha256")
	figurePins  = filepath.Join("testdata", "golden_figures.sha256")
	table2Pins  = filepath.Join("testdata", "golden_table2.sha256")
)

// pin is one line of a digest file.
type pin struct{ name, digest string }

// checkPins holds each computed pin to the line of the same name in file
// or, with -update, rewrites that line.
func checkPins(t *testing.T, file string, got []pin) {
	t.Helper()
	lines, at := readPins(t, file)
	for _, g := range got {
		i, ok := at[g.name]
		switch {
		case *update && !ok:
			t.Logf("%s: new → %.12s", g.name, g.digest)
			at[g.name] = len(lines)
			lines = append(lines, g)
		case *update:
			if lines[i].digest == g.digest {
				t.Logf("%s: unchanged %.12s", g.name, g.digest)
			} else {
				t.Logf("%s: %.12s → %.12s", g.name, lines[i].digest, g.digest)
			}
			lines[i].digest = g.digest
		case !ok:
			t.Errorf("%s has no line for %q (digest %s); record it with -update", file, g.name, g.digest)
		case lines[i].digest != g.digest:
			t.Errorf("%q digest changed:\n  got  %s\n  want %s\n(re-record with -update if the change is intended)",
				g.name, g.digest, lines[i].digest)
		}
	}
	if *update {
		writePins(t, file, lines)
	}
}

// writePins writes lines to file, one "digest  name" line each; the
// sections file's lines go in sectionNames' order, any other name after them.
func writePins(t *testing.T, file string, lines []pin) {
	t.Helper()
	if file == sectionPins {
		names := sectionNames(t)
		rank := func(p pin) int {
			if i := slices.Index(names, p.name); i >= 0 {
				return i
			}
			return len(names)
		}
		slices.SortStableFunc(lines, func(a, b pin) int { return cmp.Compare(rank(a), rank(b)) })
	}
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "%s  %s\n", l.digest, l.name)
	}
	if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantPin is the digest of file's line called name.
func wantPin(t *testing.T, file, name string) string {
	t.Helper()
	lines, at := readPins(t, file)
	i, ok := at[name]
	if !ok {
		t.Fatalf("%s has no line for %q", file, name)
	}
	return lines[i].digest
}

// readPins returns the lines of file, and each name's index.
func readPins(t *testing.T, file string) ([]pin, map[string]int) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var lines []pin
	at := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		d, name, ok := strings.Cut(l, "  ")
		if !ok || len(d) != 64 {
			t.Fatalf("%s: malformed line %q", file, l)
		}
		at[name] = len(lines)
		lines = append(lines, pin{name, d})
	}
	return lines, at
}

// digest is the hex sha256 every pin file holds.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// benchPin is one row of bench/testdata/pinned.json, read in place.
func benchPin(t *testing.T, row string) (p struct {
	EvalDigest string `json:"eval_digest"`
	EvalSims   int    `json:"eval_sims"`
	EvalDups   int    `json:"eval_dups"`
}) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("bench", "testdata", "pinned.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pins[row], &p); err != nil || p.EvalDigest == "" {
		t.Fatalf("bench/testdata/pinned.json has no %s row (%v): %s", row, err, raw)
	}
	return p
}

// TestGoldenTable2Digest is the byte-identical determinism guard for the
// evaluation pipeline: the simulator's hot path may be rearranged for
// speed (pre-decoded metadata, memoized schedules, pooled buffers), but
// `dcpieval -table 2 -runs 2 -scale 0.12` stdout must never change by a
// single byte. The committed digest in testdata/golden_table2.sha256 locks
// the output; a mismatch means an "optimization" changed simulation
// semantics. After an intentional output change, re-record it with -update
// (see update), together with eval_output.txt, which is `dcpieval -all` at
// the default -runs and -scale.
func TestGoldenTable2Digest(t *testing.T) {
	bin := buildGolden(t)
	d, _ := runEval(t, bin, goldenArgs())
	checkPins(t, table2Pins, []pin{{evalCommand(goldenArgs()), d}})
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

// TestGoldenFigureDigests runs the standalone figures whose bytes come
// from the §6 analysis, which Table 2 does not reach: Figure 2's dcpicalc
// listing (bubbles and culprit addresses), Figure 4's dynamic-stall ranges
// per cause, Figures 8 and 9's frequency accuracy (which analyse the same
// runs) and Figure 10's culprit accuracy. Each `dcpieval -fig N -runs 1
// -scale 0.05` runs warm from the contract run's cache directory: it must
// rehydrate every run, simulate none, and print the bytes of its section of
// that run, pinned in testdata/golden_sections.sha256. Figure 4 is half a
// section, so its digest is its line of testdata/golden_figures.sha256,
// re-recorded with -update (see update).
func TestGoldenFigureDigests(t *testing.T) {
	run := contractRun(t)
	bin := buildTool(t, "dcpieval")
	for _, fig := range []int{2, 4, 8, 9, 10} {
		args := []string{"-fig", fmt.Sprint(fig), "-runs", "1", "-scale", "0.05"}
		t.Run(fmt.Sprint("fig", fig), func(t *testing.T) {
			d, stderr := runEval(t, bin, append(args, "-cache-dir", run.cacheDir))
			if s := eval.Select(false, 0, fig, ""); s[0].Fig == fig {
				if want := wantPin(t, sectionPins, s[0].Header); d != want {
					t.Errorf("%s stdout digest %s, its section of the contract run %s", evalCommand(args), d, want)
				}
			} else {
				checkPins(t, figurePins, []pin{{evalCommand(args), d}})
			}
			if !strings.Contains(stderr, "dcpieval: 0 simulations run") || !strings.Contains(stderr, "rehydrated from disk") {
				t.Errorf("warm pass did not rehydrate every run; stderr:\n%s", stderr)
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
	tiny := benchPin(t, "tiny")
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

// evalCommand is the name a digest file gives the dcpieval run of args.
func evalCommand(args []string) string {
	return "dcpieval " + strings.Join(args, " ")
}

// buildGolden builds dcpieval for the Table 2 golden runs.
func buildGolden(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("golden digest run is slow")
	}
	return buildTool(t, "dcpieval")
}

// goldenSetup builds dcpieval and loads the committed Table 2 digest.
func goldenSetup(t *testing.T) (bin, want string) {
	t.Helper()
	bin = buildGolden(t)
	return bin, wantPin(t, table2Pins, evalCommand(goldenArgs()))
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
	got, stderr := runEval(t, bin, args)
	if got != want {
		t.Errorf("%s stdout digest changed:\n  got  %s\n  want %s", evalCommand(args), got, want)
	}
	return stderr
}

// runEval runs dcpieval with args and returns its stdout digest and its
// stderr.
func runEval(t *testing.T, bin string, args []string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\nstderr:\n%s", evalCommand(args), err, stderr.String())
	}
	return digest(out), stderr.String()
}
