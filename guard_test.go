package dcpibench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSourceGuards walks every Go file in the tree (this module and bench/)
// and fails on the shapes earlier PRs deleted so that one mechanism does each
// job. Each rule names the one place the job is done now.
func TestSourceGuards(t *testing.T) {
	type file struct {
		path   string // slash-separated, relative to the repository root
		isTest bool
	}
	in := func(f file, dirs ...string) bool {
		for _, d := range dirs {
			if strings.HasPrefix(f.path, d+"/") {
				return true
			}
		}
		return false
	}
	rules := []struct {
		pattern *regexp.Regexp
		applies func(file) bool
		message string
	}{
		{
			// Every binary format encodes and decodes through internal/wire,
			// whose Dec bounds each count by the bytes that remain.
			regexp.MustCompile(`binary\.((Read|Put|Append)(Uv|V)arint|Uvarint|Varint)\b`),
			func(f file) bool { return !f.isTest && !in(f, "internal/wire") },
			"varint calls outside internal/wire: use wire.Enc / wire.Dec",
		},
		{
			// A raw segment decodes into the one-epoch block of its batch, so
			// everything below the codecs reads blocks: no row-wise shape.
			regexp.MustCompile(`\.seg\b|segment\{|type segment\b|sourceFromBatch`),
			func(f file) bool { return !f.isTest && in(f, "internal/tsdb") },
			"internal/tsdb: a second in-memory shape beside block: build raw segments with blockFromBatch",
		},
		{
			// internal/cli declares the shared flags once and owns what each
			// starts and what is written on the way to os.Exit. (bench/ is the
			// benchmark's own module; its -trace-out is the harness's.)
			regexp.MustCompile(`"(cpuprofile|memprofile|metrics-out|stats-out|trace-out|cache-dir|cache-max-mb)"`),
			func(f file) bool { return !f.isTest && !in(f, "internal/cli", "bench") },
			"shared flag declared outside internal/cli: register its group with cli.App",
		},
		{
			// Test files too. The quotes are classes so that this line is not
			// a match.
			regexp.MustCompile(`["]simcpus["]`),
			func(file) bool { return true },
			"-simcpus is gone: simulated CPUs fan out over the free worker budget",
		},
		{
			// A finished run leaves a process as a run-cache entry and nothing
			// else: no shard archive, its flags, or the runner tier that read it.
			regexp.MustCompile(`DCPISHRD|merge-shards|shard-out|ShardSink|\.Preload`),
			func(f file) bool { return !f.isTest },
			"a shard's results are cache entries: write them with -shard i/N -cache-dir, read them with the plain command",
		},
		{
			// Test files too: the hash table the sweep measures is the one
			// that ships. The classes keep this line from matching.
			regexp.MustCompile(`[h]tsim|[S]imulateTrace|[H]TConfig|[H]TStats|[N]ewHTSim`),
			func(file) bool { return true },
			"§5.4 design points are driver.Config values: replay through driver.New(...).Record",
		},
		{
			// The fleet demo's ground truth is one checker that reads each
			// sealed epoch of each machine's database once.
			regexp.MustCompile(`"dcpi/internal/profiledb"|\bprofiledb\.`),
			func(f file) bool { return !f.isTest && in(f, "cmd/dcpicollect") },
			"cmd/dcpicollect reads no profile database: ground truth is fleet.(*Fleet).Check",
		},
		{
			// Epochs are dense from 1 because nothing in profiledb removes
			// one; /epochs?after=N probes upward on that invariant.
			regexp.MustCompile(`os\.RemoveAll\(|os\.Remove\([^)]*[Ee]poch`),
			func(f file) bool { return !f.isTest && in(f, "internal/profiledb") },
			"internal/profiledb removes no epoch directory: EpochsAfter relies on epochs being dense from 1",
		},
		{
			// A query reads its series in scan order off the series index:
			// no per-source label summaries, no per-query sort.
			regexp.MustCompile(`\b(byImage|matchesSource|chunkLess)\b`),
			func(f file) bool { return !f.isTest && in(f, "internal/tsdb") },
			"internal/tsdb: queries plan over the series index (db.series, one label-ordered entry per label set): no posting lists by image, source summaries or chunk sort",
		},
		{
			// An aggregator reads a series' columns in place: a scan hands
			// it one series range per window, never a copied point.
			regexp.MustCompile(`func\((w|win) int, p Point\)`),
			func(f file) bool { return !f.isTest && in(f, "internal/tsdb") },
			"internal/tsdb: scanWindows hands fn(win, bs, j0, j1), a series' column range in one window; only Select materializes points (bs.point)",
		},
		{
			// A block has one layout: every point at full fidelity, no
			// per-N-epoch aggregates or the flags that asked for them. And
			// no instruction reads timing, so a program's function does not
			// depend on the machine it is timed on.
			regexp.MustCompile(`downsampleBlock|bucketMeta|RawRetention|raw-retention|"downsample"|ReadCounter|OpRPCC`),
			func(f file) bool { return !f.isTest && !in(f, "bench") },
			"one block layout (raw fidelity; a downsampled block is quarantined on open) and no cycle-counter read: no downsampling, its flags, or rpcc",
		},
		{
			// Work spreads over goroutines through one pool. (bench/ is the
			// benchmark's own module and keeps its harness.)
			regexp.MustCompile(`sync\.WaitGroup`),
			func(f file) bool { return !f.isTest && in(f, "cmd", "internal") && !in(f, "internal/par") },
			"hand-rolled fan-out: spread work with par.Do, or par.Default().Each (Budget.Each) when it is CPU-bound",
		},
	}

	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		f := file{path: filepath.ToSlash(path), isTest: strings.HasSuffix(path, "_test.go")}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(src), "\n")
		for _, r := range rules {
			if !r.applies(f) {
				continue
			}
			for n, line := range lines {
				if r.pattern.MatchString(line) {
					t.Errorf("%s:%d: %s\n\t%s", f.path, n+1, strings.TrimSpace(line), r.message)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files: this test must run at the repository root", files)
	}
}
