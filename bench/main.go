// Command bench is the one benchmark of the whole system. It runs one
// workload per process, measures it from outside through the exported
// functions of dcpi/internal/* and the dcpieval binary, checks that the
// outputs are correct, and prints every metric named in BENCHMARK.json.
//
//	bash bench/run.sh --workload fleet-query --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload fleet-query --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -set A.json        # ten seeds of every workload
//	bash bench/run.sh -compare A.json B.json
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics of the workload; with --trace 1 it holds the per-layer metrics,
// taken from a traced in-process run whose spans are written as
// Chrome-trace JSON. See README.md for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"dcpi/internal/eval"
)

// sizes fixes how much work each workload does. The counts were chosen so
// that a run of every workload, with its set-up, fits the time the driver
// allows (see README.md); the tiny row exists only for the smoke test.
type sizes struct {
	// evalArgs is the dcpieval command of eval-cold and eval-warm.
	evalArgs []string
	// ledgerScale and ledgerWorkloads size the traced, in-process
	// simulations; analysisWorkloads the dense-period runs whose
	// procedures are analysed.
	ledgerScale       float64
	ledgerWorkloads   []string
	analysisWorkloads []string
	memAccesses       int // accesses in each memory-path stream
	whatifGrid        []string
	optimizeIters     int

	// fleet-ingest: machines scraped for rounds epochs, compacting every
	// compactEvery rounds (never after the last one: the final compaction
	// belongs to the correctness check). fleetScale sizes the base
	// simulations the machines' profiles derive from: at 0.05 which images
	// get samples at all, and with it the bytes of an epoch, varied by a
	// quarter from seed to seed; at 0.3 by a few percent.
	machines, rounds, compactEvery int
	fleetScale                     float64

	// fleet-query: the store holds qEpochs epochs per machine in blocks of
	// qBlockEpochs, then qTail epochs in raw segments; one pass sends the
	// four query classes in these counts.
	qMachines, qEpochs, qBlockEpochs, qTail int
	qRecent, qFull, qTop, qDelta            int
	recentWindow, topWindow                 uint64
}

var sizeTable = map[string]sizes{
	"full": {
		evalArgs:          []string{"-all", "-runs", "1", "-scale", "0.05"},
		ledgerScale:       0.05,
		ledgerWorkloads:   eval.OverheadWorkloads,
		analysisWorkloads: eval.AccuracyWorkloads,
		memAccesses:       1 << 20,
		whatifGrid:        nil, // whatif's default grid
		optimizeIters:     2,
		machines:          16, rounds: 200, compactEvery: 100, fleetScale: 0.3,
		qMachines: 16, qEpochs: 600, qBlockEpochs: 100, qTail: 50,
		qRecent: 100, qFull: 20, qTop: 40, qDelta: 20,
		recentWindow: 25, topWindow: 100,
	},
	"tiny": {
		evalArgs:          []string{"-fig", "3", "-runs", "1", "-scale", "0.05"},
		ledgerScale:       0.02,
		ledgerWorkloads:   []string{"compress", "mccalpin-sum"},
		analysisWorkloads: []string{"compress"},
		memAccesses:       1 << 14,
		whatifGrid:        []string{"dcache2x"},
		optimizeIters:     1,
		machines:          3, rounds: 6, compactEvery: 3, fleetScale: 0.02,
		qMachines: 3, qEpochs: 24, qBlockEpochs: 8, qTail: 6,
		qRecent: 6, qFull: 2, qTop: 3, qDelta: 2,
		recentWindow: 4, topWindow: 10,
	},
}

// workloadDef is one set of inputs the benchmark runs. run measures the
// end-to-end metrics for about env.seconds.
type workloadDef struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	// eval-cold: dcpieval regenerating every table and figure into an
	// empty run cache. Simulation-dominated: loads sim, mem, pipeline,
	// alpha, loader, driver, daemon, profiledb and analysis, and the write
	// side of snapshot and runcache. Bypasses the whole fleet path. This is
	// the workload on which a faster simulator must show.
	{"eval-cold", runEvalCold},
	// eval-warm: the same command against the cache the set-up filled.
	// Zero simulation: loads the read side of runcache and snapshot and the
	// image rebuild inside the decode (workload set-up, loader, mem.Sparse),
	// plus analysis and formatting. Bypasses sim step, TLB, caches, driver
	// and daemon, so a simulator change predicts no change here.
	{"eval-warm", runEvalWarm},
	// fleet-ingest: a fleet of machines sealing one epoch per round and one
	// collector scraping them, closed loop. The fleet write path: profiledb
	// write, expo, collect, tsdb append and compact, atomicio. No
	// simulation after set-up and no tsdb range scans.
	{"fleet-ingest", runFleetIngest},
	// fleet-query: one keep-alive HTTP client reading a store a
	// long-running collector would hold, over both scan modes (blocks and
	// the raw tail). tsdb used for reads only, through collect.APIHandler:
	// the opposite use of the layer fleet-ingest writes. Bypasses
	// everything else.
	{"fleet-query", runFleetQuery},
}

// env is what a run needs to know about its surroundings.
type env struct {
	work    string // scratch directory of this process, removed at exit
	evalBin string // the dcpieval binary run.sh built
	seed    uint64
	seconds float64
	size    sizes
	pinned  pinned
	rec     *recorder // nil in an untraced run
	procs   int       // load: dcpieval -j, collector Parallel
}

// outcome is what a run reports: the operations it attempted, how many of
// them failed a correctness check (each with a reason), and its metrics.
type outcome struct {
	attempted int
	failed    int
	reasons   []string
	metrics   map[string]float64
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	reason := fmt.Sprintf(format, args...)
	if k := len(o.reasons); k < 20 && (k == 0 || o.reasons[k-1] != reason) {
		o.reasons = append(o.reasons, reason)
	}
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is BENCHMARK.json: the one place that names the workloads and
// the metrics, their units, directions and bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result pairs the outcome's values with the units BENCHMARK.json gives
// them, and insists that the run produced exactly the listed metrics, each
// a finite number.
func result(o *outcome, defs []metricDef) (*resultLine, error) {
	line := &resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(o.metrics) != len(defs) {
		for name := range o.metrics {
			if _, ok := line.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but is not listed in BENCHMARK.json", name)
			}
		}
	}
	return line, nil
}

// options is what the command line chooses for one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	root     string
	dir      string
	evalBin  string
	size     string
}

func main() {
	opt := options{size: "full"}
	flag.StringVar(&opt.workload, "workload", "", "workload to run: eval-cold, eval-warm, fleet-ingest, fleet-query")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of every generated input (fleet, store contents, query order, address streams)")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long the untraced run measures")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&opt.traceOut, "trace-out", "", "Chrome-trace file of the traced run (default <root>/.bench_build/trace.json)")
	flag.StringVar(&opt.root, "root", ".", "the checkout: holds BENCHMARK.json and the dcpi module")
	flag.StringVar(&opt.dir, "dir", "", "directory for stores and caches (default <root>/.bench_build/work)")
	compare := flag.Bool("compare", false, "compare two sets of runs: -compare A.json B.json")
	set := flag.String("set", "", "run every workload over -n seeds, and one traced run each, into this file")
	n := flag.Int("n", 10, "seeds per workload for -set")
	flag.Parse()

	err := func() error {
		root, err := filepath.Abs(opt.root)
		if err != nil {
			return err
		}
		opt.root = root
		man, err := readManifest(root)
		if err != nil {
			return err
		}
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("usage: -compare A.json B.json")
			}
			return compareSets(os.Stdout, man, flag.Arg(0), flag.Arg(1))
		case *set != "":
			return runSet(man, *set, *n, opt)
		}
		line, reasons, err := opt.run(man)
		if err != nil {
			return err
		}
		printMetrics(line, reasons)
		raw, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// newEnv resolves the defaults under <root>/.bench_build and creates the
// work directory of this run; the returned function removes it.
func (opt options) newEnv() (*env, func(), error) {
	sz, ok := sizeTable[opt.size]
	if !ok {
		return nil, nil, fmt.Errorf("unknown size %q", opt.size)
	}
	pin, err := readPinned(opt.size)
	if err != nil {
		return nil, nil, err
	}
	build := filepath.Join(opt.root, ".bench_build")
	if opt.dir == "" {
		opt.dir = filepath.Join(build, "work")
	}
	if opt.evalBin == "" {
		opt.evalBin = filepath.Join(build, "dcpieval")
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(opt.dir, "run-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{
		work: work, evalBin: opt.evalBin,
		seed: opt.seed, seconds: opt.seconds, size: sz, pinned: pin,
		procs: runtime.NumCPU(),
	}
	return e, func() { os.RemoveAll(work) }, nil
}

// run performs one run: the named workload untraced, or the traced ledger.
// It returns the result line and the reasons of the failed operations.
func (opt options) run(man *manifest) (*resultLine, []string, error) {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	e, cleanup, err := opt.newEnv()
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	fmt.Printf("bench: workload %s, seed %d, size %s, %d CPUs, work dir %s (%s)\n",
		opt.workload, opt.seed, opt.size, e.procs, e.work, fsType(e.work))

	var o *outcome
	defs := man.EndToEnd
	if opt.trace == 0 {
		o, err = wl.run(e)
	} else {
		defs = man.PerLayer
		e.rec = newRecorder()
		o, err = runLedger(e)
	}
	if err != nil {
		return nil, nil, err
	}
	if e.rec != nil {
		if opt.traceOut == "" {
			opt.traceOut = filepath.Join(opt.root, ".bench_build", "trace.json")
		}
		spans := e.rec.snapshot()
		if err := writeChromeTrace(opt.traceOut, spans); err != nil {
			return nil, nil, err
		}
		fmt.Printf("bench: wrote %d spans to %s (open in ui.perfetto.dev)\n", len(spans), opt.traceOut)
	}
	line, err := result(o, defs)
	return line, o.reasons, err
}

// printMetrics lists every metric by name with its unit, for people; the
// machine-readable line follows it.
func printMetrics(line *resultLine, reasons []string) {
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := line.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", line.Attempted, line.Failed)
	for _, r := range reasons {
		fmt.Printf("  FAILED: %s\n", r)
	}
}
