// Package cli is the front end shared by the binaries that simulate
// (dcpieval, dcpid, dcpiwhatif) and by the tools that open one profile
// database. It owns one decision: which shared flags such a binary has,
// what each one starts, and what must be written on the way to os.Exit.
//
// A binary registers the flag groups it has (ProfileFlags, ObsFlags,
// RunnerFlags) before flag.Parse, calls Start after it, and from then on
// leaves only through Exit or Fatalf, so its artifacts are written on
// success and on failure alike: the run that went wrong is the one whose
// metrics and trace are wanted.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dcpi/internal/dcpi"
	"dcpi/internal/obs"
	"dcpi/internal/runcache"
	"dcpi/internal/runner"
)

// App is one binary's front end. Create it with New before declaring flags.
type App struct {
	// Obs is what -metrics-out and -trace-out switched on: set by Start,
	// and the zero value (everything off) without ObsFlags.
	Obs obs.Hooks
	// BeforeMetrics, when set, runs on the way out just before the metrics
	// file is written, if one was asked for: the place for end-of-run gauges.
	BeforeMetrics func()

	tool, cacheDir                   string
	cpuProf, memProf, metrics, trace string // artifact paths; "" is off
	jobs, cacheMaxMB                 int
	stopCPU                          func()
}

// New returns the front end of the named binary; the name prefixes every
// diagnostic and the cache-stats line.
func New(tool string) *App { return &App{tool: tool, stopCPU: func() {}} }

// ProfileFlags declares -cpuprofile and -memprofile (docs/PERFORMANCE.md).
func (a *App) ProfileFlags() {
	flag.StringVar(&a.cpuProf, "cpuprofile", "", "write a runtime/pprof CPU profile of this run to this file")
	flag.StringVar(&a.memProf, "memprofile", "", "write a runtime/pprof heap profile at exit to this file")
}

// ObsFlags declares -metrics-out and -trace-out (docs/OBSERVABILITY.md).
func (a *App) ObsFlags() {
	flag.StringVar(&a.metrics, "metrics-out", "", "write this run's self-measurements as metrics JSON to this file")
	flag.StringVar(&a.trace, "trace-out", "", "write this run's event trace (Chrome trace format) to this file")
}

// RunnerFlags declares -j, -cache-dir and -cache-max-mb: Runner's inputs.
func (a *App) RunnerFlags() {
	flag.IntVar(&a.jobs, "j", 0, "concurrent simulation workers (default GOMAXPROCS)")
	flag.StringVar(&a.cacheDir, "cache-dir", os.Getenv("DCPI_CACHE_DIR"),
		"persistent run-cache directory (default $DCPI_CACHE_DIR); completed runs are stored there and reused by later invocations of any tool")
	flag.IntVar(&a.cacheMaxMB, "cache-max-mb", 2048, "run-cache size cap in MiB before LRU eviction (with -cache-dir)")
}

// Start begins what the parsed flags asked for: the CPU profile and the
// observability hooks. Call it once, right after flag.Parse.
func (a *App) Start() {
	if a.cpuProf != "" {
		stop, err := obs.StartCPUProfile(a.cpuProf)
		if err != nil {
			a.Fatalf(1, "%v", err)
		}
		a.stopCPU = stop
	}
	if a.metrics != "" {
		a.Obs.Registry = obs.NewRegistry()
	}
	if a.trace != "" {
		a.Obs.Tracer = obs.NewTracer(0)
	}
}

// Runner builds the scheduler RunnerFlags describes: -j workers, Obs
// attached and, with -cache-dir, the persistent tier bound to
// dcpi.CacheStamp(), so entries written under other simulator semantics or
// another snapshot layout are never served. An unopenable cache is fatal.
func (a *App) Runner() *runner.Runner {
	sched := runner.New(a.jobs)
	sched.Obs = a.Obs
	if a.cacheDir != "" {
		disk, err := runcache.Open(a.cacheDir, runcache.Options{
			MaxBytes: int64(a.cacheMaxMB) << 20,
			Stamp:    dcpi.CacheStamp(),
			Obs:      a.Obs,
		})
		if err != nil {
			a.Fatalf(1, "opening run cache: %v", err)
		}
		sched.Disk = disk
	}
	return sched
}

// CacheStats prints the "<tool>-cache-stats {json}" line on stderr, for
// pipelines that scrape rather than read files: how many runs were
// simulated, deduplicated in memory (mem_hits) or rehydrated from
// -cache-dir (disk_hits). detail adds the sharding count, the two rates and
// the state of the cache directory.
func (a *App) CacheStats(sched *runner.Runner, detail bool) {
	st := sched.Stats()
	stats := map[string]any{
		"simulated": st.Simulated,
		"mem_hits":  st.MemHits,
		"disk_hits": st.DiskHits,
		"workers":   sched.Workers(),
	}
	if detail {
		stats["shard_skipped"] = st.ShardSkipped
		stats["dedup_rate"] = ratio(st.MemHits, st.Simulated+st.MemHits)
		stats["hit_rate"] = ratio(st.MemHits+st.DiskHits, st.Requests())
		if sched.Disk != nil {
			ds := sched.Disk.Stats()
			stats["cache_dir_bytes"] = sched.Disk.SizeBytes()
			stats["cache_dir_evictions"] = ds.Evictions
			stats["cache_dir_quarantined"] = ds.Quarantined
		}
	}
	line, _ := json.Marshal(stats) // ints, floats and string keys: cannot fail
	fmt.Fprintf(os.Stderr, "%s-cache-stats %s\n", a.tool, line)
}

func ratio(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// Fatalf prints "<tool>: message" on stderr and leaves through Exit.
func (a *App) Fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, a.tool+": "+format+"\n", args...)
	a.Exit(code)
}

// Exit is the one way out after Start: it writes the metrics file, the
// trace and the heap profile, stops the CPU profile, and exits with code —
// or with 1 when code is 0 and an artifact could not be written.
func (a *App) Exit(code int) {
	failed := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", a.tool, err)
		if code == 0 {
			code = 1
		}
	}
	if reg := a.Obs.Registry; reg != nil {
		if a.BeforeMetrics != nil {
			a.BeforeMetrics()
		}
		// runtime.mallocs / machine.instructions = allocations per
		// simulated instruction (docs/PERFORMANCE.md).
		obs.PublishRuntimeMemStats(reg)
		if err := reg.WriteFile(a.metrics); err != nil {
			failed(fmt.Errorf("writing %s: %w", a.metrics, err))
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote metrics to %s\n", a.tool, a.metrics)
		}
	}
	if tr := a.Obs.Tracer; tr != nil {
		if err := tr.WriteFile(a.trace); err != nil {
			failed(fmt.Errorf("writing %s: %w", a.trace, err))
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote %d trace events to %s (open in ui.perfetto.dev)\n",
				a.tool, tr.Len(), a.trace)
		}
	}
	a.stopCPU()
	if a.memProf != "" {
		if err := obs.WriteHeapProfile(a.memProf); err != nil {
			failed(err)
		}
	}
	os.Exit(code)
}

// ViewFlags declares the -db/-workload pair of a tool that reads one
// profile database and returns the function that opens it (dcpi.OpenView)
// or dies as tool. Declare before flag.Parse; call after the tool's own
// argument checks.
func ViewFlags(tool string) func() *dcpi.Result {
	dbDir := flag.String("db", "dcpidb", "profile database directory")
	wl := flag.String("workload", "", "workload name (defaults to database metadata)")
	return func() *dcpi.Result {
		r, err := dcpi.OpenView(*dbDir, *wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			os.Exit(1)
		}
		return r
	}
}
