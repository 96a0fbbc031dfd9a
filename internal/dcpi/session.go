// Package dcpi is the public face of the continuous-profiling
// infrastructure: it wires a simulated Alpha-like machine to the DCPI
// collection stack (device driver, daemon, profile database), runs
// workloads under a chosen profiling configuration, and exposes the
// analysis tools (dcpiprof/dcpicalc/dcpistats equivalents) over the
// collected profiles.
package dcpi

import (
	"fmt"
	"os"

	"dcpi/internal/daemon"
	"dcpi/internal/driver"
	"dcpi/internal/hw"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/obs"
	"dcpi/internal/par"
	"dcpi/internal/pipeline"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

// Config describes one profiled run.
type Config struct {
	// Workload names a registered workload (see workload.Names()).
	Workload string
	// Scale multiplies workload repeat counts (1.0 = default size).
	Scale float64
	// Mode is the profiling configuration: base (off), cycles, default,
	// or mux (paper §5).
	Mode sim.Mode
	// Seed controls page placement and sampling randomization; vary it to
	// model separate runs.
	Seed uint64
	// CyclesPeriod/EventPeriod override the sampling periods (zero values
	// use the paper defaults: 60K-64K for cycles).
	CyclesPeriod sim.PeriodSpec
	EventPeriod  sim.PeriodSpec
	// MuxInterval overrides the multiplexing rotation interval in cycles.
	MuxInterval int64
	// DBDir, when non-empty, stores profiles on disk there.
	DBDir string
	// EphemeralDB gives the run a real on-disk profile database in a
	// private temporary directory that is deleted when the run finishes:
	// the simulation behaves exactly like a DBDir run (the daemon merges to
	// disk on its merge interval, pays the same modeled costs, and the
	// database's final size is captured in Result.DBDiskBytes), but the
	// run's identity no longer depends on a caller-chosen path. That makes
	// disk-measuring experiments (Table 5) cacheable and shardable like
	// every other run. Ignored when DBDir is set.
	EphemeralDB bool
	// CollectExact additionally gathers exact execution counts (dcpix).
	CollectExact bool
	// MaxCycles bounds the run; 0 uses the workload's own bound.
	MaxCycles int64
	// NumCPUs overrides the workload's machine size when nonzero.
	NumCPUs int
	// SimCPUs controls simulation parallelism: 0 or 1 run the simulated
	// CPUs sequentially (the reference the differential tests compare
	// against), -1 runs them on goroutines up to the free worker budget
	// (see internal/par; what the runner and dcpid ask for), and N > 1
	// forces up to N goroutines regardless of the budget. Every setting
	// produces byte-identical results for a fault-free run (see DESIGN.md),
	// so this is an execution strategy, not part of the run's identity. A
	// run with a fault plan is race-safe in parallel but not
	// byte-deterministic, so -1 resolves to sequential for it.
	SimCPUs int
	// PerProcessPIDs requests separate per-process profiles.
	PerProcessPIDs []uint32
	// TraceSamples records the raw sample stream in Result.Trace (used by
	// the §5.4 hash-table design-space ablation).
	TraceSamples bool
	// ZeroCostCollection makes the collection stack charge no cycles to
	// the simulated machine: pure sampling for the analysis-accuracy
	// experiments (Figures 8-10), where dense experimental sampling
	// periods would otherwise perturb what is being measured.
	ZeroCostCollection bool
	// DoubleSample enables the paper's §7 double-sampling prototype:
	// paired interrupts that capture two PCs along an execution path,
	// yielding direct edge samples.
	DoubleSample bool
	// InterpretBranches enables the paper's §7 instruction-interpretation
	// prototype: sampled conditional branches are decoded and their
	// direction recorded as edge samples (no second interrupt needed).
	InterpretBranches bool
	// MetaSamples enables the footnote-2 "meta" method: samples landing
	// inside the interrupt handler are attributed to the handler's own
	// kernel symbol (perfcount_intr) instead of being a blind spot.
	MetaSamples bool
	// DriverBuckets/DriverOverflow override the driver's hash-table bucket
	// count and per-overflow-buffer capacity (zero keeps the defaults;
	// negative is an error).
	// Shrinking the overflow buffers is how the fault experiments provoke
	// loss without unrealistically long stalls.
	DriverBuckets  int
	DriverOverflow int
	// DrainInterval/MergeInterval override the daemon's periodic drain and
	// disk-merge intervals in cycles (zero keeps the defaults).
	DrainInterval int64
	MergeInterval int64
	// Fault injects daemon faults (stalls, drain lag, crashes) into the
	// run; the zero value is fault-free and leaves output unchanged.
	Fault daemon.FaultPlan
	// Rewrites substitutes re-laid-out code for images as the workload loads
	// them, keyed by image path (paper §7: continuous optimization feeds
	// profiles to a binary rewriter and the modified image is what runs).
	// Each layout is applied through image.WithLayout at registration time,
	// so every process maps the rewritten image and all samples attribute to
	// the new layout. A layout that fails to apply aborts the run.
	Rewrites []image.Layout
	// Obs attaches the optional self-observability layer (internal/obs):
	// the collection stack publishes its Table 3-5 self-measurements into
	// Obs.Registry and its pipeline events into Obs.Tracer. The zero value
	// leaves the run byte-identical to an uninstrumented one.
	Obs obs.Hooks
	// HW perturbs the simulated hardware (cache geometries, TLB and
	// write-buffer shapes, issue width, timing model). The zero value is
	// the default 21164 machine and — like Fault — keeps the run's content
	// key byte-identical to a pre-HW-config run, so existing cache entries
	// survive. Non-default machines join runner.Key via hw.Config.String.
	HW hw.Config
}

// Result is a completed run.
//
// The value-typed fields below the pointer block are the run's measurement
// snapshot: everything the evaluation suite reads from a finished run,
// captured by Run after the final flush. They — not the live Machine/
// Driver/Daemon pointers — are what the run cache serializes (see
// snapshot.go), so a Result rehydrated from a snapshot carries the same
// numbers a fresh simulation would.
//
// Only a direct call of Run returns the live form: Driver, Daemon and DB
// set, a Machine that ran, a Loader whose processes hold their memory. The
// runner (internal/runner) never hands that out for a cacheable run. Both of
// its tiers hold the served form — the snapshot decoded by DecodeSnapshot —
// whether the run was just simulated or found on disk, so cold and warm
// consumers read one shape of Result and a finished machine is garbage as
// soon as its snapshot is taken.
//
// Analysis consumers (ProcRows, AnalyzeProc, ...) additionally use Loader
// and Model. A served Result does not own the loader: it points at the
// shell shared by every result of the same shape (workload, scale, machine,
// rewrites; see shell.go) — the images, processes, mappings and registers
// the live run's set-up produced, with no process memory behind them — and
// has no Machine at all. Results are shared between callers through the
// runner's memory tier and treated as immutable; the same holds, across
// results, for a served Loader: read it, never register an image or map.
// (Process.Lookup keeps a last-hit cache, so concurrent Lookups on one
// shell process need a lock.) What the tools derive from a result —
// procedure splits of its profiles, procedure analyses — is memoized on it
// (procs.go) and shared read-only the same way.
type Result struct {
	Config   Config
	Wall     int64        // wall-clock cycles (max over CPUs)
	Machine  *sim.Machine // direct Run only; nil in the served form
	Loader   *loader.Loader
	Driver   *driver.Driver // direct Run only; nil in the served form
	Daemon   *daemon.Daemon // direct Run only; nil in the served form
	DB       *profiledb.DB  // direct Run with DBDir only
	Exact    *sim.Counts
	Trace    []sim.Sample // raw samples, when Config.TraceSamples
	profiles []*profiledb.Profile

	// Measurement snapshot (survives serialization; see above).
	NumCPUs           int          // simulated machine size
	DriverStats       driver.Stats // aggregate over CPUs, at end of run
	DriverKernelBytes int          // pinned kernel memory (driver tables)
	DaemonStats       daemon.Stats
	DaemonMemBytes    int   // daemon resident data at end of run
	DaemonPeakBytes   int   // peak daemon resident data
	DBDiskBytes       int64 // profile-database size (DBDir or EphemeralDB runs)
	// MachineStats is the simulator's ground-truth hardware view of the run
	// (cycles, instructions, cache/TLB misses, mispredicts), summed over
	// CPUs. The optimization loop (cmd/dcpiopt) reads it to measure what a
	// rewrite actually changed, independent of sampling noise.
	MachineStats sim.Stats

	model    pipeline.Model // the machine model the run was measured under
	recorded [2]float64     // the cycles and event means OpenView's database recorded
	reg      *obs.Registry  // where the tool memos count their work; may be nil
	tools    toolMemo
}

// collector adapts the driver+daemon pair to the machine's sample sink.
// The trace is buffered per CPU — each simulated CPU appends only to its
// own slice, so tracing stays race-free and deterministic when the CPUs run
// on goroutines — and concatenated in CPU order after the run.
type collector struct {
	drv    *driver.Driver
	dmn    *daemon.Daemon
	traces [][]sim.Sample // nil when not tracing
}

func (c *collector) Sample(s sim.Sample) int64 {
	if c.traces != nil {
		c.traces[s.CPU] = append(c.traces[s.CPU], s)
	}
	if s.Event == sim.EvEdge {
		return c.drv.RecordEdgeAt(s.CPU, s.PID, s.PC, s.PC2, s.Clock)
	}
	return c.drv.RecordAt(s.CPU, s.PID, s.PC, s.Event, s.Clock)
}

func (c *collector) Poll(cpu int, clock int64) int64 {
	return c.dmn.Poll(cpu, clock)
}

// numCPUs resolves the machine size of a run of spec under cfg.
func (cfg Config) numCPUs(spec workload.Spec) int {
	if cfg.NumCPUs > 0 {
		return cfg.NumCPUs
	}
	return spec.NumCPUs
}

// Run executes one profiled workload run.
func Run(cfg Config) (*Result, error) {
	spec, ok := workload.Get(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("dcpi: unknown workload %q (have %v)", cfg.Workload, workload.Names())
	}
	if err := cfg.HW.Validate(); err != nil {
		return nil, fmt.Errorf("dcpi: %w", err)
	}
	if cfg.DriverBuckets < 0 || cfg.DriverOverflow < 0 {
		return nil, fmt.Errorf("dcpi: negative driver geometry: %d buckets, %d overflow entries",
			cfg.DriverBuckets, cfg.DriverOverflow)
	}
	ncpu := cfg.numCPUs(spec)
	simWorkers := cfg.SimCPUs
	if simWorkers < 0 && !cfg.Fault.Empty() {
		// Crash timing depends on which CPU's poll first crosses the fault
		// point: parallel fault runs are race-safe but not byte-
		// deterministic (DESIGN.md §6), so "whatever is free" means one.
		simWorkers = 0
	}
	// This run occupies one worker slot for its own goroutine, from set-up
	// to flush; the machine borrows extra slots for per-CPU fan-out only
	// from what remains, so run-level (-j) and CPU-level parallelism never
	// multiply.
	par.Default().Acquire(1)
	defer par.Default().Release(1)

	kernel, abi := workload.Kernel()
	l := loader.New(kernel)
	rewriteErr := installRewrites(l, cfg.Rewrites)

	var (
		drv            *driver.Driver
		dmn            *daemon.Daemon
		db             *profiledb.DB
		sink           sim.Sink
		collectorTrace *collector
		err            error
	)
	// An ephemeral database lives in a private temp directory for exactly
	// this run: same simulation semantics as a DBDir run, but the path never
	// becomes part of the run's identity (see Config.EphemeralDB).
	dbDir := cfg.DBDir
	var ephemeral string
	if dbDir == "" && cfg.EphemeralDB && cfg.Mode != sim.ModeOff {
		ephemeral, err = os.MkdirTemp("", "dcpi-ephdb-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(ephemeral)
		dbDir = ephemeral
	}
	if cfg.Mode != sim.ModeOff {
		if dbDir != "" {
			db, err = profiledb.Open(dbDir)
			if err != nil {
				return nil, err
			}
		}
		drv = driver.New(driver.Config{
			NumCPUs:         ncpu,
			Buckets:         cfg.DriverBuckets,
			OverflowEntries: cfg.DriverOverflow,
			ZeroCost:        cfg.ZeroCostCollection,
			Obs:             cfg.Obs,
		})
		dmn = daemon.New(daemon.Config{
			DB:             db,
			DrainInterval:  cfg.DrainInterval,
			MergeInterval:  cfg.MergeInterval,
			PerProcessPIDs: cfg.PerProcessPIDs,
			Fault:          cfg.Fault,
			Obs:            cfg.Obs,
			ZeroCost:       cfg.ZeroCostCollection,
		}, drv)
		l.Notify = dmn.HandleNotification
		l.NotifyExit = dmn.NoteExit
		col := &collector{drv: drv, dmn: dmn}
		sink = col
		collectorTrace = col
	}

	m := sim.NewMachine(sim.Options{
		HW:      cfg.HW,
		NumCPUs: ncpu,
		ABI:     abi,
		Loader:  l,
		Seed:    cfg.Seed,
		Profile: sim.ProfileConfig{
			Mode:              cfg.Mode,
			Sink:              sink,
			CyclesPeriod:      cfg.CyclesPeriod,
			EventPeriod:       cfg.EventPeriod,
			MuxInterval:       cfg.MuxInterval,
			Seed:              uint32(cfg.Seed),
			DoubleSample:      cfg.DoubleSample,
			InterpretBranches: cfg.InterpretBranches,
			MetaSamples:       cfg.MetaSamples,
		},
		CollectExact: cfg.CollectExact,
		SimWorkers:   simWorkers,
	})

	if cfg.TraceSamples && collectorTrace != nil {
		collectorTrace.traces = make([][]sim.Sample, ncpu)
	}

	ctx := &workload.Ctx{Loader: l, Machine: m, Scale: cfg.Scale}
	if err := spec.Setup(ctx); err != nil {
		return nil, err
	}
	if err := rewriteErr(); err != nil {
		return nil, err
	}

	maxCycles := spec.MaxCycles
	if cfg.MaxCycles > 0 {
		maxCycles = cfg.MaxCycles
	}
	wall := m.Run(maxCycles)

	var trace []sim.Sample
	if collectorTrace != nil && collectorTrace.traces != nil {
		for _, t := range collectorTrace.traces {
			trace = append(trace, t...)
		}
	}

	res := &Result{
		Config:  cfg,
		Wall:    wall,
		Machine: m,
		model:   m.Model,
		reg:     cfg.Obs.Registry,
		Loader:  l,
		Driver:  drv,
		Daemon:  dmn,
		DB:      db,
		Exact:   m.Exact,
		Trace:   trace,
	}
	if dmn != nil {
		if db != nil {
			// Keep an in-memory view for the tools, then merge to disk.
			if err := dmn.Flush(); err != nil {
				return nil, err
			}
			if err := db.WriteMeta(profiledb.Meta{
				Workload:     cfg.Workload,
				Mode:         cfg.Mode.String(),
				CyclesPeriod: res.AvgCyclesPeriod(),
				EventPeriod:  res.AvgEventPeriod(),
				WallCycles:   wall,
				Seed:         cfg.Seed,
				Scale:        cfg.Scale,
				ImageInsts:   res.ExactImageInsts(),
			}); err != nil {
				return nil, err
			}
			res.profiles, err = db.Profiles()
			if err != nil {
				return nil, err
			}
		} else {
			if err := dmn.Flush(); err != nil {
				return nil, err
			}
			res.profiles = dmn.Profiles()
		}
	}
	if reg := cfg.Obs.Registry; reg != nil {
		m.PublishMetrics(reg)
		if drv != nil {
			drv.PublishMetrics(reg)
		}
		if dmn != nil {
			dmn.PublishMetrics(reg)
		}
		if db != nil {
			db.PublishMetrics(reg)
		}
	}

	// Capture the measurement snapshot (the serializable view of the run;
	// see the Result comment) after every flush and merge has settled.
	res.NumCPUs = ncpu
	res.MachineStats = m.Stats()
	if drv != nil {
		res.DriverStats = drv.TotalStats()
		res.DriverKernelBytes = drv.KernelMemoryBytes()
	}
	if dmn != nil {
		res.DaemonStats = dmn.Stats()
		res.DaemonMemBytes = dmn.MemoryBytes()
		res.DaemonPeakBytes = dmn.PeakMemoryBytes()
	}
	if db != nil {
		res.DBDiskBytes, err = db.DiskUsage()
		if err != nil {
			return nil, err
		}
	}
	if ephemeral != "" {
		// The directory is deleted on return; don't hand out a dangling DB.
		res.DB = nil
	}
	return res, nil
}

// Profiles returns every collected profile (per image and event).
func (r *Result) Profiles() []*profiledb.Profile { return r.profiles }

// Profile returns the profile for one image path and event (nil if the
// image was never sampled for that event).
func (r *Result) Profile(imagePath string, ev sim.Event) *profiledb.Profile {
	for _, p := range r.profiles {
		if p.ImagePath == imagePath && p.Event == ev {
			return p
		}
	}
	return nil
}

// Model returns the machine model the run used (shared with the analysis).
func (r *Result) Model() pipeline.Model { return r.model }

// ExactImageInsts sums the exact execution counts per image path (nil
// unless the run collected exact counts). Written into the epoch metadata
// so fleet-level queries can turn attributed cycles into a true CPI.
func (r *Result) ExactImageInsts() map[string]uint64 {
	if r.Exact == nil || r.Loader == nil || len(r.Exact.Exec) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(r.Exact.Exec))
	for id, exec := range r.Exact.Exec {
		im, ok := r.Loader.Image(id)
		if !ok {
			continue
		}
		var n uint64
		for _, c := range exec {
			n += c
		}
		if n > 0 {
			out[im.Path] += n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// AvgCyclesPeriod returns the mean sampling period of the run.
func (r *Result) AvgCyclesPeriod() float64 { return r.periodMeans()[0] }

// AvgEventPeriod returns the mean event-counter period of the run.
func (r *Result) AvgEventPeriod() float64 { return r.periodMeans()[1] }

// periodMeans returns the run's mean cycles and event periods: those of
// Config's periods or, for a view OpenView opened, the ones its database
// recorded; a recorded 0 leaves Config's zero spec, the simulator's default.
func (r *Result) periodMeans() [2]float64 {
	p := sim.ProfileConfig{CyclesPeriod: r.Config.CyclesPeriod, EventPeriod: r.Config.EventPeriod}.WithDefaults()
	means := [2]float64{p.CyclesPeriod.Mean(), p.EventPeriod.Mean()}
	for i, m := range r.recorded {
		if m != 0 {
			means[i] = m
		}
	}
	return means
}
