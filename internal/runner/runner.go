// Package runner schedules simulated DCPI runs across a bounded worker
// pool with a two-tier content-keyed result cache and optional sharded
// execution.
//
// The evaluation suite (internal/eval) repeats complete machine
// simulations: every table and figure loops over workloads × runs × modes,
// and experiments frequently request identical (workload, mode, scale,
// seed, period) configurations — Table 2's base runs are Table 3's paired
// baselines, Figure 6 re-measures Table 3's configurations for three
// workloads, and Figures 8 and 9 analyze the same dense-sampling runs.
// The runner exploits both structures:
//
//   - Distinct configurations fan out across a worker pool bounded at
//     GOMAXPROCS workers by default (override with New's workers argument
//     or dcpieval's -j flag).
//   - Identical configurations are deduplicated single-flight style: the
//     first request simulates, concurrent and later duplicates wait for /
//     reuse the same *dcpi.Result.
//   - A persistent second tier (Disk, an *runcache.Cache) survives across
//     process invocations: before simulating, a run's serialized snapshot
//     is looked up on disk and rehydrated via dcpi.DecodeSnapshot; after
//     simulating, the snapshot is written back. A warm cache turns a full
//     evaluation sweep into pure decode work with byte-identical output.
//   - Both tiers hold one form of result, the served form: the run's
//     snapshot decoded onto the shell its shape shares (dcpi.DecodeSnapshot).
//     After a simulation the runner encodes the snapshot once, keeps the
//     decoded result in memory and writes the same bytes to Disk; the
//     machine that ran — process memory, driver tables, caches — is
//     unreachable from then on. Driver, Daemon and DB are therefore nil on
//     every result the runner hands out; they exist only on what a direct
//     dcpi.Run returns.
//   - Sharded mode (Shard i of NumShards) deterministically partitions the
//     run set by hashing content keys: runs belonging to other shards are
//     answered with an inert placeholder result instead of simulating, so
//     N processes each simulate a disjoint 1/N of the sweep into Disk. A
//     shard's results are the cache entries it wrote: an unsharded run over
//     a directory holding every shard's entries rehydrates them all.
//
// Results are treated as immutable once Run returns: the simulation is
// finished, the daemon has flushed, and every accessor on *dcpi.Result
// (Profiles, AnalyzeProc, ProcRows, ...) only reads. That is what makes a
// cached result safe to hand to concurrent readers.
//
// A run that writes an on-disk profile database (Config.DBDir != "") is
// not the runner's: its caller owns the directory and reads the database
// the run leaves, so Submit refuses it and the caller calls dcpi.Run, as
// dcpid and the fleet do.
package runner

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/runcache"
)

// Runner is a concurrent simulation scheduler. The zero value is not
// usable; call New.
type Runner struct {
	slots chan int                                // worker-slot pool; the slot id becomes the trace tid
	runFn func(dcpi.Config) (*dcpi.Result, error) // dcpi.Run, stubbed in tests

	mu    sync.Mutex
	cache map[string]*call

	statsMu  sync.Mutex
	stats    CacheStats
	runStart map[int]int64 // per-slot start timestamp of the running simulation

	// Obs attaches the optional self-observability layer: per-run wall
	// time and queue wait (histograms), cache hit/miss counters, and a
	// worker-occupancy counter track in the trace. Set it right after New,
	// before the first Submit; timestamps are real time (see now), unlike
	// the collection stack's simulated-clock trace.
	Obs obs.Hooks

	// Disk, when set, is the persistent second cache tier: memory first,
	// then disk (decoded with dcpi.DecodeSnapshot), then simulate. Entries
	// that fail to decode are quarantined and re-simulated. Set it right
	// after New, before the first Submit.
	Disk *runcache.Cache

	// Shard/NumShards enable sharded execution when NumShards > 1: only
	// runs whose key hashes to shard Shard (1-based, 1 <= Shard <=
	// NumShards) simulate; the rest complete instantly with an inert
	// placeholder result so experiment code keeps iterating. Output
	// rendered from placeholders is meaningless and must be discarded —
	// dcpieval's shard mode does. Set before the first Submit.
	Shard, NumShards int

	active atomic.Int64 // workers currently simulating (occupancy track)

	// Host time inside Machine.Run and instructions retired, summed over
	// the simulations this runner executed (sim.host_ns_per_inst).
	simHostNanos, simInsts atomic.Int64
}

// call is one in-flight or completed simulation.
type call struct {
	done chan struct{}
	res  *dcpi.Result
	err  error
}

// New creates a runner whose pool admits the given number of concurrent
// simulations; workers <= 0 means runtime.GOMAXPROCS(0).
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		slots: make(chan int, workers),
		runFn: dcpi.Run,
		cache: make(map[string]*call),
	}
	for i := 0; i < workers; i++ {
		r.slots <- i
	}
	return r
}

// Workers returns the pool bound.
func (r *Runner) Workers() int { return cap(r.slots) }

// Key is the content key of a run: every Config field that influences the
// simulation. Two configs with equal keys produce identical Results
// (simulation is deterministic in its configuration), which is what makes
// deduplication safe. SimCPUs is deliberately excluded: it is an
// execution-strategy knob — sequential and parallel simulation produce
// byte-identical results (see DESIGN.md) — so runs differing only in it
// can share a cached Result.
func Key(cfg dcpi.Config) string {
	k := fmt.Sprintf("w=%s|scale=%g|mode=%d|seed=%d|cyc=%d/%d|ev=%d/%d|mux=%d|db=%s|ephdb=%t|exact=%t|max=%d|ncpu=%d|pids=%v|trace=%t|zero=%t|double=%t|interp=%t|meta=%t|geo=%d/%d|drain=%d/%d|fault=%s",
		cfg.Workload, cfg.Scale, cfg.Mode, cfg.Seed,
		cfg.CyclesPeriod.Base, cfg.CyclesPeriod.Spread,
		cfg.EventPeriod.Base, cfg.EventPeriod.Spread,
		cfg.MuxInterval, cfg.DBDir, cfg.EphemeralDB, cfg.CollectExact, cfg.MaxCycles,
		cfg.NumCPUs, cfg.PerProcessPIDs, cfg.TraceSamples,
		cfg.ZeroCostCollection, cfg.DoubleSample, cfg.InterpretBranches,
		cfg.MetaSamples, cfg.DriverBuckets, cfg.DriverOverflow,
		cfg.DrainInterval, cfg.MergeInterval, cfg.Fault)
	// The rewrite suffix appears only for rewritten runs, so keys of
	// ordinary configurations — including every key persisted before
	// rewrites existed — are unchanged.
	if len(cfg.Rewrites) > 0 {
		k += "|rw=" + image.LayoutsDigest(cfg.Rewrites)
	}
	// Likewise the hardware suffix: the default machine renders as "" and
	// contributes nothing, so default-config keys are byte-identical to
	// pre-hw.Config keys and existing cache entries still hit.
	if s := cfg.HW.String(); s != "" {
		k += "|hw=" + s
	}
	return k
}

// ShardOf deterministically maps a content key to a shard in [1, n]. Every
// process of an N-way sharded sweep computes the same partition, with no
// coordination, because the hash input is the run's semantic identity —
// not submission order, worker count, or timing.
func ShardOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()%uint32(n)) + 1
}

// Pending is a submitted run; Wait blocks until it completes.
type Pending struct {
	c *call
}

// Wait returns the run's result, blocking until the simulation finishes.
// It may be called from any number of goroutines.
func (p *Pending) Wait() (*dcpi.Result, error) {
	<-p.c.done
	return p.c.res, p.c.err
}

// Submit schedules a run and returns immediately. Experiments submit every
// configuration they need up front (in their natural deterministic order)
// and then Wait in that same order, so output is independent of worker
// count and completion order. A config with DBDir fails at once (see the
// package comment).
func (r *Runner) Submit(cfg dcpi.Config) *Pending {
	if cfg.DBDir != "" {
		c := &call{done: make(chan struct{}), err: fmt.Errorf(
			"runner: a run with DBDir %q writes a profile database its caller owns: call dcpi.Run", cfg.DBDir)}
		close(c.done)
		return &Pending{c: c}
	}

	key := Key(cfg)
	r.mu.Lock()
	if c, ok := r.cache[key]; ok {
		r.mu.Unlock()
		r.noteMemHit()
		if tr := r.Obs.Tracer; tr != nil {
			tr.Instant("runner", "cache_hit", obs.PIDRunner, 0, tr.Now(),
				map[string]any{"workload": cfg.Workload, "mode": cfg.Mode.String()})
		}
		return &Pending{c: c}
	}
	c := &call{done: make(chan struct{})}
	r.cache[key] = c
	r.mu.Unlock()
	go r.executeCached(c, cfg, key)
	return &Pending{c: c}
}

// Run schedules a run and waits for it: the synchronous form of Submit.
func (r *Runner) Run(cfg dcpi.Config) (*dcpi.Result, error) {
	return r.Submit(cfg).Wait()
}

// executeCached resolves a cacheable run through the remaining tiers (the
// memory tier already missed): shard filter, persistent disk cache, and
// finally simulation.
func (r *Runner) executeCached(c *call, cfg dcpi.Config, key string) {
	defer close(c.done)

	// Out-of-shard runs complete instantly with an inert placeholder.
	if r.NumShards > 1 && ShardOf(key, r.NumShards) != r.Shard {
		c.res, c.err = dcpi.PlaceholderResult(cfg)
		r.noteShardSkipped(cfg)
		return
	}

	if r.Disk != nil {
		if blob, ok := r.Disk.Get(key); ok {
			if res, err := r.rehydrate(blob, cfg); err == nil {
				c.res = res
				r.noteDiskHit(cfg)
				return
			}
			// Framing was intact but the payload wasn't decodable:
			// quarantine the entry and fall through to simulation.
			r.Disk.Quarantine(key)
		}
	}

	r.noteSimulated()
	r.execute(c, cfg)
	if c.err != nil {
		return
	}
	// Keep what the disk tier would serve, not the finished machine: the
	// snapshot decoded onto the shared shell is everything a consumer reads,
	// and the live result behind it (process memory, driver tables, caches)
	// is garbage from here on. If the snapshot does not decode — a stubbed
	// run of no registered workload — the live result stands.
	blob, err := dcpi.EncodeSnapshot(c.res)
	if err != nil {
		return
	}
	if served, err := r.rehydrate(blob, cfg); err == nil {
		c.res = served
	}
	if r.Disk != nil {
		r.Disk.Put(key, blob)
	}
}

// rehydrate decodes a stored snapshot. With Obs on it times the decode and
// lends the decode the runner's registry, which is where dcpi counts the
// shared shells it built and reused (dcpi.shell_builds, dcpi.shell_hits);
// the result keeps the configuration as submitted.
func (r *Runner) rehydrate(blob []byte, cfg dcpi.Config) (*dcpi.Result, error) {
	reg := r.Obs.Registry
	if reg == nil {
		return dcpi.DecodeSnapshot(blob, cfg)
	}
	lent := cfg
	lent.Obs.Registry = reg
	start := r.now()
	res, err := dcpi.DecodeSnapshot(blob, lent)
	reg.Histogram("runner.rehydrate_us", rehydrateBuckets()).Observe(float64(r.now() - start))
	if err == nil {
		res.Config = cfg
	}
	return res, err
}

// execute performs one simulation under the worker-pool bound. The caller
// owns c.done.
func (r *Runner) execute(c *call, cfg dcpi.Config) {
	// Every run may spread its simulated CPUs over the worker-budget slots
	// that idle workers leave free (internal/par). This changes how a run
	// executes, never its result: Key excludes SimCPUs.
	cfg.SimCPUs = -1
	submitted := r.now()
	slot := <-r.slots
	defer func() { r.slots <- slot }()

	if r.Obs.Enabled() {
		r.observeRun(cfg, slot, submitted)
		defer r.finishRun(cfg, slot)
	}
	c.res, c.err = r.runFn(cfg)
	// Read the machine that ran while it is still here: executeCached goes on
	// to replace the result with its served form, which has no machine.
	if r.Obs.Registry != nil && c.res != nil && c.res.Machine != nil {
		r.simHostNanos.Add(c.res.Machine.HostRunNanos())
		r.simInsts.Add(int64(c.res.MachineStats.Instructions))
	}
}

// epoch is the zero of the metrics-only clock.
var epoch = time.Now()

// now returns the runner's timestamp in microseconds: the tracer's clock
// when tracing, so that events share its epoch; a monotonic clock when only
// metrics are on; and 0, with no clock read, when Obs is off.
func (r *Runner) now() int64 {
	switch {
	case r.Obs.Tracer != nil:
		return r.Obs.Tracer.Now()
	case r.Obs.Registry != nil:
		return time.Since(epoch).Microseconds()
	}
	return 0
}

// observeRun records the start of a simulation: queue wait, occupancy, and
// the opening timestamp of the per-run slice (stored per slot since slots
// are exclusive while the run executes).
func (r *Runner) observeRun(cfg dcpi.Config, slot int, submitted int64) {
	now := r.now()
	r.Obs.Registry.Histogram("runner.queue_wait_us", queueWaitBuckets()).
		Observe(float64(now - submitted))
	occ := r.active.Add(1)
	if tr := r.Obs.Tracer; tr != nil {
		tr.Counter("runner", "active_workers", obs.PIDRunner, now,
			map[string]float64{"workers": float64(occ)})
	}
	r.statsMu.Lock()
	if r.runStart == nil {
		r.runStart = make(map[int]int64)
	}
	r.runStart[slot] = now
	r.statsMu.Unlock()
}

// finishRun closes the per-run slice and updates occupancy.
func (r *Runner) finishRun(cfg dcpi.Config, slot int) {
	now := r.now()
	r.statsMu.Lock()
	start := r.runStart[slot]
	r.statsMu.Unlock()
	r.Obs.Registry.Histogram("runner.run_wall_us", runWallBuckets()).
		Observe(float64(now - start))
	occ := r.active.Add(-1)
	if tr := r.Obs.Tracer; tr != nil {
		tr.Slice("runner", cfg.Workload+"/"+cfg.Mode.String(),
			obs.PIDRunner, slot, start, now-start,
			map[string]any{"seed": cfg.Seed, "scale": cfg.Scale})
		tr.Counter("runner", "active_workers", obs.PIDRunner, now,
			map[string]float64{"workers": float64(occ)})
	}
}

// queueWaitBuckets spans 100µs .. ~3s.
func queueWaitBuckets() []float64 { return obs.ExpBuckets(100, 2.2, 14) }

// rehydrateBuckets spans 10µs .. ~0.3s: a shell hit to a first build.
func rehydrateBuckets() []float64 { return obs.ExpBuckets(10, 2.2, 14) }

// runWallBuckets spans 1ms .. ~1000s.
func runWallBuckets() []float64 { return obs.ExpBuckets(1000, 2.7, 14) }

// CacheStats breaks down how submitted runs were resolved: actually
// simulated, served from the in-memory single-flight cache, rehydrated
// from the persistent disk tier, or skipped because they belong to another
// shard.
type CacheStats struct {
	Simulated    int
	MemHits      int
	DiskHits     int
	ShardSkipped int
}

// Requests is the total number of submissions the stats cover.
func (s CacheStats) Requests() int {
	return s.Simulated + s.MemHits + s.DiskHits + s.ShardSkipped
}

// Stats reports how submitted runs were resolved across the cache tiers.
func (r *Runner) Stats() CacheStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.stats
}

func (r *Runner) noteSimulated() {
	r.statsMu.Lock()
	r.stats.Simulated++
	r.statsMu.Unlock()
	r.Obs.Registry.Counter("runner.simulated").Inc() // nil-safe
}

func (r *Runner) noteMemHit() {
	r.statsMu.Lock()
	r.stats.MemHits++
	r.statsMu.Unlock()
	r.Obs.Registry.Counter("runner.deduped").Inc() // nil-safe
}

func (r *Runner) noteDiskHit(cfg dcpi.Config) {
	r.statsMu.Lock()
	r.stats.DiskHits++
	r.statsMu.Unlock()
	r.Obs.Registry.Counter("runner.disk_hits").Inc() // nil-safe
	if tr := r.Obs.Tracer; tr != nil {
		tr.Instant("runner", "disk_hit", obs.PIDRunner, 0, tr.Now(),
			map[string]any{"workload": cfg.Workload, "mode": cfg.Mode.String()})
	}
}

func (r *Runner) noteShardSkipped(cfg dcpi.Config) {
	r.statsMu.Lock()
	r.stats.ShardSkipped++
	r.statsMu.Unlock()
	r.Obs.Registry.Counter("runner.shard_skipped").Inc() // nil-safe
	if tr := r.Obs.Tracer; tr != nil {
		tr.Instant("runner", "shard_skip", obs.PIDRunner, 0, tr.Now(),
			map[string]any{"workload": cfg.Workload, "mode": cfg.Mode.String()})
	}
}

// PublishMetrics writes the runner's end-of-sweep summary gauges into
// Obs.Registry (dedup rate, worker bound); counters and histograms are
// maintained live. The disk tier's own gauges publish via Disk.
func (r *Runner) PublishMetrics() {
	reg := r.Obs.Registry
	if reg == nil {
		return
	}
	s := r.Stats()
	reg.Gauge("runner.workers").Set(float64(r.Workers()))
	if total := s.Simulated + s.MemHits; total > 0 {
		reg.Gauge("runner.dedup_rate").Set(float64(s.MemHits) / float64(total))
	}
	if total := s.Requests(); total > 0 {
		reg.Gauge("runner.cache_hit_rate").Set(float64(s.MemHits+s.DiskHits) / float64(total))
	}
	if insts := r.simInsts.Load(); insts > 0 {
		reg.Gauge("sim.host_ns_per_inst").Set(float64(r.simHostNanos.Load()) / float64(insts))
	}
	if r.Disk != nil {
		r.Disk.PublishMetrics()
	}
}
