package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"dcpi/internal/hw"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/mem"
	"dcpi/internal/obs"
	"dcpi/internal/par"
	"dcpi/internal/pipeline"
)

// physPages is the simulated physical memory: 64K pages (512 MB).
const physPages = 64 * 1024

// Options configures a Machine.
type Options struct {
	// HW is the full hardware description (cache geometries, TLB and
	// write-buffer shapes, predictor size, issue width, timing model). The
	// zero value is the default 21164 machine (hw.Default).
	HW      hw.Config
	NumCPUs int // 0 -> 1
	ABI     KernelABI
	Loader  *loader.Loader
	Profile ProfileConfig

	// Seed drives virtual-to-physical page placement; different seeds model
	// different runs of the same workload (the wave5 variance effect).
	Seed uint64

	Quantum       int64 // context-switch quantum in cycles; 0 -> 400K
	TimerInterval int64 // timer-interrupt interval; 0 -> same as Quantum

	// CollectExact turns on per-instruction execution and branch-direction
	// counting (the dcpix/pixie role).
	CollectExact bool

	// SimWorkers controls how many host goroutines Run spreads the
	// simulated CPUs over. CPUs are architecturally independent (private
	// caches, TLBs, counters, driver hash tables), so parallel and
	// sequential execution produce byte-identical results; see the
	// concurrency-model section of DESIGN.md.
	//
	//	 0 or 1  run CPUs sequentially on the caller's goroutine (default)
	//	-1       auto: take whatever the shared worker budget (internal/par)
	//	         has free, so nested run-level parallelism never
	//	         oversubscribes the host
	//	 n > 1   use min(n, NumCPUs) goroutines unconditionally
	SimWorkers int
}

// Counts holds exact execution counts, keyed by image ID.
type Counts struct {
	// Exec[imageID][i] is how many times instruction i executed.
	Exec map[uint32][]uint64
	// Taken[imageID][i] is how many times the conditional branch at i was
	// taken; Exec-Taken gives the fall-through count.
	Taken map[uint32][]uint64
}

func newCounts() *Counts {
	return &Counts{Exec: make(map[uint32][]uint64), Taken: make(map[uint32][]uint64)}
}

func (c *Counts) ensure(im *image.Image) ([]uint64, []uint64) {
	e, ok := c.Exec[im.ID]
	if !ok {
		e = make([]uint64, len(im.Code))
		c.Exec[im.ID] = e
		c.Taken[im.ID] = make([]uint64, len(im.Code))
	}
	return e, c.Taken[im.ID]
}

// zero clears every count in place: a CPU's text windows keep pointing at
// its shard's slices across Runs.
func (c *Counts) zero() {
	for id, exec := range c.Exec {
		clear(exec)
		clear(c.Taken[id])
	}
}

// merge folds a per-CPU shard into c. Counts are commutative sums, so the
// merged table is independent of CPU completion order.
func (c *Counts) merge(other *Counts) {
	if other == nil {
		return
	}
	for id, exec := range other.Exec {
		dst, ok := c.Exec[id]
		if !ok {
			dst = make([]uint64, len(exec))
			c.Exec[id] = dst
			c.Taken[id] = make([]uint64, len(exec))
		}
		for i, n := range exec {
			dst[i] += n
		}
		tk := c.Taken[id]
		for i, n := range other.Taken[id] {
			tk[i] += n
		}
	}
}

// Machine is the simulated multiprocessor.
type Machine struct {
	Model     pipeline.Model
	HW        hw.Config // resolved hardware description (HW.Model == Model)
	Loader    *loader.Loader
	KernelMem *mem.Sparse
	PageMap   *mem.PageMapper
	CPUs      []*CPU
	ABI       KernelABI
	Exact     *Counts

	cfg           ProfileConfig
	tables        *pipeline.Tables
	quantum       int64
	timerInterval int64
	nextCPU       int
	simWorkers    int
	seed          uint64

	// running guards the spawn path and Stats: processes are created during
	// workload setup, before Run, and neither the scheduler's run queues
	// nor the CPUs' counters are safe to touch while CPU goroutines execute.
	running atomic.Bool

	// Post-run parallelism telemetry (see PublishMetrics): how many worker
	// goroutines the last Run used, the final clock skew between the
	// fastest and slowest CPU, and how long the merge waited from the first
	// worker going idle to the last CPU finishing (host wall time).
	lastWorkers   int
	cycleSkew     int64
	mergeWaitNano int64

	// hostRunNanos is the host wall time spent inside Run, summed over
	// calls: two clock reads per Run and none per step, so it is kept
	// whether or not anyone reads it.
	hostRunNanos int64
}

// NewMachine builds a machine. The loader must already hold the kernel
// image; workloads then create processes and Spawn them onto CPUs.
func NewMachine(opts Options) *Machine {
	if opts.Loader == nil {
		panic("sim: Options.Loader is required")
	}
	hwc := opts.HW.Resolved()
	if err := hwc.Validate(); err != nil {
		panic("sim: " + err.Error())
	}
	model := hwc.Model
	ncpu := opts.NumCPUs
	if ncpu == 0 {
		ncpu = 1
	}
	quantum := opts.Quantum
	if quantum == 0 {
		quantum = 400_000
	}
	timer := opts.TimerInterval
	if timer == 0 {
		timer = quantum
	}
	m := &Machine{
		Model:         model,
		HW:            hwc,
		Loader:        opts.Loader,
		KernelMem:     mem.NewSparse(),
		PageMap:       mem.NewPageMapper(physPages, opts.Seed),
		ABI:           opts.ABI,
		cfg:           opts.Profile.WithDefaults(),
		tables:        pipeline.NewTables(model),
		quantum:       quantum,
		timerInterval: timer,
		simWorkers:    opts.SimWorkers,
		seed:          opts.Seed,
	}
	if opts.CollectExact {
		m.Exact = newCounts()
	}
	for i := 0; i < ncpu; i++ {
		m.CPUs = append(m.CPUs, newCPU(i, m))
	}
	return m
}

// textASN returns the page-mapper key for an image's text pages. Text
// placement is keyed by image, not process, so shared libraries share
// physical pages (and cache lines) across processes.
func textASN(imageID uint32) uint32 { return 0x8000_0000 | imageID }

// dataASN returns the TLB/page-mapper context for a data address.
func dataASN(pid uint32, vaddr uint64) uint32 {
	if vaddr >= loader.KernelBase {
		return 0
	}
	return pid
}

// Spawn assigns a process to a CPU round-robin and makes it runnable.
// Processes are spawned during workload setup; spawning onto a machine
// whose CPUs are executing is a scheduler race and panics.
func (m *Machine) Spawn(p *loader.Process) *CPU {
	if m.running.Load() {
		panic("sim: Spawn while Machine.Run is executing")
	}
	c := m.CPUs[m.nextCPU%len(m.CPUs)]
	m.nextCPU++
	c.runq = append(c.runq, p)
	return c
}

// SpawnOn assigns a process to a specific CPU (setup-time only, like Spawn).
func (m *Machine) SpawnOn(cpu int, p *loader.Process) {
	if m.running.Load() {
		panic("sim: SpawnOn while Machine.Run is executing")
	}
	m.CPUs[cpu].runq = append(m.CPUs[cpu].runq, p)
}

// Run executes every CPU until its processes finish or it reaches maxCycles,
// and returns the maximum CPU clock (the wall-clock cycles of the run).
//
// CPUs are architecturally independent — private caches, TLBs, write
// buffers, counters, page-map views, and per-CPU driver/daemon state — so
// Run hands whole CPUs to par.Do's workers, in any host order, and merges
// after Do returns; the interleaving never changes any simulated outcome
// and the output stays byte-identical to sequential execution (DESIGN.md,
// "Concurrency model"). With SimWorkers 0 or 1 the CPUs run in order on the
// caller's goroutine.
func (m *Machine) Run(maxCycles int64) int64 {
	ncpu := len(m.CPUs)
	workers := 1
	switch {
	case m.simWorkers > 1:
		workers = min(m.simWorkers, ncpu)
	case m.simWorkers < 0: // the caller's goroutine plus whatever the budget has free
		extra := par.Default().TryExtra(ncpu - 1)
		defer par.Default().Release(extra)
		workers += extra
	}
	start := time.Now()
	if workers > 1 {
		// Pre-build every image's lazily-decoded metadata table while still
		// single-threaded, so CPU goroutines only ever read them.
		for _, im := range m.Loader.Images() {
			im.MetaTable()
		}
	}
	finished := make([]int64, ncpu) // host ns from start to each CPU's end
	m.running.Store(true)
	m.lastWorkers = par.Do(workers, ncpu, func(i int) {
		m.CPUs[i].Run(maxCycles)
		finished[i] = time.Since(start).Nanoseconds()
	})
	m.running.Store(false)
	// Merge wait: from the first worker going idle to the last CPU
	// finishing. Workers take CPUs while any are left, so with w workers
	// the first one idles at the (ncpu-w+1)-th finish; one worker reads 0.
	slices.Sort(finished)
	m.mergeWaitNano = finished[ncpu-1] - finished[ncpu-m.lastWorkers]

	// Deterministic merge, in CPU order: exact-count shards fold into the
	// machine-wide table (commutative sums), and the final clock skew is
	// recorded for the parallelism gauges.
	var wall, minClock int64
	for i, c := range m.CPUs {
		if m.Exact != nil {
			m.Exact.merge(c.exact)
			c.exact.zero() // shard is folded in; don't double-count on a re-Run
		}
		if c.clock > wall {
			wall = c.clock
		}
		if i == 0 || c.clock < minClock {
			minClock = c.clock
		}
	}
	m.cycleSkew = wall - minClock
	m.hostRunNanos += time.Since(start).Nanoseconds()
	return wall
}

// Stats aggregates machine-wide statistics.
type Stats struct {
	Cycles       int64
	Instructions uint64
	IssueGroups  uint64
	Samples      uint64
	ICacheMisses uint64
	DCacheMisses uint64
	ITBMisses    uint64
	DTBMisses    uint64
	Mispredicts  uint64
	WBOverflows  uint64
	Faults       uint64
}

// Stats sums statistics over all CPUs. The counters belong to the CPUs'
// goroutines while Run executes, so calling Stats then panics, like Spawn;
// par.Do's return orders every CPU's writes before a later call.
func (m *Machine) Stats() Stats {
	if m.running.Load() {
		panic("sim: Stats while Machine.Run is executing")
	}
	var s Stats
	for _, c := range m.CPUs {
		s.Cycles = max(s.Cycles, c.clock)
		s.Instructions += c.instructions
		s.IssueGroups += c.groups
		s.Samples += c.samples
		s.ICacheMisses += c.icache.Misses
		s.DCacheMisses += c.dcache.Misses
		s.ITBMisses += c.itb.Misses
		s.DTBMisses += c.dtb.Misses
		s.Mispredicts += c.pred.Mispredicts
		s.WBOverflows += c.wb.Overflows
		s.Faults += c.faults
	}
	return s
}

// HostRunNanos returns the host wall time spent inside Run so far. Divided
// by Stats().Instructions it is the simulator's own speed, host nanoseconds
// per simulated instruction (the sim.host_ns_per_inst gauge).
func (m *Machine) HostRunNanos() int64 { return m.hostRunNanos }

// PublishMetrics writes the machine-wide statistics into reg (call once,
// at the end of a run): the denominators every per-sample self-measurement
// in the metrics artifact is normalized against.
func (m *Machine) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s := m.Stats()
	reg.Gauge("machine.wall_cycles").Set(float64(s.Cycles))
	reg.Counter("machine.instructions").Add(s.Instructions)
	reg.Counter("machine.issue_groups").Add(s.IssueGroups)
	reg.Counter("machine.samples").Add(s.Samples)
	reg.Counter("machine.icache_misses").Add(s.ICacheMisses)
	reg.Counter("machine.dcache_misses").Add(s.DCacheMisses)
	reg.Counter("machine.itb_misses").Add(s.ITBMisses)
	reg.Counter("machine.dtb_misses").Add(s.DTBMisses)
	reg.Counter("machine.mispredicts").Add(s.Mispredicts)
	reg.Counter("machine.wb_overflows").Add(s.WBOverflows)
	reg.Counter("machine.faults").Add(s.Faults)
	reg.Gauge("machine.num_cpus").Set(float64(len(m.CPUs)))
	// Parallel-simulation telemetry: goroutine slots used by the last Run,
	// the final cycle skew between fastest and slowest CPU, and the host
	// time the merge barrier spent waiting on stragglers.
	reg.Gauge("sim.workers").Set(float64(m.lastWorkers))
	reg.Gauge("sim.cycle_skew_cycles").Set(float64(m.cycleSkew))
	reg.Gauge("sim.merge_wait_us").Set(float64(m.mergeWaitNano) / 1e3)
	if s.Instructions > 0 {
		reg.Gauge("sim.host_ns_per_inst").Set(float64(m.hostRunNanos) / float64(s.Instructions))
	}
	par.Default().PublishMetrics(reg)
}

func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d insts=%d groups=%d samples=%d imiss=%d dmiss=%d itb=%d dtb=%d bmp=%d wb=%d faults=%d",
		s.Cycles, s.Instructions, s.IssueGroups, s.Samples, s.ICacheMisses,
		s.DCacheMisses, s.ITBMisses, s.DTBMisses, s.Mispredicts, s.WBOverflows, s.Faults)
}

// procMem adapts a process's split address space (user memory below
// KernelBase, kernel memory above) to the alpha.Memory interface. Each CPU
// owns one procMem and retargets its p field on every issue group, so the
// executor sees a stable *procMem interface value and the per-instruction
// interface boxing (one heap allocation per Execute call) disappears.
type procMem struct {
	p *loader.Process
	k *mem.Sparse
}

func (pm *procMem) Load(addr uint64, size int) uint64 {
	if addr >= loader.KernelBase {
		return pm.k.Load(addr, size)
	}
	return pm.p.Mem.Load(addr, size)
}

func (pm *procMem) Store(addr uint64, size int, val uint64) {
	if addr >= loader.KernelBase {
		pm.k.Store(addr, size, val)
		return
	}
	pm.p.Mem.Store(addr, size, val)
}
