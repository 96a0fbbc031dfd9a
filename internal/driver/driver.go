// Package driver implements the DCPI device driver of paper §4.2: the
// performance-counter interrupt handler that aggregates samples into
// per-CPU four-way-associative hash tables, evicts into double-buffered
// overflow buffers, and hands full buffers to the user-mode daemon. A cost
// model charges the simulated machine the cycles the handler would consume,
// with the hit/miss split driven by the real hash-table behaviour.
package driver

import (
	"fmt"

	"dcpi/internal/obs"
	"dcpi/internal/sim"
)

// Geometry constants from the paper (§5.3: each hash table held 16K
// samples, each overflow buffer 8K samples, 512KB kernel memory per CPU).
const (
	// DefaultWays is the shipping hash-table associativity: a bucket is one
	// 64-byte cache line holding four 16-byte entries.
	DefaultWays = 4
	// DefaultBuckets gives 16K entries (4K buckets x 4 ways).
	DefaultBuckets = 4096
	// DefaultOverflowEntries is the size of each of the two overflow
	// buffers.
	DefaultOverflowEntries = 8192
	// EntryBytes is the in-kernel size of one entry (PID, PC, EVENT,
	// count packed into 16 bytes).
	EntryBytes = 16
)

// Entry is one aggregated sample: the (PID, PC, EVENT) triple plus an
// occurrence count. Double-sampling edge entries (EvEdge) additionally
// carry the second PC of the pair.
type Entry struct {
	PID   uint32
	PC    uint64
	PC2   uint64 // second PC for EvEdge entries
	Event sim.Event
	Count uint32
}

func (e *Entry) valid() bool { return e.Count != 0 }

// CostModel converts handler work into cycles. Values follow the paper's
// Table 4 magnitudes: a spin-loop experiment put interrupt setup/teardown at
// ~214 cycles, hit-path handlers at ~340-550 cycles, and miss paths several
// hundred cycles more (the eviction writes an overflow entry, touching an
// extra cache line).
type CostModel struct {
	Setup       int64 // interrupt delivery + return
	HitWork     int64 // hash probe and count increment, one cache line
	InsertExtra int64 // filling an empty way: entry initialization
	MissExtra   int64 // eviction: extra cache line for the overflow entry
}

// DefaultCostModel matches Table 4's cycles-mode averages (hit ~420 cycles,
// eviction-miss ~700).
func DefaultCostModel() CostModel {
	return CostModel{Setup: 214, HitWork: 206, InsertExtra: 90, MissExtra: 280}
}

// Stats counts driver activity on one CPU.
type Stats struct {
	Samples    uint64 // interrupts serviced
	Hits       uint64 // hash-table count increments
	Misses     uint64 // samples that did not match (insert or evict)
	Evictions  uint64 // misses that displaced a live entry
	Inserts    uint64 // misses that filled an empty way
	FlushIPIs  uint64 // inter-processor interrupts for flushes
	BufSwaps   uint64 // overflow-buffer swaps
	Direct     uint64 // samples written directly during a flush
	Lost       uint64 // raw samples dropped because both overflow buffers were full
	Deferred   uint64 // full-buffer deliveries the consumer refused or deferred
	CostCycles int64  // total handler cycles charged
}

// MissRate returns Misses/Samples (the paper's Table 4 "miss rate").
func (s Stats) MissRate() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Samples)
}

// LossRate returns Lost/Samples — the paper's §4.2.3 loss accounting ("the
// number of samples lost is counted"; in practice under 0.1%).
func (s Stats) LossRate() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Samples)
}

// AvgCost returns the mean handler cycles per sample.
func (s Stats) AvgCost() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.CostCycles) / float64(s.Samples)
}

// cpuState is the per-processor data of §4.2.1: a private hash table and a
// pair of overflow buffers, so handlers on different processors never
// synchronize with each other. The two buffers are always in one of two
// states: {active, spare} when the consumer keeps up, or {active, pending}
// when a swapped-out full buffer is still awaiting collection. When the
// active buffer fills while another is pending, samples are dropped and
// counted (§4.2.3 loss accounting).
type cpuState struct {
	table       []Entry  // buckets x ways; bucket b is table[b*ways : (b+1)*ways]
	stamps      []uint64 // LRU only: the Samples count at each entry's last touch
	probes      uint64   // ways examined by table lookups (§5.4 probe depth)
	evictNext   int      // round-robin eviction counter ("mod counter")
	active      []Entry  // buffer currently receiving evicted entries
	spare       []Entry  // empty buffer ready to become active (nil while pending holds it)
	pending     []Entry  // full buffer the consumer has not yet accepted
	flushing    bool     // set via IPI while the daemon copies this CPU's table
	dropping    bool     // in a loss episode: both buffers full, samples being dropped
	episodeLost uint64   // samples dropped in the current loss episode
	stats       Stats
}

// Driver is the device driver: one cpuState per processor.
type Driver struct {
	cpus        []*cpuState
	nbuckets    int
	mask        uint64 // nbuckets-1 for a power of two: the index needs no division
	ways        int
	tuned       bool // Config.LRU or SwapToFront: hits and inserts go through touch
	swapToFront bool
	bufCap      int
	cost        CostModel

	// Self-observability (nil-safe; see internal/obs). handlerHist records
	// the per-interrupt handler-cycle distribution (Table 4's "cycles per
	// sample" as a histogram rather than a mean); the tracer gets one slice
	// per serviced interrupt, stamped with the simulated clock.
	obsOn       bool
	tracer      *obs.Tracer
	handlerHist *obs.Histogram

	// OnBufferFull is called when a CPU's active overflow buffer fills and
	// is swapped out; the daemon should collect the full buffer promptly.
	// clock is the simulated cycle of the swap (0 when the caller used the
	// clock-less Record path). The consumer returns true when it accepted
	// the buffer; false defers delivery (the daemon is lagging, stalled, or
	// down), in which case the driver parks the buffer and retries on the
	// next swap attempt. While a parked buffer remains uncollected and the
	// second buffer also fills, newly evicted samples are dropped and
	// counted in Stats.Lost — the paper's §4.2.3 graceful degradation.
	OnBufferFull func(cpu int, clock int64, full []Entry) bool
}

// Config sizes the driver.
type Config struct {
	NumCPUs         int
	Buckets         int // 0 -> DefaultBuckets
	OverflowEntries int // 0 -> DefaultOverflowEntries
	// The §5.4 design points; zero values are the shipping table. Ways is
	// the associativity (0 -> DefaultWays), LRU evicts the least recently
	// touched way instead of round-robin, SwapToFront moves hits and
	// inserts to way 0.
	Ways        int
	LRU         bool
	SwapToFront bool
	// ZeroCost makes Record charge no cycles (pure sampling) instead of
	// DefaultCostModel's. Used by the analysis-accuracy experiments, where
	// dense sampling periods would otherwise perturb the measured program
	// (the real system's 60K-cycle periods make handler time negligible;
	// dense experimental periods do not).
	ZeroCost bool
	// Obs attaches the optional self-observability sinks; the zero value
	// keeps every instrumentation site a no-op.
	Obs obs.Hooks
}

// New builds a driver.
func New(cfg Config) *Driver {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = DefaultBuckets
	}
	if cfg.OverflowEntries == 0 {
		cfg.OverflowEntries = DefaultOverflowEntries
	}
	if cfg.Ways == 0 {
		cfg.Ways = DefaultWays
	}
	cost := DefaultCostModel()
	if cfg.ZeroCost {
		cost = CostModel{}
	}
	d := &Driver{nbuckets: cfg.Buckets, ways: cfg.Ways, tuned: cfg.LRU || cfg.SwapToFront,
		swapToFront: cfg.SwapToFront, bufCap: cfg.OverflowEntries, cost: cost}
	if cfg.Buckets&(cfg.Buckets-1) == 0 {
		d.mask = uint64(cfg.Buckets - 1)
	}
	if cfg.Obs.Enabled() {
		d.obsOn = true
		d.tracer = cfg.Obs.Tracer
		// Bounds span the cost model's range: setup-only (~214) through
		// multi-eviction flush paths (~1K+ cycles).
		d.handlerHist = cfg.Obs.Registry.Histogram("driver.handler_cycles",
			obs.ExpBuckets(128, 1.3, 14))
		d.tracer.NameProcess(obs.PIDDriver, "driver (interrupt handler)")
		for i := 0; i < cfg.NumCPUs; i++ {
			d.tracer.NameThread(obs.PIDDriver, i, fmt.Sprintf("cpu%d", i))
		}
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		cs := &cpuState{
			table:  make([]Entry, cfg.Buckets*cfg.Ways),
			active: make([]Entry, 0, cfg.OverflowEntries),
			spare:  make([]Entry, 0, cfg.OverflowEntries),
		}
		if cfg.LRU {
			cs.stamps = make([]uint64, len(cs.table))
		}
		d.cpus = append(d.cpus, cs)
	}
	return d
}

// hash mixes (pid, pc, pc2, event) into a bucket index.
func (d *Driver) hash(pid uint32, pc, pc2 uint64, ev sim.Event) int {
	h := pc >> 2
	h ^= h >> 17
	h *= 0x9e3779b97f4a7c15
	h ^= (pc2 >> 2) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(pid) * 0x85ebca77c2b2ae63
	h ^= uint64(ev) << 56
	h ^= h >> 29
	if d.mask != 0 {
		return int(h & d.mask)
	}
	return int(h % uint64(d.nbuckets))
}

// Record services one performance-counter interrupt on cpu and returns the
// handler cycles consumed. This is the paper's §4.2 fast path.
func (d *Driver) Record(cpu int, pid uint32, pc uint64, ev sim.Event) int64 {
	return d.record(cpu, Entry{PID: pid, PC: pc, Event: ev, Count: 1}, 0)
}

// RecordAt is Record stamped with the simulated clock of the overflow
// interrupt; the clock only feeds the observability trace.
func (d *Driver) RecordAt(cpu int, pid uint32, pc uint64, ev sim.Event, clock int64) int64 {
	return d.record(cpu, Entry{PID: pid, PC: pc, Event: ev, Count: 1}, clock)
}

// RecordEdgeAt services a double-sampling interrupt pair (paper §7),
// stamped like RecordAt.
func (d *Driver) RecordEdgeAt(cpu int, pid uint32, pc, pc2 uint64, clock int64) int64 {
	return d.record(cpu, Entry{PID: pid, PC: pc, PC2: pc2, Event: sim.EvEdge, Count: 1}, clock)
}

// Interrupt outcomes as trace-slice names (pre-interned so the hot path
// never builds strings).
const (
	intrHit    = "intr:hit"
	intrInsert = "intr:insert"
	intrEvict  = "intr:evict"
	intrDirect = "intr:direct"
)

// observe feeds one serviced interrupt into the observability layer.
// Callers guard with d.obsOn so the disabled path pays a single branch.
func (d *Driver) observe(cpu int, clock, cost int64, outcome string) {
	d.handlerHist.Observe(float64(cost))
	d.tracer.Slice("driver", outcome, obs.PIDDriver, cpu, clock, cost, nil)
}

func (d *Driver) record(cpu int, in Entry, clock int64) int64 {
	cs := d.cpus[cpu]
	cs.stats.Samples++
	cost := d.cost.Setup

	// While the daemon flushes this CPU's hash table, the handler writes
	// the sample directly into the overflow buffer (§4.2.3).
	if cs.flushing {
		cs.stats.Direct++
		cs.stats.Misses++
		cost += d.cost.HitWork + d.cost.MissExtra
		d.appendOverflow(cpu, cs, in, clock)
		cs.stats.CostCycles += cost
		if d.obsOn {
			d.observe(cpu, clock, cost, intrDirect)
		}
		return cost
	}

	base := d.hash(in.PID, in.PC, in.PC2, in.Event) * d.ways
	b := cs.table[base : base+d.ways]
	for w := range b {
		e := &b[w]
		if e.valid() && e.PID == in.PID && e.PC == in.PC && e.PC2 == in.PC2 && e.Event == in.Event {
			e.Count++
			cs.probes += uint64(w + 1)
			if d.tuned {
				d.touch(cs, base, w)
			}
			cs.stats.Hits++
			cost += d.cost.HitWork
			cs.stats.CostCycles += cost
			if d.obsOn {
				d.observe(cpu, clock, cost, intrHit)
			}
			return cost
		}
	}

	// Miss: fill an empty way if there is one, else evict the victim.
	cs.stats.Misses++
	cs.probes += uint64(len(b))
	cost += d.cost.HitWork
	victim := -1
	for w := range b {
		if !b[w].valid() {
			victim = w
			break
		}
	}
	outcome := intrInsert
	if victim < 0 {
		victim = cs.victim(base, len(b))
		cs.stats.Evictions++
		cost += d.cost.MissExtra
		outcome = intrEvict
		d.appendOverflow(cpu, cs, b[victim], clock)
	} else {
		cs.stats.Inserts++
		cost += d.cost.InsertExtra
	}
	b[victim] = in
	if d.tuned {
		d.touch(cs, base, victim)
	}
	cs.stats.CostCycles += cost
	if d.obsOn {
		d.observe(cpu, clock, cost, outcome)
	}
	return cost
}

// victim picks the way of the full bucket at base to evict: the next in
// round-robin order, or under LRU the least recently touched.
func (cs *cpuState) victim(base, ways int) (v int) {
	if cs.stamps == nil {
		v, cs.evictNext = cs.evictNext, (cs.evictNext+1)%ways
		return v
	}
	for w := 1; w < ways; w++ {
		if cs.stamps[base+w] < cs.stamps[base+v] {
			v = w
		}
	}
	return v
}

// touch stamps the entry just hit or inserted at way w (LRU) and moves it,
// stamp and all, to way 0 (swap-to-front).
func (d *Driver) touch(cs *cpuState, base, w int) {
	if s := cs.stamps; s != nil {
		s[base+w] = cs.stats.Samples
		if d.swapToFront {
			s[base], s[base+w] = s[base+w], s[base]
		}
	}
	if d.swapToFront {
		cs.table[base], cs.table[base+w] = cs.table[base+w], cs.table[base]
	}
}

// appendOverflow adds an evicted entry to the active buffer, swapping
// buffers and notifying the daemon when full. When both buffers are
// occupied — the swapped-out buffer is still awaiting collection and the
// consumer again refuses delivery — the entry is dropped and every raw
// sample it aggregates is counted in Stats.Lost.
func (d *Driver) appendOverflow(cpu int, cs *cpuState, e Entry, clock int64) {
	if len(cs.active) >= d.bufCap {
		// The earlier swap attempt failed; retry before giving up on the
		// sample (the consumer may have caught up since).
		if !d.trySwap(cpu, cs, clock) {
			cs.stats.Lost += uint64(e.Count)
			cs.episodeLost += uint64(e.Count)
			if !cs.dropping {
				cs.dropping = true
				if d.obsOn {
					d.tracer.Instant("driver", "loss_begin", obs.PIDDriver, cpu, clock, nil)
				}
			}
			return
		}
	}
	cs.active = append(cs.active, e)
	if len(cs.active) >= d.bufCap {
		d.trySwap(cpu, cs, clock)
	}
}

// trySwap hands the full active buffer off and installs the empty one. It
// returns false — leaving active full — when both buffers are occupied:
// the previously swapped-out buffer is still awaiting collection and the
// consumer (if any) again deferred its delivery.
func (d *Driver) trySwap(cpu int, cs *cpuState, clock int64) bool {
	if cs.pending != nil && !d.deliverPending(cpu, cs, clock) {
		return false
	}
	full := cs.active
	cs.active, cs.spare = cs.spare, nil
	cs.pending = full
	cs.stats.BufSwaps++
	if d.obsOn {
		d.tracer.Instant("driver", "overflow_swap", obs.PIDDriver, cpu, clock,
			map[string]any{"entries": len(full)})
	}
	d.deliverPending(cpu, cs, clock) // immediate delivery; deferral is fine here
	return true
}

// deliverPending offers the parked full buffer to the consumer. On
// acceptance the buffer's backing array becomes the spare; on refusal (or
// with no consumer attached) it stays parked and Stats.Deferred counts the
// attempt. Returns whether the pending slot is now free.
func (d *Driver) deliverPending(cpu int, cs *cpuState, clock int64) bool {
	if cs.pending == nil {
		return true
	}
	if d.OnBufferFull != nil {
		out := make([]Entry, len(cs.pending))
		copy(out, cs.pending)
		if d.OnBufferFull(cpu, clock, out) {
			cs.spare = cs.pending[:0:cap(cs.pending)] // reuse backing array after copy-out
			cs.pending = nil
			d.endLossEpisode(cpu, cs, clock)
			return true
		}
	}
	cs.stats.Deferred++
	return false
}

// endLossEpisode closes the current loss episode, if any, stamping the
// trace with how many samples it dropped.
func (d *Driver) endLossEpisode(cpu int, cs *cpuState, clock int64) {
	if !cs.dropping {
		return
	}
	cs.dropping = false
	if d.obsOn {
		d.tracer.Instant("driver", "loss_end", obs.PIDDriver, cpu, clock,
			map[string]any{"lost_samples": cs.episodeLost})
	}
	cs.episodeLost = 0
}

// FlushCPUAt implements the daemon-initiated flush of §4.2.3: an IPI sets
// the CPU's flushing flag, the hash-table contents and the active overflow
// buffer are copied out, and the flag is cleared. It returns the drained
// entries; clock is the simulated time of the flush, for the trace.
func (d *Driver) FlushCPUAt(cpu int, clock int64) []Entry {
	cs := d.cpus[cpu]
	cs.stats.FlushIPIs++
	cs.flushing = true

	var out []Entry
	for i, e := range cs.table {
		if e.valid() {
			out = append(out, e)
			cs.table[i] = Entry{}
		}
	}
	// Drain the parked full buffer (if delivery was deferred) before the
	// active one, preserving eviction order.
	if cs.pending != nil {
		out = append(out, cs.pending...)
		cs.spare = cs.pending[:0:cap(cs.pending)]
		cs.pending = nil
		d.endLossEpisode(cpu, cs, clock)
	}
	out = append(out, cs.active...)
	cs.active = cs.active[:0]

	cs.flushing = false
	if d.obsOn {
		d.tracer.Instant("driver", "flush_ipi", obs.PIDDriver, cpu, clock,
			map[string]any{"entries": len(out)})
	}
	return out
}

// PublishMetrics writes the driver's cumulative self-measurements into reg
// (call once, at the end of a run). Keys mirror the paper's Table 4/5
// driver columns.
func (d *Driver) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t := d.TotalStats()
	reg.Counter("driver.samples").Add(t.Samples)
	reg.Counter("driver.hits").Add(t.Hits)
	reg.Counter("driver.misses").Add(t.Misses)
	reg.Counter("driver.evictions").Add(t.Evictions)
	reg.Counter("driver.inserts").Add(t.Inserts)
	reg.Counter("driver.direct_writes").Add(t.Direct)
	reg.Counter("driver.flush_ipis").Add(t.FlushIPIs)
	reg.Counter("driver.buffer_swaps").Add(t.BufSwaps)
	reg.Counter("driver.cost_cycles").Add(uint64(t.CostCycles))
	reg.Counter("driver.lost_samples").Add(t.Lost)
	reg.Counter("driver.deferred_deliveries").Add(t.Deferred)
	reg.Gauge("driver.loss_rate").Set(t.LossRate())
	reg.Gauge("driver.miss_rate").Set(t.MissRate())
	reg.Gauge("driver.avg_handler_cycles").Set(t.AvgCost())
	reg.Gauge("driver.kernel_memory_bytes").Set(float64(d.KernelMemoryBytes()))
	reg.Gauge("driver.num_cpus").Set(float64(len(d.cpus)))
}

// Stats returns a copy of cpu's statistics.
func (d *Driver) Stats(cpu int) Stats { return d.cpus[cpu].stats }

// Probes returns the ways cpu's table lookups examined (w+1 for a hit in
// way w, all for a miss): the §5.4 probe depth, kept out of the snapshot's Stats.
func (d *Driver) Probes(cpu int) uint64 { return d.cpus[cpu].probes }

// TotalStats sums statistics across CPUs.
func (d *Driver) TotalStats() Stats {
	var t Stats
	for _, cs := range d.cpus {
		s := cs.stats
		t.Samples += s.Samples
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.Inserts += s.Inserts
		t.FlushIPIs += s.FlushIPIs
		t.BufSwaps += s.BufSwaps
		t.Direct += s.Direct
		t.Lost += s.Lost
		t.Deferred += s.Deferred
		t.CostCycles += s.CostCycles
	}
	return t
}

// KernelMemoryBytes reports the non-pageable kernel memory the driver pins
// per CPU (Table 5's 512KB per processor with default geometry).
func (d *Driver) KernelMemoryBytes() int {
	perCPU := d.nbuckets*d.ways*EntryBytes + 2*d.bufCap*EntryBytes
	return perCPU * len(d.cpus)
}

// NumCPUs returns the number of per-CPU states.
func (d *Driver) NumCPUs() int { return len(d.cpus) }

func (s Stats) String() string {
	return fmt.Sprintf("samples=%d hits=%d misses=%d (%.1f%%) evict=%d swaps=%d ipis=%d lost=%d avgcost=%.0f",
		s.Samples, s.Hits, s.Misses, 100*s.MissRate(), s.Evictions, s.BufSwaps, s.FlushIPIs, s.Lost, s.AvgCost())
}
