package driver

import (
	"testing"
	"testing/quick"

	"dcpi/internal/sim"
)

func TestRecordAggregates(t *testing.T) {
	d := New(Config{NumCPUs: 1})
	for i := 0; i < 100; i++ {
		d.Record(0, 42, 0x1000, sim.EvCycles)
	}
	st := d.Stats(0)
	if st.Samples != 100 {
		t.Errorf("samples = %d", st.Samples)
	}
	if st.Hits != 99 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 99/1", st.Hits, st.Misses)
	}
	entries := d.FlushCPUAt(0, 0)
	if len(entries) != 1 || entries[0].Count != 100 {
		t.Fatalf("flush = %+v", entries)
	}
	if entries[0].PID != 42 || entries[0].PC != 0x1000 || entries[0].Event != sim.EvCycles {
		t.Errorf("entry = %+v", entries[0])
	}
}

func TestDistinctEventsDistinctEntries(t *testing.T) {
	d := New(Config{NumCPUs: 1})
	d.Record(0, 1, 0x1000, sim.EvCycles)
	d.Record(0, 1, 0x1000, sim.EvIMiss)
	d.Record(0, 2, 0x1000, sim.EvCycles)
	entries := d.FlushCPUAt(0, 0)
	if len(entries) != 3 {
		t.Errorf("entries = %d, want 3 (distinct pid/event)", len(entries))
	}
}

func TestHitCostLessThanMissCost(t *testing.T) {
	d := New(Config{NumCPUs: 1})
	missCost := d.Record(0, 1, 0x1000, sim.EvCycles) // insert (miss, no evict)
	hitCost := d.Record(0, 1, 0x1000, sim.EvCycles)
	if hitCost >= missCost {
		t.Errorf("hit cost %d >= miss cost %d", hitCost, missCost)
	}
	// Force an eviction: fill one bucket's 4 ways with colliding keys.
	d2 := New(Config{NumCPUs: 1, Buckets: 1})
	var evictCost int64
	for pc := uint64(0); pc < 5; pc++ {
		evictCost = d2.Record(0, 1, pc*4, sim.EvCycles)
	}
	if d2.Stats(0).Evictions == 0 {
		t.Fatal("no eviction with 5 keys in a 4-way single bucket")
	}
	if evictCost <= hitCost {
		t.Errorf("evict cost %d <= hit cost %d", evictCost, hitCost)
	}
}

func TestEvictionRoundRobin(t *testing.T) {
	d := New(Config{NumCPUs: 1, Buckets: 1})
	// Fill 4 ways, then keep inserting; every insert evicts exactly one.
	for pc := uint64(0); pc < 12; pc++ {
		d.Record(0, 1, pc*8, sim.EvCycles)
	}
	st := d.Stats(0)
	if st.Evictions != 8 {
		t.Errorf("evictions = %d, want 8", st.Evictions)
	}
	if st.Inserts != 4 {
		t.Errorf("inserts = %d, want 4", st.Inserts)
	}
}

func TestOverflowBufferSwapNotifies(t *testing.T) {
	var got [][]Entry
	d := New(Config{NumCPUs: 1, Buckets: 1, OverflowEntries: 4})
	d.OnBufferFull = func(cpu int, _ int64, full []Entry) bool { got = append(got, full); return true }
	// Evictions: each new key beyond 4 evicts one entry to the buffer.
	for pc := uint64(0); pc < 16; pc++ {
		d.Record(0, 1, pc*8, sim.EvCycles)
	}
	// 12 evictions -> buffer (cap 4) filled 3 times.
	if len(got) != 3 {
		t.Fatalf("notifications = %d, want 3", len(got))
	}
	for _, buf := range got {
		if len(buf) != 4 {
			t.Errorf("buffer len = %d", len(buf))
		}
		for _, e := range buf {
			if e.Count == 0 {
				t.Error("invalid entry in overflow buffer")
			}
		}
	}
	st := d.Stats(0)
	if st.BufSwaps != 3 {
		t.Errorf("swaps = %d", st.BufSwaps)
	}
}

func TestFlushDuringFlushWritesDirect(t *testing.T) {
	d := New(Config{NumCPUs: 1})
	d.cpus[0].flushing = true
	d.Record(0, 1, 0x1000, sim.EvCycles)
	st := d.Stats(0)
	if st.Direct != 1 {
		t.Errorf("direct = %d, want 1", st.Direct)
	}
	if len(d.cpus[0].active) != 1 {
		t.Error("direct sample not in overflow buffer")
	}
	d.cpus[0].flushing = false
}

func TestPerCPUIsolation(t *testing.T) {
	d := New(Config{NumCPUs: 2})
	d.Record(0, 1, 0x1000, sim.EvCycles)
	d.Record(1, 1, 0x1000, sim.EvCycles)
	if d.Stats(0).Samples != 1 || d.Stats(1).Samples != 1 {
		t.Error("per-CPU stats mixed")
	}
	e0 := d.FlushCPUAt(0, 0)
	e1 := d.FlushCPUAt(1, 0)
	if len(e0) != 1 || len(e1) != 1 {
		t.Errorf("flush = %d, %d entries", len(e0), len(e1))
	}
	ts := d.TotalStats()
	if ts.Samples != 2 || ts.FlushIPIs != 2 {
		t.Errorf("total = %+v", ts)
	}
}

func TestFlushAllAndConservation(t *testing.T) {
	d := New(Config{NumCPUs: 2, Buckets: 4, OverflowEntries: 1 << 20})
	var fed uint64
	for cpu := 0; cpu < 2; cpu++ {
		for i := 0; i < 1000; i++ {
			d.Record(cpu, uint32(i%7), uint64(i%50)*4, sim.EvCycles)
			fed++
		}
	}
	var total uint64
	for cpu := 0; cpu < 2; cpu++ {
		for _, e := range d.FlushCPUAt(cpu, 0) {
			total += uint64(e.Count)
		}
	}
	if total != fed {
		t.Errorf("flushed counts sum to %d, want %d (no samples lost)", total, fed)
	}
	// Second flush is empty.
	for cpu := 0; cpu < 2; cpu++ {
		if extra := d.FlushCPUAt(cpu, 0); len(extra) != 0 {
			t.Errorf("second flush of CPU %d returned %d entries", cpu, len(extra))
		}
	}
}

// Property: counts are conserved for arbitrary access patterns, including
// buffer swaps (the notification plus final flush account for everything).
func TestConservationProperty(t *testing.T) {
	f := func(pcs []uint16, pids []uint8) bool {
		d := New(Config{NumCPUs: 1, Buckets: 2, OverflowEntries: 8})
		var kept uint64
		d.OnBufferFull = func(_ int, _ int64, full []Entry) bool {
			for _, e := range full {
				kept += uint64(e.Count)
			}
			return true
		}
		var fed uint64
		for i, pc := range pcs {
			pid := uint32(1)
			if len(pids) > 0 {
				pid = uint32(pids[i%len(pids)])
			}
			d.Record(0, pid, uint64(pc)*4, sim.EvCycles)
			fed++
		}
		for _, e := range d.FlushCPUAt(0, 0) {
			kept += uint64(e.Count)
		}
		return kept == fed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAggregationReducesDataRate(t *testing.T) {
	// Paper: "This typically reduces the data rate by a factor of 20 or
	// more." A loopy workload (few distinct PCs) must aggregate heavily.
	d := New(Config{NumCPUs: 1})
	const samples = 20000
	for i := 0; i < samples; i++ {
		d.Record(0, 7, uint64(i%40)*4, sim.EvCycles) // 40 hot PCs
	}
	entries := d.FlushCPUAt(0, 0)
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	factor := float64(samples) / float64(len(entries))
	if factor < 20 {
		t.Errorf("aggregation factor = %.1f, want >= 20", factor)
	}
}

func TestKernelMemoryBudget(t *testing.T) {
	// Default geometry should match the paper's 512KB per processor:
	// 16K-entry table + two 8K-entry buffers at 16 bytes each.
	d := New(Config{NumCPUs: 1})
	want := (16384 + 2*8192) * EntryBytes
	if got := d.KernelMemoryBytes(); got != want {
		t.Errorf("kernel memory = %d, want %d", got, want)
	}
	if want != 512*1024 {
		t.Errorf("default geometry = %d bytes, paper says 512KB", want)
	}
	d4 := New(Config{NumCPUs: 4})
	if d4.KernelMemoryBytes() != 4*want {
		t.Error("per-CPU memory not scaled")
	}
	if d4.NumCPUs() != 4 {
		t.Error("NumCPUs wrong")
	}
}

// --- §5.4 hash-table design points, replayed through the driver ---

// sample is the arguments of one Record call.
type sample struct {
	PID   uint32
	PC    uint64
	Event sim.Event
}

// syntheticTrace builds a trace with workload-like locality: a hot set
// revisited frequently plus a cold stream (like gcc's many short-lived
// contexts), using a deterministic generator.
func syntheticTrace(n int, hotPCs, pids int, coldFrac float64) []sample {
	trace := make([]sample, 0, n)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		k := sample{Event: sim.EvCycles}
		if float64(next()%1000)/1000 < coldFrac {
			k.PC = (next() % 1_000_000) * 4 // cold: effectively unique
			k.PID = uint32(next() % uint64(pids))
		} else {
			// Skewed hot-set popularity (min of two uniforms): a few PCs
			// dominate, as real sample streams do.
			a, b := next()%uint64(hotPCs), next()%uint64(hotPCs)
			if b < a {
				a = b
			}
			k.PC = a * 4
			k.PID = uint32(next() % uint64(pids))
		}
		trace = append(trace, k)
	}
	return trace
}

// designPoints is the §5.4 grid: Ways in {2, 4, 6, 8} x LRU x SwapToFront.
func designPoints() []Config {
	var out []Config
	for _, ways := range []int{2, 4, 6, 8} {
		for _, lru := range []bool{false, true} {
			for _, stf := range []bool{false, true} {
				out = append(out, Config{Ways: ways, LRU: lru, SwapToFront: stf})
			}
		}
	}
	return out
}

// replay records trace on a one-CPU driver built from cfg, with a consumer
// that accepts every full buffer, and returns the counts and the mean
// probe depth.
func replay(trace []sample, cfg Config) (Stats, float64) {
	cfg.NumCPUs = 1
	d := New(cfg)
	d.OnBufferFull = func(int, int64, []Entry) bool { return true }
	for _, k := range trace {
		d.Record(0, k.PID, k.PC, k.Event)
	}
	st := d.Stats(0)
	return st, float64(d.Probes(0)) / float64(st.Samples)
}

func TestHTSimHitRateTracksLocality(t *testing.T) {
	cfg := Config{Buckets: 512}
	hot, _ := replay(syntheticTrace(20000, 100, 2, 0.01), cfg)
	cold, _ := replay(syntheticTrace(20000, 100, 2, 0.8), cfg)
	if hot.MissRate() >= cold.MissRate() {
		t.Errorf("hot miss %.3f >= cold miss %.3f", hot.MissRate(), cold.MissRate())
	}
	if hot.MissRate() > 0.1 {
		t.Errorf("hot trace miss rate %.3f too high", hot.MissRate())
	}
}

func TestHTSimAssociativityHelps(t *testing.T) {
	// Same bucket count, more ways: fewer evictions under collisions.
	trace := syntheticTrace(50000, 3000, 8, 0.2)
	w4, _ := replay(trace, Config{Buckets: 1024})
	w6, _ := replay(trace, Config{Buckets: 1024, Ways: 6})
	if w6.Evictions >= w4.Evictions {
		t.Errorf("6-way evictions %d >= 4-way %d", w6.Evictions, w4.Evictions)
	}
}

func TestHTSimSwapToFrontReducesProbes(t *testing.T) {
	trace := syntheticTrace(50000, 600, 1, 0.02)
	_, plain := replay(trace, Config{Buckets: 64})
	_, stf := replay(trace, Config{Buckets: 64, SwapToFront: true})
	if stf >= plain {
		t.Errorf("swap-to-front probes %.2f >= plain %.2f", stf, plain)
	}
}

func TestHTSimLRUPolicy(t *testing.T) {
	trace := syntheticTrace(30000, 2000, 4, 0.3)
	rr, _ := replay(trace, Config{Buckets: 256})
	lru, _ := replay(trace, Config{Buckets: 256, LRU: true})
	// LRU should not be dramatically worse than round-robin on a local
	// trace; typically it is a bit better.
	if lru.MissRate() > rr.MissRate()*1.1 {
		t.Errorf("lru miss %.3f much worse than rr %.3f", lru.MissRate(), rr.MissRate())
	}
	if lru == rr {
		t.Error("LRU replay counted exactly what round-robin did")
	}
	// The least recent entry goes wherever swap-to-front has moved it: A, B,
	// A, C in one 2-way bucket evicts B, so the last A hits.
	for _, stf := range []bool{false, true} {
		d := New(Config{NumCPUs: 1, Buckets: 1, Ways: 2, LRU: true, SwapToFront: stf})
		for _, pc := range []uint64{0xa0, 0xb0, 0xa0, 0xc0, 0xa0} {
			d.Record(0, 1, pc, sim.EvCycles)
		}
		if st := d.Stats(0); st.Hits != 2 || st.Evictions != 1 {
			t.Errorf("swap-to-front %v: %d hits, %d evictions, want 2 and 1", stf, st.Hits, st.Evictions)
		}
	}
}

func TestHTSimStatsConsistency(t *testing.T) {
	trace := syntheticTrace(10000, 500, 3, 0.25)
	for _, cfg := range designPoints() {
		cfg.Buckets = 128
		st, probes := replay(trace, cfg)
		if st.Samples != 10000 {
			t.Errorf("%+v: samples = %d", cfg, st.Samples)
		}
		if st.Hits+st.Misses != st.Samples {
			t.Errorf("%+v: hits + misses != samples", cfg)
		}
		if st.Evictions > st.Misses {
			t.Errorf("%+v: evictions > misses", cfg)
		}
		if probes < 1 || probes > float64(cfg.Ways) {
			t.Errorf("%+v: avg probes = %.2f out of [1, %d]", cfg, probes, cfg.Ways)
		}
	}
}

func TestBackpressureDeferredThenRecovered(t *testing.T) {
	d := New(Config{NumCPUs: 1, Buckets: 1, OverflowEntries: 4})
	accept := false
	var delivered uint64
	d.OnBufferFull = func(_ int, _ int64, full []Entry) bool {
		if !accept {
			return false
		}
		for _, e := range full {
			delivered += uint64(e.Count)
		}
		return true
	}
	// Evictions flow once the single bucket's 4 ways fill; with the
	// consumer refusing, both buffers (2 x 4 entries) fill and further
	// evictions are dropped -- counted, not silent.
	var fed uint64
	for pc := uint64(0); pc < 30; pc++ {
		d.Record(0, 1, pc*8, sim.EvCycles)
		fed++
	}
	st := d.Stats(0)
	if st.Deferred == 0 {
		t.Fatal("refused deliveries not counted as Deferred")
	}
	if st.Lost == 0 {
		t.Fatal("no loss with both buffers full and a refusing consumer")
	}
	if st.LossRate() <= 0 || st.LossRate() >= 1 {
		t.Errorf("loss rate = %v", st.LossRate())
	}

	// Consumer recovers: the parked buffer is delivered on the next swap
	// attempt and no further samples are dropped.
	accept = true
	lostBefore := st.Lost
	for pc := uint64(100); pc < 130; pc++ {
		d.Record(0, 1, pc*8, sim.EvCycles)
		fed++
	}
	if d.Stats(0).Lost != lostBefore {
		t.Errorf("loss continued after consumer recovered: %d -> %d", lostBefore, d.Stats(0).Lost)
	}
	if delivered == 0 {
		t.Error("parked buffer never delivered after recovery")
	}

	var flushed uint64
	for _, e := range d.FlushCPUAt(0, 0) {
		flushed += uint64(e.Count)
	}
	st = d.Stats(0)
	if got := delivered + flushed + st.Lost; got != fed {
		t.Errorf("conservation: delivered %d + flushed %d + lost %d = %d, want %d",
			delivered, flushed, st.Lost, got, fed)
	}
}

func TestNilConsumerLossCounted(t *testing.T) {
	// The old code silently discarded the full active buffer when no
	// consumer was attached; now the drop is accounted in Stats.Lost and
	// conservation still holds through the final flush.
	d := New(Config{NumCPUs: 1, Buckets: 1, OverflowEntries: 4})
	var fed uint64
	for pc := uint64(0); pc < 40; pc++ {
		d.Record(0, 1, pc*8, sim.EvCycles)
		fed++
	}
	st := d.Stats(0)
	if st.Lost == 0 {
		t.Fatal("nil-consumer overflow not counted as Lost")
	}
	var flushed uint64
	for _, e := range d.FlushCPUAt(0, 0) {
		flushed += uint64(e.Count)
	}
	if flushed+st.Lost != fed {
		t.Errorf("conservation: flushed %d + lost %d != fed %d", flushed, st.Lost, fed)
	}
	if ts := d.TotalStats(); ts.Lost != st.Lost {
		t.Errorf("TotalStats.Lost = %d, want %d", ts.Lost, st.Lost)
	}
}

func TestFlushDuringRecordDirectPathLoss(t *testing.T) {
	// While the daemon flushes, samples bypass the hash table and go
	// directly to the overflow buffer; with a refusing consumer the direct
	// path hits the same both-buffers-full accounting.
	d := New(Config{NumCPUs: 1, OverflowEntries: 2})
	d.OnBufferFull = func(_ int, _ int64, _ []Entry) bool { return false }
	d.cpus[0].flushing = true
	for i := 0; i < 10; i++ {
		d.Record(0, 1, uint64(i)*8, sim.EvCycles)
	}
	st := d.Stats(0)
	if st.Direct != 10 {
		t.Errorf("direct = %d, want 10", st.Direct)
	}
	if st.Lost != 6 {
		t.Errorf("lost = %d, want 6 (2x2-entry buffers hold 4 of 10)", st.Lost)
	}
	d.cpus[0].flushing = false
	var kept uint64
	for _, e := range d.FlushCPUAt(0, 0) {
		kept += uint64(e.Count)
	}
	if kept+st.Lost != 10 {
		t.Errorf("conservation: kept %d + lost %d != 10", kept, st.Lost)
	}
}

// Property: counts are conserved for arbitrary access patterns even when the
// consumer refuses arbitrary subsets of deliveries -- every sample is
// delivered, flushed, or counted lost -- at every §5.4 design point.
func TestConservationWithRefusals(t *testing.T) {
	for _, cfg := range designPoints() {
		cfg.NumCPUs, cfg.Buckets, cfg.OverflowEntries = 1, 2, 8
		f := func(pcs []uint16, refuse []bool) bool {
			d := New(cfg)
			var delivered uint64
			calls := 0
			d.OnBufferFull = func(_ int, _ int64, full []Entry) bool {
				calls++
				if len(refuse) > 0 && refuse[calls%len(refuse)] {
					return false
				}
				for _, e := range full {
					delivered += uint64(e.Count)
				}
				return true
			}
			var fed uint64
			for _, pc := range pcs {
				d.Record(0, 1, uint64(pc)*4, sim.EvCycles)
				fed++
			}
			var flushed uint64
			for _, e := range d.FlushCPUAt(0, 0) {
				flushed += uint64(e.Count)
			}
			return delivered+flushed+d.Stats(0).Lost == fed
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}
