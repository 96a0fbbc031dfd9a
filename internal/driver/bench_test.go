package driver

import (
	"testing"

	"dcpi/internal/sim"
)

// BenchmarkRecordHit measures the handler fast path: the common case of a
// hash-table hit (the paper engineered this path to stay under ~450 Alpha
// cycles; here we measure the Go implementation's wall time).
func BenchmarkRecordHit(b *testing.B) {
	d := New(Config{NumCPUs: 1})
	d.Record(0, 7, 0x1000, sim.EvCycles)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Record(0, 7, 0x1000, sim.EvCycles)
	}
}

// TestRecordHitDoesNotAllocate pins the handler fast path — the sample's
// key is already in the hash table — at zero allocations, as a tier-1
// assertion rather than a benchmark column: at the shipping table, and with
// LRU stamps and swap-to-front, where two keys sharing the one bucket
// alternate so that every hit is swapped to the front.
func TestRecordHitDoesNotAllocate(t *testing.T) {
	for _, cfg := range []Config{{}, {SwapToFront: true}, {LRU: true}, {LRU: true, SwapToFront: true}} {
		cfg.NumCPUs, cfg.Buckets = 1, 1
		d := New(cfg)
		d.RecordAt(0, 7, 0x1000, sim.EvCycles, 1)
		d.RecordAt(0, 7, 0x2000, sim.EvCycles, 1)
		clock := int64(1)
		if n := testing.AllocsPerRun(1000, func() {
			clock += 64
			d.RecordAt(0, 7, 0x2000-uint64(clock&64)*64, sim.EvCycles, clock)
		}); n != 0 {
			t.Errorf("%+v: RecordAt allocates %v times per hit, want 0", cfg, n)
		}
		st := d.Stats(0)
		if st.Misses != 2 || st.Hits < 1000 {
			t.Errorf("%+v: stats = %+v, want two misses and the rest hits", cfg, st)
		}
		if cfg.SwapToFront && d.Probes(0) != 2*st.Hits+2*DefaultWays {
			t.Errorf("%+v: %d probes for %d hits: hits were not found in way 1 and swapped", cfg, d.Probes(0), st.Hits)
		}
	}
}

// BenchmarkRecordWorkload measures a realistic mixed stream with evictions.
func BenchmarkRecordWorkload(b *testing.B) {
	d := New(Config{NumCPUs: 1})
	trace := syntheticTrace(1<<16, 2000, 8, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := trace[i&(1<<16-1)]
		d.Record(0, k.PID, k.PC, k.Event)
	}
	b.StopTimer()
	st := d.Stats(0)
	b.ReportMetric(100*st.MissRate(), "miss-%")
}

// BenchmarkFlush measures the daemon-side hash-table drain.
func BenchmarkFlush(b *testing.B) {
	d := New(Config{NumCPUs: 1})
	for i := 0; i < 16384; i++ {
		d.Record(0, 1, uint64(i)*4, sim.EvCycles)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FlushCPUAt(0, 0)
		b.StopTimer()
		for j := 0; j < 16384; j++ {
			d.Record(0, 1, uint64(j)*4, sim.EvCycles)
		}
		b.StartTimer()
	}
}
