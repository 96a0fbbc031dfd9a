package mem

import (
	"math/rand"
	"testing"
)

// memStream is a seeded address stream in two address spaces over a
// 4096-page footprint: hot of every ten accesses go to 8 hot pages, the rest
// are spread uniformly. hot=9 is the shape bench/ drives the ledger's
// mem.* metrics with; hot=0 misses a 64-entry TLB nearly always.
func memStream(n, hot int) (asns []uint32, addrs []uint64) {
	rng := rand.New(rand.NewSource(12))
	asns, addrs = make([]uint32, n), make([]uint64, n)
	for i := range addrs {
		page := uint64(rng.Intn(4096))
		if rng.Intn(10) < hot {
			page = uint64(rng.Intn(8))
		}
		addrs[i] = 0x1_0000_0000 + page<<PageShift + uint64(rng.Intn(PageSize/8))*8
		asns[i] = uint32(1 + rng.Intn(2))
	}
	return asns, addrs
}

const streamLen = 1 << 14

var sink uint64

func BenchmarkTLBLookup(b *testing.B) {
	for _, bc := range []struct {
		name string
		hot  int
	}{{"hit-heavy", 9}, {"miss-heavy", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			asns, addrs := memStream(streamLen, bc.hot)
			tlb := NewTLB(64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % streamLen
				tlb.Lookup(asns[j], PageOf(addrs[j]))
			}
			b.ReportMetric(float64(tlb.Misses)/float64(tlb.Hits+tlb.Misses), "miss-rate")
		})
	}
}

func BenchmarkTranslate(b *testing.B) {
	asns, addrs := memStream(streamLen, 9)
	m := NewPageMapper(1<<16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % streamLen
		sink += m.Translate(asns[j], addrs[j])
	}
}

func BenchmarkSparseLoadStore(b *testing.B) {
	_, addrs := memStream(streamLen, 9)
	s := NewSparse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := addrs[i%streamLen]; i%4 == 0 {
			s.Store(a, 8, uint64(i))
		} else {
			sink += s.Load(a, 8)
		}
	}
}

// TestMemoryPathAllocs pins the steady state of the per-instruction memory
// path at zero allocations: once the footprint has been touched, TLB
// lookups (hits, misses and evictions), translations and sparse accesses
// allocate nothing.
func TestMemoryPathAllocs(t *testing.T) {
	asns, addrs := memStream(streamLen, 5)
	tlb, m, s := NewTLB(64), NewPageMapper(1<<16, 1), NewSparse()
	pass := func() {
		for j, a := range addrs {
			tlb.Lookup(asns[j], PageOf(a))
			tlb.Probe(asns[j]^3, PageOf(a))
			sink += m.Translate(asns[j], a)
			small := a & (1<<21 - 1) // 256 pages keep the test's footprint at 2 MB
			s.Store(small, 8, a)
			sink += s.Load(small^1<<20, 4)
		}
	}
	pass() // first touch allocates pages and grows the region table
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("memory path allocates %v times per pass in steady state, want 0", n)
	}
	// The case every fetch and every data access of the simulator is: one
	// translation of a page already handed out.
	if n := testing.AllocsPerRun(1000, func() { sink += m.Translate(asns[0], addrs[0]) }); n != 0 {
		t.Errorf("Translate allocates %v times on a touched page, want 0", n)
	}
}
