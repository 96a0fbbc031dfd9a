package mem

import (
	"testing"
	"testing/quick"
)

func TestCacheDirectMapped(t *testing.T) {
	c := NewCache(CacheConfig{Name: "l1", Size: 256, LineSize: 32, Assoc: 1}) // 8 sets
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) || !c.Access(31) {
		t.Error("same-line access missed")
	}
	if c.Access(32) {
		t.Error("next line hit cold")
	}
	// 0 and 256 conflict in a 256-byte direct-mapped cache.
	c.Access(256)
	if c.Probe(0) {
		t.Error("conflicting line not evicted")
	}
	if c.Hits != 2 {
		t.Errorf("hits = %d, want 2", c.Hits)
	}
	if c.Misses != 3 {
		t.Errorf("misses = %d, want 3", c.Misses)
	}
}

func TestCacheAssociativity(t *testing.T) {
	c := NewCache(CacheConfig{Name: "l1", Size: 512, LineSize: 32, Assoc: 2}) // 8 sets, 2-way
	// Three lines mapping to set 0: 0, 256, 512.
	c.Access(0)
	c.Access(256)
	if !c.Probe(0) || !c.Probe(256) {
		t.Fatal("2-way set should hold both lines")
	}
	c.Access(0) // make line 0 most recent
	c.Access(512)
	if c.Probe(256) {
		t.Error("LRU victim should have been line 256")
	}
	if !c.Probe(0) {
		t.Error("most-recent line evicted")
	}
}

func TestCacheMissRate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "l1", Size: 256, LineSize: 32, Assoc: 1})
	if c.Accesses() != 0 {
		t.Error("empty cache counts accesses")
	}
	c.Access(0)
	c.Access(0)
	if c.Hits != 1 || c.Misses != 1 || c.Accesses() != 2 {
		t.Errorf("hits/misses/accesses = %d/%d/%d, want 1/1/2", c.Hits, c.Misses, c.Accesses())
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "x", Size: 0, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 256, LineSize: 33, Assoc: 1},
		{Name: "x", Size: 100, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 64, LineSize: 4, Assoc: 1}, // below the 8-byte minimum
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	good := CacheConfig{Name: "x", Size: 8192, LineSize: 32, Assoc: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v: %v", good, err)
	}
}

// Property: a probe immediately after an access always hits.
func TestCacheAccessThenProbe(t *testing.T) {
	c := NewCache(CacheConfig{Name: "p", Size: 4096, LineSize: 64, Assoc: 2})
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Probe(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBBasic(t *testing.T) {
	tlb := NewTLB(2)
	if tlb.Lookup(1, 10) {
		t.Error("cold lookup hit")
	}
	if !tlb.Lookup(1, 10) {
		t.Error("warm lookup missed")
	}
	tlb.Lookup(1, 11)
	tlb.Lookup(1, 10) // refresh 10
	tlb.Lookup(1, 12) // evicts 11 (LRU)
	if !tlb.Lookup(1, 10) {
		t.Error("recently used entry evicted")
	}
	if tlb.Lookup(1, 11) {
		t.Error("LRU entry survived")
	}
}

func TestTLBASNIsolation(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Lookup(1, 10)
	if tlb.Lookup(2, 10) {
		t.Error("different ASN should miss")
	}
	if !tlb.Probe(1, 10) || !tlb.Probe(2, 10) || tlb.Len() != 2 {
		t.Error("one page of two address spaces must hold two entries")
	}
}

func TestTLBNeverExceedsCapacity(t *testing.T) {
	tlb := NewTLB(4)
	for vp := uint64(0); vp < 100; vp++ {
		tlb.Lookup(0, vp)
		if tlb.Len() > 4 {
			t.Fatalf("TLB grew to %d entries", tlb.Len())
		}
	}
	if tlb.Hits != 0 || tlb.Misses != 100 {
		t.Errorf("all-distinct stream: %d hits, %d misses", tlb.Hits, tlb.Misses)
	}
}

func TestWriteBufferMergesSameLine(t *testing.T) {
	wb := NewWriteBuffer(6, 100)
	if stall := wb.Store(1, 0); stall != 0 {
		t.Errorf("first store stalled %d", stall)
	}
	if stall := wb.Store(1, 1); stall != 0 {
		t.Errorf("same-line store stalled %d", stall)
	}
	if wb.Merges != 1 {
		t.Errorf("merges = %d, want 1", wb.Merges)
	}
	if wb.Len(1) != 1 {
		t.Errorf("len = %d, want 1", wb.Len(1))
	}
}

func TestWriteBufferOverflowStalls(t *testing.T) {
	wb := NewWriteBuffer(2, 100)
	wb.Store(1, 0) // retires at 100
	wb.Store(2, 0) // retires at 200
	stall := wb.Store(3, 0)
	if stall != 100 {
		t.Errorf("overflow stall = %d, want 100", stall)
	}
	if wb.Overflows != 1 {
		t.Errorf("overflows = %d", wb.Overflows)
	}
	// After stalling to t=100, entry 1 retired; buffer holds 2 and 3.
	if wb.Len(100) != 2 {
		t.Errorf("len(100) = %d, want 2", wb.Len(100))
	}
}

func TestWriteBufferDrainsOverTime(t *testing.T) {
	wb := NewWriteBuffer(6, 50)
	for i := uint64(0); i < 6; i++ {
		wb.Store(i, 0)
	}
	if wb.Len(0) != 6 {
		t.Fatalf("len = %d", wb.Len(0))
	}
	if wb.Len(125) != 4 { // entries retire at 50, 100, 150...
		t.Errorf("len(125) = %d, want 4", wb.Len(125))
	}
	if wb.Len(301) != 0 {
		t.Errorf("len(301) = %d, want 0", wb.Len(301))
	}
	// A store arriving late incurs no stall.
	if stall := wb.Store(9, 1000); stall != 0 {
		t.Errorf("late store stalled %d", stall)
	}
}

func TestWriteBufferDrainAll(t *testing.T) {
	wb := NewWriteBuffer(6, 50)
	wb.Store(1, 0)
	wb.Store(2, 0)
	stall := wb.DrainAll(10)
	if stall != 90 { // last retires at 100
		t.Errorf("drain stall = %d, want 90", stall)
	}
	if wb.Len(10) != 0 {
		t.Error("drain left entries")
	}
	if wb.DrainAll(10) != 0 {
		t.Error("empty drain stalled")
	}
}

// TestWriteBufferDoesNotAllocate holds the buffer to its fixed ring: a
// steady stream of stores — one every 40 units into six entries that take
// 120 each to drain, so the buffer fills and stalls — allocates nothing
// once the buffer is built.
func TestWriteBufferDoesNotAllocate(t *testing.T) {
	wb := NewWriteBuffer(6, 120)
	now, line := int64(0), uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			line++
			now += 40 + wb.Store(line, now)
		}
	})
	if allocs != 0 {
		t.Errorf("100 stores allocate %v times, want 0", allocs)
	}
	if wb.Overflows == 0 {
		t.Error("the stream never filled the buffer")
	}
}

// Property: a saturated stream of distinct-line stores stalls at the drain
// rate: N stores cost at least (N - capacity) * drainLatency total stall.
func TestWriteBufferSaturationProperty(t *testing.T) {
	const cap, lat, n = 6, 50, 100
	wb := NewWriteBuffer(cap, lat)
	now := int64(0)
	var total int64
	for i := 0; i < n; i++ {
		s := wb.Store(uint64(i), now)
		total += s
		now += s + 1 // 1 unit of issue time per store
	}
	min := int64((n - cap) * lat * 9 / 10)
	if total < min {
		t.Errorf("saturation stall = %d, want >= %d", total, min)
	}
}

func TestPredictorLearnsLoop(t *testing.T) {
	p := NewPredictor(16)
	pc := uint64(0x1000)
	// A loop branch taken 99 times then not taken; after warmup the
	// predictor should be right on every taken iteration.
	var wrongTaken int
	for i := 0; i < 100; i++ {
		taken := i < 99
		if p.Update(pc, taken) && taken && i > 2 {
			wrongTaken++
		}
	}
	if wrongTaken != 0 {
		t.Errorf("mispredicted %d warm taken branches", wrongTaken)
	}
	if p.Mispredicts == 0 {
		t.Error("loop exit should mispredict at least once")
	}
}

func TestPredictorAlternatingWorstCase(t *testing.T) {
	p := NewPredictor(16)
	pc := uint64(0x2000)
	for i := 0; i < 100; i++ {
		p.Update(pc, i%2 == 0)
	}
	if p.Predictions != 100 || p.Mispredicts < 40 {
		t.Errorf("alternating pattern: %d mispredicts in %d, want high", p.Mispredicts, p.Predictions)
	}
}

func TestPredictorIndexSeparation(t *testing.T) {
	p := NewPredictor(1024)
	// Train pc A taken; pc B (different index) should stay not-taken.
	a, b := uint64(0x1000), uint64(0x1004)
	for i := 0; i < 4; i++ {
		p.Update(a, true)
	}
	if p.Update(a, true) {
		t.Error("trained branch predicts not-taken")
	}
	if p.Update(b, false) {
		t.Error("untouched branch predicts taken")
	}
}

func TestPageMapperDeterministicPerSeed(t *testing.T) {
	m1 := NewPageMapper(1024, 42)
	m2 := NewPageMapper(1024, 42)
	m3 := NewPageMapper(1024, 43)
	var differ bool
	for va := uint64(0); va < 100*PageSize; va += PageSize {
		p1 := m1.Translate(1, va)
		p2 := m2.Translate(1, va)
		p3 := m3.Translate(1, va)
		if p1 != p2 {
			t.Fatalf("same seed diverged at %#x", va)
		}
		if p1 != p3 {
			differ = true
		}
	}
	if !differ {
		t.Error("different seeds produced identical mappings")
	}
}

func TestPageMapperStableWithinRun(t *testing.T) {
	m := NewPageMapper(64, 7)
	a := m.Translate(1, 0x5000)
	b := m.Translate(1, 0x5008)
	if PageOf(a) != PageOf(b) {
		t.Error("same virtual page translated to different physical pages")
	}
	if a2 := m.Translate(1, 0x5000); a2 != a {
		t.Error("translation not stable")
	}
	if m.MappedPages() != 1 {
		t.Errorf("mapped pages = %d", m.MappedPages())
	}
}

func TestPageMapperOffsetPreserved(t *testing.T) {
	m := NewPageMapper(64, 7)
	f := func(va uint64) bool {
		pa := m.Translate(3, va)
		return pa&(PageSize-1) == va&(PageSize-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparseRoundTrip(t *testing.T) {
	s := NewSparse()
	s.Store(0x1000, 8, 0xdeadbeefcafe)
	if got := s.Load(0x1000, 8); got != 0xdeadbeefcafe {
		t.Errorf("load = %#x", got)
	}
	if got := s.Load(0x1000, 4); got != 0xbeefcafe {
		t.Errorf("partial load = %#x", got)
	}
	if got := s.Load(0x9999999, 8); got != 0 {
		t.Errorf("unmapped load = %#x", got)
	}
}

func TestSparseCrossPageAccess(t *testing.T) {
	s := NewSparse()
	addr := uint64(PageSize - 4)
	s.Store(addr, 8, 0x1122334455667788)
	if got := s.Load(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page load = %#x", got)
	}
	if s.Pages() != 2 {
		t.Errorf("pages = %d, want 2", s.Pages())
	}
}

func TestSparseBytes(t *testing.T) {
	s := NewSparse()
	s.WriteBytes(100, []byte("hello"))
	if got := string(s.ReadBytes(100, 5)); got != "hello" {
		t.Errorf("bytes = %q", got)
	}
}

// Property: Store then Load round-trips for any address and value.
func TestSparseProperty(t *testing.T) {
	s := NewSparse()
	f := func(addr uint64, val uint64) bool {
		addr &= 1<<40 - 1 // keep page count bounded
		s.Store(addr, 8, val)
		return s.Load(addr, 8) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
