package mem

// Geometry backfill: before hw.Config, every simulated machine used the
// 21164's fixed direct-mapped 32-byte-line caches and 48/64-entry TLBs, so
// associative victim choice, set indexing at other line sizes, and
// off-default TLB capacities had no coverage beyond the basics. The what-if
// grid builds those machines for real; these tests pin the behavior it
// relies on.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCache is an obviously-correct reference model of a set-associative
// LRU cache: per-set slices ordered most-recent-first.
type refCache struct {
	lineShift uint
	sets      uint64
	assoc     int
	ways      map[uint64][]uint64 // set -> lines, most recent first
}

func newRefCache(cfg CacheConfig) *refCache {
	r := &refCache{assoc: cfg.Assoc, ways: map[uint64][]uint64{}}
	for 1<<r.lineShift != cfg.LineSize {
		r.lineShift++
	}
	r.sets = uint64(cfg.Size / (cfg.LineSize * cfg.Assoc))
	return r
}

func (r *refCache) access(addr uint64) bool {
	line := addr >> r.lineShift
	set := line % r.sets
	ways := r.ways[set]
	for i, l := range ways {
		if l == line { // hit: move to front
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	ways = append([]uint64{line}, ways...)
	if len(ways) > r.assoc { // evict LRU (the back)
		ways = ways[:r.assoc]
	}
	r.ways[set] = ways
	return false
}

// probe reports whether addr's line is resident, changing nothing.
func (r *refCache) probe(addr uint64) bool {
	line := addr >> r.lineShift
	for _, l := range r.ways[line%r.sets] {
		if l == line {
			return true
		}
	}
	return false
}

// TestCacheMatchesReferenceLRU drives Cache and the reference model with
// the same random streams of accesses and probes across several geometries
// (including non-default line sizes, and the default machine's direct-mapped
// caches) and demands hit-for-hit agreement — in particular that the victim
// of every eviction is the true LRU way.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	geoms := []CacheConfig{
		{Name: "2way", Size: 1 << 10, LineSize: 32, Assoc: 2},
		{Name: "4way64", Size: 4 << 10, LineSize: 64, Assoc: 4},
		{Name: "8way16", Size: 2 << 10, LineSize: 16, Assoc: 8},
		{Name: "full", Size: 512, LineSize: 64, Assoc: 8}, // single set: fully associative
		// The default machine's three caches (hw.Default), all direct mapped.
		{Name: "icache", Size: 8 << 10, LineSize: 32, Assoc: 1},
		{Name: "dcache", Size: 8 << 10, LineSize: 32, Assoc: 1},
		{Name: "board", Size: 2 << 20, LineSize: 64, Assoc: 1},
		{Name: "direct16", Size: 1 << 10, LineSize: 16, Assoc: 1},
	}
	for _, cfg := range geoms {
		t.Run(cfg.Name, func(t *testing.T) {
			c := NewCache(cfg)
			ref := newRefCache(cfg)
			rng := rand.New(rand.NewSource(42))
			// Fresh addresses come from two windows four times the cache's
			// size, chosen to generate plenty of set conflicts: one from 0,
			// one ending at 2^64-1, where the tag array holds its largest
			// line+1. Half the stream revisits a recent address's
			// neighbourhood, so even the 2 MB board cache hits.
			span := uint64(cfg.Size * 4)
			var recent [16]uint64
			for i := 0; i < 20000; i++ {
				var addr uint64
				switch rng.Intn(4) {
				case 0:
					addr = rng.Uint64() % span
				case 1:
					addr = -span + rng.Uint64()%span
				default:
					addr = recent[rng.Intn(len(recent))] + uint64(rng.Intn(2*cfg.LineSize))
				}
				if rng.Intn(4) == 0 {
					if got, want := c.Probe(addr), ref.probe(addr); got != want {
						t.Fatalf("step %d: probe %#x: cache says hit=%v, reference says %v",
							i, addr, got, want)
					}
					continue
				}
				recent[i%len(recent)] = addr
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("step %d: access %#x: cache says hit=%v, reference says %v",
						i, addr, got, want)
				}
			}
			if c.Misses == 0 || c.Hits == 0 {
				t.Fatalf("degenerate stream: hits=%d misses=%d", c.Hits, c.Misses)
			}
		})
	}
}

// TestCacheSetIndexingAtNonDefaultLineSizes checks the index arithmetic
// directly: with line size L and S sets, addr and addr+S*L share a set
// (and conflict in a direct-mapped cache) while addr+L lands in the next
// set and must not interfere.
func TestCacheSetIndexingAtNonDefaultLineSizes(t *testing.T) {
	for _, lineSize := range []int{16, 64, 128} {
		c := NewCache(CacheConfig{Name: "l1", Size: 16 * lineSize, LineSize: lineSize, Assoc: 1})
		sets := uint64(16)
		stride := sets * uint64(lineSize)
		c.Access(0)
		c.Access(uint64(lineSize)) // neighboring set: no conflict
		if !c.Probe(0) {
			t.Errorf("line %d: neighboring set evicted set 0", lineSize)
		}
		c.Access(stride) // same set: conflict
		if c.Probe(0) {
			t.Errorf("line %d: same-set line at +%d did not evict", lineSize, stride)
		}
		if !c.Probe(uint64(lineSize)) {
			t.Errorf("line %d: conflict in set 0 disturbed set 1", lineSize)
		}
		// Last byte of a line belongs to it; first byte of the next doesn't.
		c2 := NewCache(CacheConfig{Name: "b", Size: 16 * lineSize, LineSize: lineSize, Assoc: 1})
		c2.Access(uint64(lineSize - 1))
		if !c2.Probe(0) {
			t.Errorf("line %d: byte %d not in line 0", lineSize, lineSize-1)
		}
		if c2.Probe(uint64(lineSize)) {
			t.Errorf("line %d: byte %d leaked into the next line", lineSize, lineSize)
		}
	}
}

// TestCacheLRUVictimAcrossWays pins the victim choice in a 4-way set: the
// least recently *used* way goes, not the oldest-filled.
func TestCacheLRUVictimAcrossWays(t *testing.T) {
	// 4 ways, 4 sets of 32B lines.
	c := NewCache(CacheConfig{Name: "l1", Size: 512, LineSize: 32, Assoc: 4})
	stride := uint64(4 * 32) // same-set stride
	for i := uint64(0); i < 4; i++ {
		c.Access(i * stride) // fill ways with lines 0,1,2,3 of set 0
	}
	// Touch everything except line 1 — line 1 becomes LRU despite not
	// being the oldest fill.
	c.Access(0 * stride)
	c.Access(2 * stride)
	c.Access(3 * stride)
	c.Access(4 * stride) // fifth line: evicts line 1
	if c.Probe(1 * stride) {
		t.Error("LRU way survived eviction")
	}
	for _, i := range []uint64{0, 2, 3, 4} {
		if !c.Probe(i * stride) {
			t.Errorf("recently used line %d evicted", i)
		}
	}
}

// TestTLBNonDefaultCapacities exercises the TLB away from the 21164's
// 48/64 entries, as the itb-half/dtb-half grid points configure it.
func TestTLBNonDefaultCapacities(t *testing.T) {
	for _, capacity := range []int{1, 3, 24, 128} {
		tlb := NewTLB(capacity)
		if tlb.Capacity() != capacity {
			t.Fatalf("capacity = %d, want %d", tlb.Capacity(), capacity)
		}
		for p := 0; p < capacity; p++ {
			if tlb.Lookup(1, uint64(p)) {
				t.Fatalf("cap %d: cold fill of page %d hit", capacity, p)
			}
		}
		if tlb.Len() != capacity {
			t.Fatalf("cap %d: %d resident after fill", capacity, tlb.Len())
		}
		// Refresh page 0 so page 1 (or page 0 itself at capacity 1) is LRU.
		tlb.Lookup(1, 0)
		tlb.Lookup(1, uint64(capacity)) // one past capacity: evicts the LRU
		if tlb.Len() != capacity {
			t.Errorf("cap %d: %d resident after eviction", capacity, tlb.Len())
		}
		victim := uint64(1)
		if capacity == 1 {
			victim = 0
		}
		if tlb.Probe(1, victim) {
			t.Errorf("cap %d: LRU page %d survived", capacity, victim)
		}
		if capacity > 1 && !tlb.Probe(1, 0) {
			t.Errorf("cap %d: recently used page 0 evicted", capacity)
		}
	}
}

// TestWriteBufferZeroDrain: drainLatency 0 is the ideal write path of the
// wb-zero grid point — entries retire instantly, so the buffer never
// fills and no store ever stalls, even a long burst to distinct lines.
func TestWriteBufferZeroDrain(t *testing.T) {
	wb := NewWriteBuffer(6, 0)
	for i := uint64(0); i < 1000; i++ {
		if stall := wb.Store(i, 5); stall != 0 {
			t.Fatalf("store %d stalled %d with zero drain latency", i, stall)
		}
	}
	if wb.Overflows != 0 {
		t.Errorf("overflows = %d, want 0", wb.Overflows)
	}
	if wb.Len(5) != 0 {
		t.Errorf("len = %d, want 0 (instant retirement)", wb.Len(5))
	}
	if stall := wb.DrainAll(5); stall != 0 {
		t.Errorf("barrier stalled %d on an empty buffer", stall)
	}
	// Zero capacity is still rejected.
	defer func() {
		if recover() == nil {
			t.Error("NewWriteBuffer accepted zero capacity")
		}
	}()
	NewWriteBuffer(0, 0)
}

// Property: the model cache and reference agree on arbitrary quick-check
// streams too (shorter than the seeded soak above, but with adversarial
// value distribution from testing/quick).
func TestCacheReferenceQuick(t *testing.T) {
	cfg := CacheConfig{Name: "q", Size: 1 << 10, LineSize: 64, Assoc: 2}
	c := NewCache(cfg)
	ref := newRefCache(cfg)
	f := func(addr uint64) bool {
		return c.Access(addr) == ref.access(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
