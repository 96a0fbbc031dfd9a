package mem

// Reference-model equivalence for the memory path. The TLB, the page mapper
// and sparse memory used to be Go maps; the map forms were obviously right
// and slow. They live on here as the oracles: each test drives the old and
// the new form with one seeded random operation stream and demands the same
// answer from every call, so the simulator's output cannot tell them apart.

import (
	"bytes"
	"math/rand"
	"testing"
)

// refTLB is the map+stamp TLB the array form replaced, verbatim.
type refTLB struct {
	capacity     int
	entries      map[refKey]uint64 // -> recency stamp
	tick         uint64
	hits, misses uint64
}

type refKey struct {
	asn uint32
	n   uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, entries: map[refKey]uint64{}}
}

func (t *refTLB) lookup(asn uint32, vpage uint64) bool {
	t.tick++
	k := refKey{asn, vpage}
	if _, ok := t.entries[k]; ok {
		t.entries[k] = t.tick
		t.hits++
		return true
	}
	t.misses++
	if len(t.entries) >= t.capacity {
		var victim refKey
		oldest := ^uint64(0)
		for key, stamp := range t.entries {
			if stamp < oldest {
				victim, oldest = key, stamp
			}
		}
		delete(t.entries, victim)
	}
	t.entries[k] = t.tick
	return false
}

func (t *refTLB) probe(asn uint32, vpage uint64) bool {
	_, ok := t.entries[refKey{asn, vpage}]
	return ok
}

func TestTLBMatchesReferenceModel(t *testing.T) {
	asns := []uint32{0, 1, 2, 0x8000_0001}
	for _, capacity := range []int{1, 2, 3, 24, 48, 64, 128} {
		tlb, ref := NewTLB(capacity), newRefTLB(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		// Twice the capacity in pages, over four address spaces: the
		// stream hits, misses and evicts.
		pages := 2*capacity/len(asns) + 2
		for i := 0; i < 40000; i++ {
			asn, vpage := asns[rng.Intn(len(asns))], uint64(rng.Intn(pages))
			if rng.Intn(100) < 80 {
				if got, want := tlb.Lookup(asn, vpage), ref.lookup(asn, vpage); got != want {
					t.Fatalf("cap %d op %d: Lookup(%#x, %d) = %v, reference %v", capacity, i, asn, vpage, got, want)
				}
			} else if got, want := tlb.Probe(asn, vpage), ref.probe(asn, vpage); got != want {
				t.Fatalf("cap %d op %d: Probe(%#x, %d) = %v, reference %v", capacity, i, asn, vpage, got, want)
			}
			if tlb.Len() != len(ref.entries) || tlb.Hits != ref.hits || tlb.Misses != ref.misses {
				t.Fatalf("cap %d op %d: len/hits/misses = %d/%d/%d, reference %d/%d/%d", capacity, i,
					tlb.Len(), tlb.Hits, tlb.Misses, len(ref.entries), ref.hits, ref.misses)
			}
		}
		if ref.hits == 0 || ref.misses < uint64(capacity) {
			t.Fatalf("cap %d: degenerate stream, hits=%d misses=%d", capacity, ref.hits, ref.misses)
		}
	}
}

// refPageMapper is the map page mapper the region table replaced: the
// placement formula behind a memo. (The old memo folded asn and vpage into
// one uint64 and so could alias two keys; no address the simulator
// generates did. The reference keys on the pair.)
type refPageMapper struct {
	physPages, seed uint64
	next            map[refKey]uint64 // (asn, vpage) -> ppage
}

func (m *refPageMapper) translate(asn uint32, vaddr uint64) uint64 {
	vpage := PageOf(vaddr)
	k := refKey{asn, vpage}
	ppage, ok := m.next[k]
	if !ok {
		region := vpage / regionPages
		base := mix(m.seed^mix(uint64(asn)^region<<20)) % m.physPages
		ppage = (base + vpage%regionPages) % m.physPages
		m.next[k] = ppage
	}
	return ppage<<PageShift | vaddr&(PageSize-1)
}

func TestPageMapperMatchesReferenceModel(t *testing.T) {
	const kernelBase = 1 << 40 // loader.KernelBase
	rng := rand.New(rand.NewSource(3))
	for _, physPages := range []uint64{1, 7, regionPages - 1, regionPages + 1, 1 << 16, 1<<40 + 3} {
		for _, seed := range []uint64{0, 1, rng.Uint64()} {
			m := NewPageMapper(physPages, seed)
			ref := &refPageMapper{physPages: physPages, seed: seed, next: map[refKey]uint64{}}
			if seed == 0 {
				ref.seed = 0x9e3779b97f4a7c15
			}
			for i := 0; i < 20000; i++ {
				var asn uint32
				var vaddr uint64
				switch rng.Intn(5) {
				case 0: // image text: small offsets under a text ASN
					asn, vaddr = 0x8000_0000|uint32(rng.Intn(4)), uint64(rng.Intn(4<<20))
				case 1: // kernel space, shared by every process
					asn, vaddr = 0, kernelBase+uint64(rng.Intn(300<<20))
				case 2: // user data: enough regions to grow the table several times
					asn, vaddr = uint32(1+rng.Intn(3)), 0x1_2000_0000+uint64(rng.Intn(200<<20))
				case 3: // a few hot pages, revisited
					asn, vaddr = 1, 0x1_4000_0000+uint64(rng.Intn(3*PageSize))
				default:
					asn, vaddr = rng.Uint32(), rng.Uint64()
				}
				if got, want := m.Translate(asn, vaddr), ref.translate(asn, vaddr); got != want {
					t.Fatalf("phys %d seed %#x: Translate(%#x, %#x) = %#x, reference %#x", physPages, seed, asn, vaddr, got, want)
				}
				if m.MappedPages() != len(ref.next) {
					t.Fatalf("phys %d seed %#x op %d: MappedPages = %d, reference %d distinct pages", physPages, seed, i, m.MappedPages(), len(ref.next))
				}
			}
		}
	}
}

// refSparse is byte-addressed memory with no pages at all. Written bytes
// are kept even when zero, so the pages the real memory must hold are the
// distinct pages of the keys.
type refSparse map[uint64]byte

func (r refSparse) load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(r[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (r refSparse) store(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		r[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func (r refSparse) pages() int {
	distinct := map[uint64]bool{}
	for addr := range r {
		distinct[PageOf(addr)] = true
	}
	return len(distinct)
}

func TestSparseMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, ref := NewSparse(), refSparse{}
	// 200 pages, some a multiple of the page cache's size apart, so cache
	// slots are shared and refilled; half of all accesses sit within 8
	// bytes of a page boundary, on either side.
	addr := func() uint64 {
		a := 0x1_4000_0000 + uint64(rng.Intn(200))<<PageShift
		if rng.Intn(2) == 0 {
			return a + uint64(rng.Intn(16)) - 8
		}
		return a + uint64(rng.Intn(PageSize))
	}
	spans := []int{0, 1, PageSize - 1, PageSize, PageSize + 1, 3 * PageSize}
	for i := 0; i < 30000; i++ {
		a, size := addr(), 1<<rng.Intn(4)
		switch op := rng.Intn(100); {
		case op < 30:
			val := rng.Uint64()
			s.Store(a, size, val)
			ref.store(a, size, val)
		case op < 90:
			// One load in three goes to a region never written: it must
			// read zero and leave no page behind (checked below).
			if op < 50 {
				a += 1 << 32
			}
			if got, want := s.Load(a, size), ref.load(a, size); got != want {
				t.Fatalf("op %d: Load(%#x, %d) = %#x, reference %#x", i, a, size, got, want)
			}
		case op < 92:
			b := make([]byte, spans[rng.Intn(len(spans))])
			rng.Read(b)
			s.WriteBytes(a, b)
			for j, c := range b {
				ref[a+uint64(j)] = c
			}
		default:
			n := spans[rng.Intn(len(spans))]
			if op < 96 {
				a += 1 << 32 // never written
			}
			want := make([]byte, n)
			for j := range want {
				want[j] = ref[a+uint64(j)]
			}
			if got := s.ReadBytes(a, n); !bytes.Equal(got, want) {
				t.Fatalf("op %d: ReadBytes(%#x, %d) differs from reference", i, a, n)
			}
		}
		if i%3000 == 0 || i == 29999 {
			if got, want := s.Pages(), ref.pages(); got != want {
				t.Fatalf("op %d: Pages = %d, reference %d", i, got, want)
			}
		}
	}
}
