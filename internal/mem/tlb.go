package mem

// PageShift is the machine's page size: 8 KB, as on the Alpha 21164.
const PageShift = 13

// PageSize is the page size in bytes.
const PageSize = 1 << PageShift

// PageOf returns the virtual or physical page number of addr.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// keyHash spreads an (address space, page or region number) key over the
// memory path's tables: TLB, page mapper and sparse memory index by its low
// bits.
func keyHash(asn uint32, n uint64) uint64 {
	return (n ^ uint64(asn)<<32) * 0x9e3779b97f4a7c15 >> 32
}

// TLB is a fully associative translation buffer with LRU replacement,
// modeling the 21164's ITB/DTB. Entries are (ASN, virtual page) pairs so
// multiple address spaces can coexist without flushing.
//
// It is a fixed array searched linearly behind a table of most-recently-used
// slots: at 48–128 entries a scan of one small array beats hashing into a
// map, and nothing is allocated after NewTLB.
type TLB struct {
	entries []tlbEntry
	mru     [256]uint32 // by key hash: the slot that key was last found in, tried before the scan
	tick    uint64

	Hits   uint64
	Misses uint64
}

type tlbEntry struct {
	vpage uint64
	stamp uint64 // tick of the last use, unique per entry; 0 marks a free slot
	asn   uint32
}

// NewTLB builds a TLB with the given number of entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("mem: TLB capacity must be positive")
	}
	return &TLB{entries: make([]tlbEntry, capacity)}
}

// find returns the slot holding (asn, vpage) and true; or false and the slot
// a fill should take: the smallest stamp, which is a free slot (0) if there
// is one and the least recently used entry otherwise.
func (t *TLB) find(asn uint32, vpage uint64) (int, bool) {
	mru := &t.mru[keyHash(asn, vpage)%uint64(len(t.mru))]
	if e := &t.entries[*mru]; e.vpage == vpage && e.asn == asn && e.stamp != 0 {
		return int(*mru), true
	}
	victim, oldest := 0, ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if e.vpage == vpage && e.asn == asn && e.stamp != 0 {
			*mru = uint32(i)
			return i, true
		}
		if e.stamp < oldest {
			victim, oldest = i, e.stamp
		}
	}
	*mru = uint32(victim)
	return victim, false
}

// Lookup checks for (asn, vpage) and fills the entry on a miss, evicting the
// least recently used translation if full. It reports whether it hit.
func (t *TLB) Lookup(asn uint32, vpage uint64) bool {
	t.tick++
	i, hit := t.find(asn, vpage)
	if hit {
		t.Hits++
	} else {
		t.Misses++
		t.entries[i].vpage, t.entries[i].asn = vpage, asn
	}
	t.entries[i].stamp = t.tick
	return hit
}

// Probe reports whether (asn, vpage) is resident, without filling or
// touching recency or statistics.
func (t *TLB) Probe(asn uint32, vpage uint64) bool {
	_, hit := t.find(asn, vpage)
	return hit
}

// Len returns the number of resident translations.
func (t *TLB) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].stamp != 0 {
			n++
		}
	}
	return n
}

// Capacity returns the TLB's entry count.
func (t *TLB) Capacity() int { return len(t.entries) }
