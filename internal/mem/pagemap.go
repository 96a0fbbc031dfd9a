package mem

// PageMapper assigns physical pages to virtual pages on first touch,
// modeling the operating system's page placement: each 1MB virtual region
// receives a contiguous physical run starting at a (seeded) pseudo-random
// base. Contiguity matters: with physically indexed caches, two large
// arrays then conflict wholesale or not at all depending on where their
// runs landed, which is exactly the run-to-run variance the paper's wave5
// study (§3.3) attributes to virtual-to-physical mapping differences.
//
// Placement is a pure function of (seed, asn, vpage), so the mapper keeps
// only one record per touched region: its base, memoised, and which of its
// pages were handed out. The records live in an open-addressed hash table
// (linear probing, at most half full): a translation is one multiply, one
// compare and a bit test, with no eviction that could lose a touched bit.
type PageMapper struct {
	physPages uint64
	seed      uint64
	table     []region // len is a power of two
	regions   int      // live records in table
	pages     int
}

// region is one touched (asn, 1MB region) pair.
type region struct {
	num     uint64                   // vpage / regionPages
	base    uint64                   // physical page of the region's page 0
	touched [regionPages / 64]uint64 // pages assigned so far, one bit each
	asn     uint32
	live    bool
}

// regionPages is the contiguous-allocation granularity (128 pages = 1MB).
const regionPages = 128

// NewPageMapper creates a mapper over physPages physical pages using seed
// for placement. Different seeds model different runs.
func NewPageMapper(physPages uint64, seed uint64) *PageMapper {
	if physPages == 0 {
		panic("mem: need at least one physical page")
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &PageMapper{physPages: physPages, seed: seed, table: make([]region, 64)}
}

// mix is a splitmix64-style hash used to place each region's base.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slot returns the record of (asn, num), or the free slot where it belongs.
func (m *PageMapper) slot(asn uint32, num uint64) *region {
	mask := uint64(len(m.table) - 1)
	for i := keyHash(asn, num); ; i++ {
		r := &m.table[i&mask]
		if !r.live || (r.num == num && r.asn == asn) {
			return r
		}
	}
}

// Translate returns the physical address for (asn, vaddr), assigning a
// physical page on first touch: contiguous within each 1MB region, with a
// seeded pseudo-random region base.
func (m *PageMapper) Translate(asn uint32, vaddr uint64) uint64 {
	vpage := PageOf(vaddr)
	num, i := vpage/regionPages, vpage%regionPages
	r := m.slot(asn, num)
	if !r.live {
		if m.regions++; 2*m.regions > len(m.table) {
			old := m.table
			m.table = make([]region, 2*len(old))
			for _, o := range old {
				if o.live {
					*m.slot(o.asn, o.num) = o
				}
			}
			r = m.slot(asn, num)
		}
		base := mix(m.seed^mix(uint64(asn)^num<<20)) % m.physPages
		*r = region{num: num, base: base, asn: asn, live: true}
	}
	if bit := uint64(1) << (i % 64); r.touched[i/64]&bit == 0 {
		r.touched[i/64] |= bit
		m.pages++
	}
	ppage := r.base + i
	if ppage >= m.physPages { // base < physPages, so only the wrapping tail divides
		ppage %= m.physPages
	}
	return ppage<<PageShift | (vaddr & (PageSize - 1))
}

// MappedPages returns the number of virtual pages assigned so far.
func (m *PageMapper) MappedPages() int { return m.pages }
