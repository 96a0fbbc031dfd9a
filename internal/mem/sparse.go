package mem

import "encoding/binary"

// Sparse is a page-granular sparse byte memory implementing the functional
// (architectural) data store of one address space. It satisfies
// alpha.Memory. Unmapped bytes read as zero.
//
// Pages live in a map; a direct-mapped cache of resident pages in front of
// it, indexed by hash so that arrays a power of two apart do not share a
// slot, keeps the map off the per-access path.
type Sparse struct {
	pages map[uint64]*[PageSize]byte
	front [64]struct {
		vpage uint64
		p     *[PageSize]byte // nil: empty slot
	}
}

// NewSparse returns an empty sparse memory.
func NewSparse() *Sparse {
	return &Sparse{pages: make(map[uint64]*[PageSize]byte)}
}

// page resolves vpage, allocating it if create is set; otherwise an absent
// page is nil and stays absent.
func (s *Sparse) page(vpage uint64, create bool) *[PageSize]byte {
	c := &s.front[keyHash(0, vpage)%uint64(len(s.front))]
	if c.p != nil && c.vpage == vpage {
		return c.p
	}
	p := s.pages[vpage]
	if p == nil {
		if !create {
			return nil
		}
		p = new([PageSize]byte)
		s.pages[vpage] = p
	}
	c.vpage, c.p = vpage, p
	return p
}

// Load reads size (at most 8) bytes at addr, little-endian. Unless addr is
// in the last 7 bytes of its page, that is one 8-byte read and a mask.
func (s *Sparse) Load(addr uint64, size int) uint64 {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p := s.page(PageOf(addr), false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:]) &^ (^uint64(0) << (8 * size))
	}
	var b [8]byte
	s.read(addr, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// Store writes the low size (at most 8) bytes of val at addr, little-endian.
func (s *Sparse) Store(addr uint64, size int, val uint64) {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		w := s.page(PageOf(addr), true)[off:]
		keep := ^uint64(0) << (8 * size)
		binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)&keep|val&^keep)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	s.WriteBytes(addr, b[:size])
}

// WriteBytes copies b into memory at addr, a page-sized chunk at a time.
func (s *Sparse) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(s.page(PageOf(addr), true)[addr&(PageSize-1):], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// read fills b, zeroed by the caller, from memory at addr; absent pages
// stay absent.
func (s *Sparse) read(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & (PageSize - 1)
		n := min(len(b), PageSize-int(off))
		if p := s.page(PageOf(addr), false); p != nil {
			copy(b[:n], p[off:])
		}
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n bytes starting at addr.
func (s *Sparse) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	s.read(addr, out)
	return out
}

// Pages returns the number of resident pages.
func (s *Sparse) Pages() int { return len(s.pages) }
