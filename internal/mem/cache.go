// Package mem provides the memory-system substrate the simulated Alpha
// machine is built from: set-associative caches, TLBs, a merging write
// buffer, a branch predictor, a virtual-to-physical page mapper, and a sparse
// functional memory. All components are timing models with hit/miss
// accounting; the functional memory holds the architectural bytes.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     int // total bytes
	LineSize int // bytes per line (power of two)
	Assoc    int // ways; 1 = direct mapped
}

// MinLineSize is the smallest line Validate accepts (and hw's minimum): a
// line address is then at most 2^61-1, so the tag array's line+1 never wraps.
const MinLineSize = 8

// Validate checks the configuration for consistency.
func (c CacheConfig) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	case c.LineSize < MinLineSize:
		return fmt.Errorf("cache %s: line size %d below %d bytes", c.Name, c.LineSize, MinLineSize)
	case c.Size%(c.LineSize*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by %d-way sets of %dB lines",
			c.Name, c.Size, c.Assoc, c.LineSize)
	}
	return nil
}

// Cache is a set-associative cache with LRU replacement, indexed by physical
// address. It models only presence (hit/miss), not contents; the functional
// memory holds data.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   uint64
	// tags[set*assoc+way] is the resident line address plus one, 0 for an
	// empty way, so a direct-mapped lookup is one load and one compare.
	tags []uint64
	// lru[set*assoc+way] is a recency stamp, unique per filled way. It is
	// allocated, and tick advanced, only when Assoc > 1: a direct-mapped
	// set has no victim to choose.
	lru  []uint64
	tick uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache; it panics on an invalid configuration (cache
// geometries arrive from hw.Config, which validates before construction).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets not a power of two", cfg.Name, sets))
	}
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*cfg.Assoc),
	}
	if cfg.Assoc > 1 {
		c.lru = make([]uint64, sets*cfg.Assoc)
	}
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineSize {
			c.lineShift = shift
			break
		}
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineOf returns the line address (tag+index bits) containing addr.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// Access looks up addr and, on a miss, fills the line (allocate-on-miss,
// LRU victim). It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	if c.lru == nil {
		i := line & c.setMask
		if c.tags[i] == line+1 {
			c.Hits++
			return true
		}
		c.Misses++
		c.tags[i] = line + 1
		return false
	}
	return c.accessSet(line)
}

// accessSet is Access in a set of more than one way. The victim is the last
// empty way, else the least recently used one.
func (c *Cache) accessSet(line uint64) bool {
	base := int(line&c.setMask) * c.cfg.Assoc
	tags, lru := c.tags[base:base+c.cfg.Assoc], c.lru[base:base+c.cfg.Assoc]
	c.tick++
	victim, oldest := 0, ^uint64(0)
	for w, tag := range tags {
		if tag == line+1 {
			lru[w] = c.tick
			c.Hits++
			return true
		}
		if tag == 0 {
			victim, oldest = w, 0
		} else if lru[w] < oldest {
			victim, oldest = w, lru[w]
		}
	}
	c.Misses++
	tags[victim], lru[victim] = line+1, c.tick
	return false
}

// Probe reports whether addr currently hits, without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.cfg.Assoc
	for _, tag := range c.tags[base : base+c.cfg.Assoc] {
		if tag == line+1 {
			return true
		}
	}
	return false
}

// Accesses returns the total number of lookups.
func (c *Cache) Accesses() uint64 { return c.Hits + c.Misses }
