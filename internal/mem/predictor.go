package mem

// Predictor is a table of 2-bit saturating counters indexed by instruction
// address, the branch predictor of the simulated machine.
type Predictor struct {
	counters []uint8
	mask     uint64

	Predictions uint64
	Mispredicts uint64
}

// NewPredictor builds a predictor with entries 2-bit counters (entries must
// be a power of two). Counters start weakly not-taken.
func NewPredictor(entries int) *Predictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("mem: predictor entries must be a positive power of two")
	}
	p := &Predictor{counters: make([]uint8, entries), mask: uint64(entries - 1)}
	for i := range p.counters {
		p.counters[i] = 1 // weakly not-taken
	}
	return p
}

func (p *Predictor) index(pc uint64) int {
	return int((pc >> 2) & p.mask)
}

// Update records the actual direction and reports whether the prediction was
// wrong (a mispredict).
func (p *Predictor) Update(pc uint64, taken bool) (mispredicted bool) {
	p.Predictions++
	i := p.index(pc)
	predicted := p.counters[i] >= 2
	if taken && p.counters[i] < 3 {
		p.counters[i]++
	} else if !taken && p.counters[i] > 0 {
		p.counters[i]--
	}
	if predicted != taken {
		p.Mispredicts++
		return true
	}
	return false
}
