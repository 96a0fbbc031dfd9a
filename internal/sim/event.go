// Package sim is the timing simulator: an in-order dual-issue Alpha-like
// machine with caches, TLBs, a write buffer, a branch predictor, and
// performance counters that raise overflow interrupts. It produces the
// time-biased PC samples the DCPI data-collection system consumes, plus
// exact execution counts (the pixie/dcpix role) for validating the analysis.
package sim

import (
	"fmt"
	"math"
)

// Event is a hardware performance-counter event type.
type Event uint8

const (
	// EvCycles counts processor cycles; its samples are time-biased PC
	// samples (the paper's CYCLES).
	EvCycles Event = iota
	// EvIMiss counts instruction-cache misses.
	EvIMiss
	// EvDMiss counts data-cache misses.
	EvDMiss
	// EvBranchMP counts branch mispredictions.
	EvBranchMP
	// EvEdge is a double-sampling edge sample (paper §7): a pair of PCs
	// along an execution path, captured by a second interrupt immediately
	// after a CYCLES interrupt returns.
	EvEdge
	// EvDTBMiss counts data-TLB misses (the DTBMISS event §3.2 mentions:
	// "Dcpicalc will likely rule out DTB miss if given DTBMISS samples").
	EvDTBMiss

	NumEvents
)

func (e Event) String() string {
	switch e {
	case EvCycles:
		return "cycles"
	case EvIMiss:
		return "imiss"
	case EvDMiss:
		return "dmiss"
	case EvBranchMP:
		return "branchmp"
	case EvEdge:
		return "edge"
	case EvDTBMiss:
		return "dtbmiss"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// ParseEvent resolves an event name.
func ParseEvent(s string) (Event, error) {
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown event %q", s)
}

// carta is the "minimal standard" Park–Miller pseudo-random generator in
// D. Carta's two-multiply formulation (CACM 33(1), 1990) — the paper's
// reference [4], used to randomize the sampling period.
type carta struct {
	state uint32
}

func newCarta(seed uint32) *carta {
	seed &= 0x7fffffff
	if seed == 0 {
		seed = 1
	}
	return &carta{state: seed}
}

// next advances the generator: state = 16807 * state mod (2^31 - 1).
func (c *carta) next() uint32 {
	lo := uint64(16807) * uint64(c.state&0xffff)
	hi := uint64(16807) * uint64(c.state>>16)
	lo += (hi & 0x7fff) << 16
	lo += hi >> 15
	if lo > 0x7fffffff {
		lo -= 0x7fffffff
	}
	c.state = uint32(lo)
	return c.state
}

// PeriodSpec describes a randomized sampling period: uniform in
// [Base, Base+Spread).
type PeriodSpec struct {
	Base   int64
	Spread int64
}

// draw returns the next period length.
func (p PeriodSpec) draw(rng *carta) int64 {
	if p.Spread <= 1 {
		return p.Base
	}
	return p.Base + int64(rng.next())%p.Spread
}

// Mean returns the mean period, Base + Spread/2: samples times the mean
// period estimates the events counted (paper §3.1, §6.1).
func (p PeriodSpec) Mean() float64 {
	return float64(p.Base) + float64(p.Spread)/2
}

// CheckPeriod is the one validity rule for a period read back from a
// store, a per-point period or a recorded mean: it must be finite and not
// negative (a recorded 0 means the default). A tsdb segment or block and a
// profile database's metadata are refused when one fails it.
func CheckPeriod(p float64) error {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		return fmt.Errorf("invalid period %v", p)
	}
	return nil
}

var (
	// DefaultCyclesPeriod is the paper's default: uniform in [60K, 64K) cycles.
	DefaultCyclesPeriod = PeriodSpec{Base: 60 * 1024, Spread: 4 * 1024}
	// DefaultEventPeriod is the period used for miss-event counters.
	DefaultEventPeriod = PeriodSpec{Base: 14 * 1024, Spread: 2 * 1024}
	// DenseCyclesPeriod and DenseEventPeriod are the periods of the runs that
	// score the analysis (Figures 1-3, 7-9, the loss sweep, what-if sweeps):
	// the 21064's 4K fast mode scaled to give short runs paper-scale counts.
	DenseCyclesPeriod = PeriodSpec{Base: 768, Spread: 192}
	DenseEventPeriod  = PeriodSpec{Base: 384, Spread: 128}
)

// Mode selects the profiling configuration, matching the paper's §5
// evaluation configurations.
type Mode uint8

const (
	// ModeOff collects nothing (the "base" configuration).
	ModeOff Mode = iota
	// ModeCycles monitors CYCLES only.
	ModeCycles
	// ModeDefault monitors CYCLES and IMISS.
	ModeDefault
	// ModeMux monitors CYCLES on one counter and time-multiplexes IMISS,
	// DMISS, and BRANCHMP on the other.
	ModeMux
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "base"
	case ModeCycles:
		return "cycles"
	case ModeDefault:
		return "default"
	case ModeMux:
		return "mux"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Sample is one performance-counter sample: the context the overflow
// interrupt handler captures (paper §4.1: PID, PC, and event type). Edge
// samples (double sampling, §7) carry the next instruction's PC in PC2.
// Clock is the delivering CPU's cycle counter at the interrupt; collection
// stacks use it to timestamp pipeline trace events (internal/obs).
type Sample struct {
	CPU   int
	PID   uint32
	PC    uint64
	PC2   uint64 // valid only for EvEdge
	Event Event
	Clock int64
}

// Sink consumes samples as the overflow interrupts deliver them, and models
// the profiling software's costs by returning cycles charged to the
// interrupted CPU.
type Sink interface {
	// Sample records one sample; the returned cycles model the interrupt
	// handler's cost and are injected into the simulated run.
	Sample(s Sample) (handlerCycles int64)
	// Poll lets the sink perform periodic work (the daemon draining
	// buffers); the returned cycles are charged to the polling CPU.
	Poll(cpu int, clock int64) (cycles int64)
}

// pollInterval is the cycles between polls of the profiling sink.
const pollInterval = 64 * 1024

// ProfileConfig configures the machine's profiling subsystem.
type ProfileConfig struct {
	Mode         Mode
	Sink         Sink
	CyclesPeriod PeriodSpec // zero value -> DefaultCyclesPeriod
	EventPeriod  PeriodSpec // zero value -> DefaultEventPeriod
	MuxInterval  int64      // cycles between mux rotations; 0 -> 1M
	Seed         uint32     // period-randomization seed; 0 -> 1
	// DoubleSample turns on the paper's §7 double-sampling prototype: each
	// CYCLES interrupt schedules a second interrupt immediately after it
	// returns, capturing the next head instruction's PC too and yielding
	// an edge sample (EvEdge) for the (PC, PC2) pair.
	DoubleSample bool
	// InterpretBranches turns on the paper's §7 instruction-interpretation
	// prototype: when a CYCLES sample lands on a conditional branch, the
	// handler decodes it and records the direction it is about to take,
	// yielding an edge sample without a second interrupt.
	InterpretBranches bool
	// MetaSamples turns on the "meta" method of the paper's footnote 2:
	// counter overflows whose delivery falls inside the interrupt handler
	// itself (normally the one blind spot) are attributed to the handler's
	// own address (KernelABI.HandlerEntry) instead of leaking onto the
	// next user instruction.
	MetaSamples bool
}

// WithDefaults returns c with its zero values defaulted: a zero period spec
// is DefaultCyclesPeriod or DefaultEventPeriod, here and nowhere else.
func (c ProfileConfig) WithDefaults() ProfileConfig {
	if c.CyclesPeriod.Base == 0 {
		c.CyclesPeriod = DefaultCyclesPeriod
	}
	if c.EventPeriod.Base == 0 {
		c.EventPeriod = DefaultEventPeriod
	}
	if c.MuxInterval == 0 {
		c.MuxInterval = 1 << 20
	}
	return c
}
