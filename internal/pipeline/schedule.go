package pipeline

import (
	"dcpi/internal/alpha"
)

// StallKind classifies a static stall, matching the static categories in the
// paper's Figure 4 summary (Slotting, Ra/Rb/Rc dependency, FU dependency).
type StallKind uint8

const (
	StallNone StallKind = iota
	StallSlotting
	StallRaDep
	StallRbDep
	StallRcDep
	StallFUDep
)

func (k StallKind) String() string {
	switch k {
	case StallSlotting:
		return "Slotting"
	case StallRaDep:
		return "Ra dependency"
	case StallRbDep:
		return "Rb dependency"
	case StallRcDep:
		return "Rc dependency"
	case StallFUDep:
		return "FU dependency"
	}
	return "none"
}

func stallForSlot(slot byte) StallKind {
	switch slot {
	case 'a':
		return StallRaDep
	case 'b':
		return StallRbDep
	case 'c':
		return StallRcDep
	}
	return StallNone
}

// StaticStall is one reason an instruction could not issue as early as it
// became head, under the no-dynamic-stall schedule.
type StaticStall struct {
	Kind    StallKind
	Cycles  int64
	Culprit int // block-relative index of the causing instruction, or -1
}

// SchedInst is the static schedule of one instruction within its block.
type SchedInst struct {
	// M is the paper's Mᵢ: the minimum number of cycles the instruction
	// spends at the head of the issue queue absent dynamic stalls. It is 0
	// exactly when the instruction dual-issues in the second slot.
	M int64
	// Paired reports the instruction issued in the same cycle as its
	// predecessor.
	Paired bool
	// IssueCycle is the cycle the instruction issues at, relative to the
	// block entering the machine at cycle 0 with all registers ready.
	IssueCycle int64
	// Stalls lists the static reasons (and magnitudes) for M > 1.
	Stalls []StaticStall
	// SlotHazard reports that the instruction could not pair with its
	// predecessor purely because of slotting rules (the "s" annotation in
	// the paper's Figure 2).
	SlotHazard bool
}

// ScheduleBlock computes the static schedule of a basic block, assuming all
// registers are ready when the block begins and no dynamic stalls occur
// (every load hits the D-cache). This matches the paper's "best-case"
// schedule; like the paper's tools, it ignores preceding blocks (§6.1.3,
// limitation three).
func (m Model) ScheduleBlock(code []alpha.Inst) []SchedInst {
	out := make([]SchedInst, len(code))
	ready := make(map[regKey]int64)  // register -> ready cycle
	producer := make(map[regKey]int) // register -> producing index
	fuFree := [fuCount]int64{}       // unit -> next free cycle
	fuUser := [fuCount]int{-1, -1, -1}

	head := int64(0) // cycle the current instruction became head
	for i := 0; i < len(code); i++ {
		in := code[i]
		s := &out[i]

		// Earliest issue given operands and functional units.
		earliest := head
		for _, src := range in.Sources() {
			if t, ok := ready[key(src)]; ok && t > earliest {
				earliest = t
			}
		}
		if fu, _ := m.FUse(in.Op); fu != FUNone && fuFree[fu] > earliest {
			earliest = fuFree[fu]
		}

		issue := earliest
		s.IssueCycle = issue
		s.M = issue - head + 1

		// Record stall reasons for the wait beyond the head cycle.
		if issue > head {
			for _, src := range in.Sources() {
				if t, ok := ready[key(src)]; ok && t > head {
					s.Stalls = append(s.Stalls, StaticStall{
						Kind:    stallForSlot(src.Slot),
						Cycles:  t - head,
						Culprit: producer[key(src)],
					})
				}
			}
			if fu, _ := m.FUse(in.Op); fu != FUNone && fuFree[fu] > head {
				s.Stalls = append(s.Stalls, StaticStall{
					Kind:    StallFUDep,
					Cycles:  fuFree[fu] - head,
					Culprit: fuUser[fu],
				})
			}
		}

		commit := func(idx int, at int64) {
			ins := code[idx]
			if d, ok := ins.Dest(); ok {
				ready[key(d)] = at + m.Latency(ins.Op)
				producer[key(d)] = idx
			}
			if fu, busy := m.FUse(ins.Op); fu != FUNone {
				fuFree[fu] = at + busy
				fuUser[fu] = idx
			}
		}
		commit(i, issue)

		// Try to dual-issue the next instruction in the second slot.
		if i+1 < len(code) {
			next := code[i+1]
			if CanPair(in, next) {
				ok := true
				for _, src := range next.Sources() {
					if t, okr := ready[key(src)]; okr && t > issue {
						ok = false
						break
					}
				}
				if fu, _ := m.FUse(next.Op); ok && fu != FUNone && fuFree[fu] > issue {
					ok = false
				}
				if ok {
					p := &out[i+1]
					p.Paired = true
					p.M = 0
					p.IssueCycle = issue
					commit(i+1, issue)
					i++ // consumed the partner
				}
			} else if !in.Op.EndsBlock() && !ClassPairable(in, next) {
				// The next instruction will issue alone because of slotting
				// rules (not a register dependency).
				out[i+1].SlotHazard = true
			}
		}

		head = issue + 1
	}

	// An instruction whose only reason for M=1 (rather than 0) is a slot
	// hazard gets a Slotting stall entry so summaries can aggregate it.
	for i := range out {
		if out[i].SlotHazard && !out[i].Paired {
			out[i].Stalls = append(out[i].Stalls, StaticStall{
				Kind:    StallSlotting,
				Cycles:  1,
				Culprit: i - 1,
			})
		}
	}
	return out
}
