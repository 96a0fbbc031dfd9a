package analysis

import (
	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
)

// Cache geometry the culprit rules reason about; matches the simulated
// machine (DESIGN.md §3).
const (
	icacheLineBytes = 32
	pageBytes       = 8192
	// dcacheLookback bounds how far back (in instructions) a load can be
	// and still be blamed for a consumer's D-cache stall.
	dcacheLookback = 12
	// minPredFreqFrac: predecessors executed much less often than the
	// stalled instruction are ignored when applying the same-line rule
	// (paper §6.3: "we can ignore basic blocks and control flow edges
	// executed much less frequently than the stalled instruction itself").
	minPredFreqFrac = 0.1
)

// outcome is what one rule makes of one cause at one site.
type outcome uint8

const (
	pass  outcome = iota // leave the cause to its next rule
	keep                 // the cause may explain the stall
	clear                // the cause is ruled out
)

func keepIf(possible bool) outcome {
	if possible {
		return keep
	}
	return clear
}

// A rule is one named step of the §6.3 elimination. The rules for a cause
// run in table order and the first that keeps or clears it writes its
// verdict; the last rule for each cause always decides. A rule may fill
// the verdict's evidence (culprit index, bound, edge) as it reads it.
type rule struct {
	name  string
	cause Cause
	test  func(s *site, v *Verdict) outcome
}

// Rule identifies one rule of culpritRules; the zero Rule is none.
type Rule uint8

// String returns the rule's name, e.g. "culprit.icache_same_line".
func (r Rule) String() string {
	if r == 0 {
		return ""
	}
	return culpritRules[r-1].name
}

// culpritRules is the §6.3 elimination: every cause is guilty until one of
// these rules proves it innocent. Causes appear in enum order, which is
// the order of an instruction's kept verdicts.
var culpritRules = [...]rule{
	// An I-cache miss needs a fetch that enters a new line: mid-block, i
	// must start a line; at a block head, the entry or some predecessor
	// executed at least minPredFreqFrac as often as i must end elsewhere.
	{"culprit.icache_same_line", CauseICache, func(s *site, v *Verdict) outcome {
		v.Edge = s.lineEdge
		if s.head && s.lineEdge < 0 || !s.head && s.ia.Offset%icacheLineBytes != 0 {
			return clear
		}
		if s.imiss != nil {
			return pass
		}
		return keep
	}},
	// With IMISS samples collected, none at i rules the I-cache out, and
	// the events bound it pessimistically: every miss filled from memory.
	{"culprit.icache_no_imiss", CauseICache, func(s *site, v *Verdict) outcome {
		events := s.imiss[s.i]
		if events == 0 {
			return clear
		}
		v.BoundCycles = float64(events) * float64(s.pa.Model.MemLat) / s.ia.Freq
		return keep
	}},
	// An ITB miss needs a possible I-cache fill that enters a new page.
	{"culprit.itb_same_page", CauseITB, func(s *site, v *Verdict) outcome {
		v.Edge = s.pageEdge
		return keepIf(s.v[CauseICache].Kept && (s.ia.Offset%pageBytes == 0 || s.pageEdge >= 0))
	}},
	// A D-cache miss needs a load feeding one of i's operands: the most
	// recent producer within the block and the lookback window.
	{"culprit.dcache_feeding_load", CauseDCache, func(s *site, v *Verdict) outcome {
		v.CulpritIndex = s.pa.feedingLoad(s.i)
		switch {
		case v.CulpritIndex >= 0:
			return keep
		case s.head:
			return pass
		}
		return clear
	}},
	// At a block head every operand i reads is produced in an unknown
	// predecessor, so pessimistically a load could feed it.
	{"culprit.dcache_live_in", CauseDCache, func(s *site, v *Verdict) outcome { return keepIf(s.ia.Inst.Meta().NSrc > 0) }},
	// Only loads and stores translate data addresses ...
	{"culprit.dtb_mem_op", CauseDTB, func(s *site, v *Verdict) outcome {
		switch {
		case !s.ia.Inst.Op.IsLoad() && !s.ia.Inst.Op.IsStore():
			return clear
		case s.dtbCollected:
			return pass
		}
		return keep
	}},
	// ... and DTBMISS deliveries are skewed, so when the event was
	// collected DTB is ruled out at procedure granularity (§3.2).
	{"culprit.dtb_proc_has_no_dtbmiss", CauseDTB, func(s *site, v *Verdict) outcome { return keepIf(s.dtbInProc) }},
	{"culprit.wb_store", CauseWB, func(s *site, v *Verdict) outcome { return keepIf(s.ia.Inst.Op.IsStore()) }},
	// The redirect penalty lands on the first instruction fetched after the
	// branch: a block head reached through the entry, or from a frequent
	// predecessor ending in a conditional branch or a computed jump. The
	// culprit is the first predecessor's conditional branch, if any.
	{"culprit.mp_cond_pred", CauseBranchMP, func(s *site, v *Verdict) outcome {
		v.CulpritIndex, v.Edge = s.branch, s.mpEdge
		return keepIf(s.mpEdge >= 0)
	}},
	{"culprit.sync_barrier", CauseSync, func(s *site, v *Verdict) outcome {
		return keepIf(s.ia.Inst.Op == alpha.OpMB || s.ia.Inst.Op == alpha.OpWMB)
	}},
	{"culprit.fu_mul_busy", CauseFUMul, func(s *site, v *Verdict) outcome { return s.busyUnit(v, alpha.ClassIntMul, s.pa.Model.MulBusy) }},
	{"culprit.fu_div_busy", CauseFUDiv, func(s *site, v *Verdict) outcome { return s.busyUnit(v, alpha.ClassFPDiv, s.pa.Model.DivBusy) }},
}

// site is what the rules read about one stalled instruction.
type site struct {
	pa   *ProcAnalysis
	i    int
	ia   *InstAnalysis
	head bool // i starts its basic block

	imiss        []uint64 // estimated IMISS events per instruction; nil if not collected
	dtbCollected bool     // DTBMISS samples were collected ...
	dtbInProc    bool     // ... and some landed in this procedure

	// From one walk of a block head's predecessor edges (all -1 mid-block):
	// the first edge from the entry or from a predecessor that ends on
	// another line (frequent ones only), on another page, or in a
	// conditional branch or jump (frequent only); and the first
	// predecessor's conditional branch.
	lineEdge, pageEdge, mpEdge int32
	branch                     int

	v [CauseOther]Verdict // i's verdicts so far, by cause
}

// identifyCulprits writes the culprit record of every instruction that
// shows a dynamic stall: one verdict per candidate cause, decided by
// culpritRules ("guilty until proven innocent"). in.IMissEvents, when
// non-nil, holds estimated I-cache miss *event counts* per instruction
// (IMISS samples scaled by their sampling period) and is used both to rule
// I-cache out and to bound it.
func (pa *ProcAnalysis) identifyCulprits(in Inputs) {
	s := site{pa: pa, imiss: in.IMissEvents, dtbCollected: in.DTBCollected, dtbInProc: in.DTBMisses > 0}
	for i := range pa.Insts {
		ia := &pa.Insts[i]
		if ia.DynStall <= 0.01 || ia.Freq <= 0 {
			continue
		}
		s.i, s.ia = i, ia
		pa.walkPreds(&s)
		for c := range s.v {
			s.v[c] = Verdict{Cause: Cause(c), CulpritIndex: -1, BoundCycles: -1, Edge: -1}
		}
		for r := range culpritRules {
			if v := &s.v[culpritRules[r].cause]; v.Rule == 0 {
				if o := culpritRules[r].test(&s, v); o != pass {
					v.Kept, v.Rule = o == keep, Rule(r+1)
				}
			}
		}
		// Kept verdicts first, each part in cause order: the cleared ones
		// fill the kept slice's spare capacity.
		out := make([]Verdict, 0, len(s.v))
		for _, v := range s.v {
			if v.Kept {
				out = append(out, v)
			}
		}
		ia.Culprits = out
		for _, v := range s.v {
			if !v.Kept {
				out = append(out, v)
			}
		}
	}
}

// walkPreds fills the site's edge facts in one pass over the predecessor
// edges of i's block.
func (pa *ProcAnalysis) walkPreds(s *site) {
	b := pa.Graph.BlockOfInst(s.i)
	s.head = pa.Graph.Blocks[b].Start == s.i
	s.lineEdge, s.pageEdge, s.mpEdge, s.branch = -1, -1, -1, -1
	if !s.head {
		return
	}
	first := func(dst *int32, ei int) {
		if *dst < 0 {
			*dst = int32(ei)
		}
	}
	// Edge frequencies are in samples per cycle; i runs Freq/Period.
	minFreq := minPredFreqFrac * (s.ia.Freq / pa.Period)
	for _, ei := range pa.Graph.Blocks[b].Preds {
		e := pa.Graph.Edges[ei]
		if e.From == cfg.Entry {
			// Callers are unknown: a call may arrive from anywhere.
			first(&s.lineEdge, ei)
			first(&s.pageEdge, ei)
			first(&s.mpEdge, ei)
			continue
		}
		last := pa.Graph.Blocks[e.From].End - 1
		from := &pa.Insts[last]
		frequent := !(pa.EdgeFreq[ei] < minFreq)
		if frequent && from.Offset/icacheLineBytes != s.ia.Offset/icacheLineBytes {
			first(&s.lineEdge, ei)
		}
		if from.Offset/pageBytes != s.ia.Offset/pageBytes {
			first(&s.pageEdge, ei)
		}
		if frequent && (from.Inst.Op.IsCondBranch() || from.Inst.Op.IsJump()) {
			first(&s.mpEdge, ei)
		}
		if s.branch < 0 && from.Inst.Op.IsCondBranch() {
			s.branch = last
		}
	}
}

// feedingLoad finds the most recent load within the same block (and a
// bounded window) that writes a register instruction i reads. A non-load
// that writes the register in between does not end the search, so a
// shadowed load still "feeds" i: a known deviation (EXPERIMENTS.md).
func (pa *ProcAnalysis) feedingLoad(i int) int {
	b := pa.Graph.BlockOfInst(i)
	start := pa.Graph.Blocks[b].Start
	if w := i - dcacheLookback; w > start {
		start = w
	}
	meta := pa.Insts[i].Inst.Meta()
	srcs := meta.Sources()
	for j := i - 1; j >= start; j-- {
		inst := pa.Insts[j].Inst
		if !inst.Op.IsLoad() {
			continue
		}
		d, ok := inst.Dest()
		for _, s := range srcs {
			if ok && s.Reg == d.Reg && s.FP == d.FP {
				return j
			}
		}
	}
	return -1
}

// busyUnit keeps a functional-unit cause when i needs the unit of class cl
// and an instruction of that class (the culprit) issued within the unit's
// busy window before i in the same block.
func (s *site) busyUnit(v *Verdict, cl alpha.Class, busy int64) outcome {
	pa, i := s.pa, s.i
	if pa.Insts[i].Inst.Op.Class() != cl {
		return clear
	}
	start := pa.Graph.Blocks[pa.Graph.BlockOfInst(i)].Start
	if w := i - int(busy); w > start {
		start = w
	}
	for j := i - 1; j >= start; j-- {
		if pa.Insts[j].Inst.Op.Class() == cl {
			v.CulpritIndex = j
			return keep
		}
	}
	return clear
}
