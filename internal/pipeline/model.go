// Package pipeline is the static machine model shared by the timing
// simulator and the analysis tools: issue and slotting rules, operation
// latencies, functional-unit occupancy, and the static basic-block scheduler
// that computes each instruction's minimum head-of-queue time Mᵢ and its
// static stall reasons.
//
// Sharing one model between simulation and analysis mirrors the paper's
// premise that the analysis uses "an accurate model of the processor issue
// logic" (§6.1.2): whatever the simulated machine does statically, the
// analysis can predict exactly.
package pipeline

import (
	"dcpi/internal/alpha"
)

// Model holds the machine's timing parameters. All values are in cycles.
type Model struct {
	// Result latencies (issue to result-ready).
	IntLat  int64 // simple integer ops, lda
	CMovLat int64 // conditional moves
	LoadLat int64 // D-cache hit load-to-use
	MulLat  int64 // integer multiply
	FPLat   int64 // FP add/mul/convert/compare
	DivLat  int64 // FP divide

	// Functional-unit occupancy (issue to next same-unit issue).
	MulBusy int64
	DivBusy int64

	// Dynamic penalties, used by the simulator and by the analysis when it
	// bounds dynamic-stall candidates.
	L2Lat             int64 // L1 miss, board-cache hit
	MemLat            int64 // board-cache miss, all the way to memory
	TLBMissPenalty    int64 // ITB or DTB fill
	MispredictPenalty int64 // branch mispredict redirect
	TakenBranchBubble int64 // fetch bubble after a correctly predicted taken branch
}

// Default returns the 21164-like model used throughout; see DESIGN.md §3.
func Default() Model {
	return Model{
		IntLat:  1,
		CMovLat: 2,
		LoadLat: 2,
		MulLat:  8,
		FPLat:   4,
		DivLat:  16,

		MulBusy: 8,
		DivBusy: 16,

		L2Lat:             12,
		MemLat:            80,
		TLBMissPenalty:    30,
		MispredictPenalty: 5,
		TakenBranchBubble: 1,
	}
}

// Latency returns the result latency of op in cycles (0 for instructions
// that produce no register result).
func (m Model) Latency(op alpha.Op) int64 {
	switch op.Class() {
	case alpha.ClassLoad:
		return m.LoadLat
	case alpha.ClassIntMul:
		return m.MulLat
	case alpha.ClassFPOp:
		return m.FPLat
	case alpha.ClassFPDiv:
		return m.DivLat
	case alpha.ClassIntOp:
		switch op {
		case alpha.OpCMOVEQ, alpha.OpCMOVNE, alpha.OpCMOVLT, alpha.OpCMOVGE:
			return m.CMovLat
		}
		return m.IntLat
	case alpha.ClassBranch, alpha.ClassJump:
		return m.IntLat // link-register value
	}
	return 0
}

// FU identifies a long-occupancy functional unit.
type FU uint8

const (
	FUNone FU = iota
	FUMul     // integer multiplier ("IMULL busy" in dcpicalc summaries)
	FUDiv     // floating-point divider ("FDIV busy")
	fuCount
)

func (f FU) String() string {
	switch f {
	case FUMul:
		return "IMULL"
	case FUDiv:
		return "FDIV"
	}
	return "none"
}

// FUse returns which long-occupancy unit op ties up and for how long.
func (m Model) FUse(op alpha.Op) (FU, int64) {
	switch op.Class() {
	case alpha.ClassIntMul:
		return FUMul, m.MulBusy
	case alpha.ClassFPDiv:
		return FUDiv, m.DivBusy
	}
	return FUNone, 0
}

// Tables is a Model flattened into per-opcode arrays, so the simulator's
// per-cycle loop resolves latency and functional-unit use with one indexed
// load instead of re-walking the Class switches for every dynamic
// instruction. Build once per Model (NewTables) and share freely; the
// tables are immutable after construction.
type Tables struct {
	Lat    [alpha.NumOps]int64 // result latency (Model.Latency)
	FU     [alpha.NumOps]FU    // long-occupancy unit (Model.FUse)
	FUBusy [alpha.NumOps]int64 // unit occupancy (Model.FUse)
}

// NewTables flattens m into per-opcode arrays.
func NewTables(m Model) *Tables {
	t := &Tables{}
	for op := 0; op < alpha.NumOps; op++ {
		t.Lat[op] = m.Latency(alpha.Op(op))
		t.FU[op], t.FUBusy[op] = m.FUse(alpha.Op(op))
	}
	return t
}

// issuesSolo reports whether op always issues alone (and ends the group).
func issuesSolo(op alpha.Op) bool {
	switch op {
	case alpha.OpCALLPAL, alpha.OpMB, alpha.OpWMB, alpha.OpHALT:
		return true
	}
	return false
}

// CanPair reports whether b can issue in the same cycle as a, with a in the
// first slot, considering only class/slotting rules (not operand readiness).
//
// Rules (DESIGN.md §3, validated against the paper's Figure 2 pairings):
//   - at most one store per cycle (adjacent stores are the figure's
//     "slotting hazard"),
//   - two loads may pair; a load and a store may pair,
//   - a branch or jump only in the second slot, and never two,
//   - integer multiplies and stores share a pipe and cannot pair,
//   - PAL calls, barriers, and halt issue alone,
//   - b must not read a result a produces this cycle, nor write a register
//     a writes (checked by dependsOn).
func CanPair(a, b alpha.Inst) bool {
	am, bm := a.Meta(), b.Meta()
	return CanPairMeta(a, b, &am, &bm)
}

// CanPairMeta is CanPair with the operand metadata supplied by the caller
// (typically from an image's pre-decoded table), so the simulator's
// dual-issue probe never re-decodes or allocates.
func CanPairMeta(a, b alpha.Inst, am, bm *alpha.InstMeta) bool {
	return ClassPairable(a, b) && !dependsOnMeta(am, bm)
}

// NoReg is StaticInst.Dst for an instruction that writes no register: the
// slot after the 64 architectural ones, so a consumer may keep a 65-entry
// readiness array and store a result time unconditionally.
const NoReg = 64

// regIndex is o's slot in a 64-entry register array: 0..31 integer, 32..63
// floating point.
func regIndex(o alpha.Operand) uint8 {
	if o.FP {
		return 32 + o.Reg
	}
	return o.Reg
}

// StaticInst is what the simulator's step path needs of one static
// instruction under one machine model, resolved once so that an issue group
// pays only for what is dynamic: the instruction, its operands as register
// indices, its latency and functional-unit use, its class flags, and the
// slotting rule for it and its static successor. 32 bytes.
type StaticInst struct {
	Inst alpha.Inst
	Src  [3]uint8 // register slot (0..31 integer, 32..63 FP) of each source; the first NSrc hold
	NSrc uint8
	Dst  uint8 // register slot of the destination, NoReg when there is none
	FU   FU    // long-occupancy unit (Tables.FU)

	Load, Store, CondBranch bool // alpha.InstMeta's class flags

	// PairNext reports whether the next instruction of the sequence may
	// issue in the same cycle as this one (CanPairMeta); false for the last.
	PairNext bool

	Lat  int32 // result latency (Tables.Lat); hw.Config bounds it far below 2³¹
	Busy int32 // occupancy of FU (Tables.FUBusy)
}

// Decode builds the static record of every instruction of code under the
// model t flattens; meta is code's metadata table (alpha.DecodeMeta, or an
// image's MetaTable). The result is indexed like code. Latencies vary with
// the model (the what-if grid sweeps them), so a record belongs to one
// machine model.
func Decode(code []alpha.Inst, meta []alpha.InstMeta, t *Tables) []StaticInst {
	out := make([]StaticInst, len(code))
	for i, in := range code {
		m := &meta[i]
		s := &out[i]
		s.Inst = in
		for j, o := range m.Sources() {
			s.Src[j] = regIndex(o)
		}
		s.NSrc = m.NSrc
		s.Dst = NoReg
		if m.HasDst {
			s.Dst = regIndex(m.Dst)
		}
		s.FU = t.FU[in.Op]
		s.Load, s.Store, s.CondBranch = m.Load, m.Store, m.CondBranch
		s.PairNext = i+1 < len(code) && CanPairMeta(in, code[i+1], m, &meta[i+1])
		s.Lat, s.Busy = int32(t.Lat[in.Op]), int32(t.FUBusy[in.Op])
	}
	return out
}

// CanJoinGroupMeta reports whether cand can issue in the same cycle as an
// already-formed group (group[0] is the head slot), i.e. it pairs cleanly
// with every member: the slotting rules hold pairwise and cand neither reads
// nor rewrites any member's same-cycle result. With a one-element group this
// is exactly CanPairMeta, which keeps the simulator's dual-issue behaviour
// bit-identical; wider groups (hw.Config.IssueWidth > 2) only add stricter
// conjuncts, so the one-store-per-cycle and branch-ends-the-group rules fall
// out of the pairwise checks.
func CanJoinGroupMeta(group []alpha.Inst, metas []*alpha.InstMeta, cand alpha.Inst, candMeta *alpha.InstMeta) bool {
	for i, a := range group {
		if !CanPairMeta(a, cand, metas[i], candMeta) {
			return false
		}
	}
	return true
}

// ClassPairable applies only the slotting (class) rules, ignoring register
// dependencies. When this alone fails, the second instruction carries a
// "slotting hazard" in dcpicalc output.
func ClassPairable(a, b alpha.Inst) bool {
	if issuesSolo(a.Op) || issuesSolo(b.Op) {
		return false
	}
	ca, cb := a.Op.Class(), b.Op.Class()
	// Control flow only in the second slot.
	if ca == alpha.ClassBranch || ca == alpha.ClassJump {
		return false
	}
	// At most one store; multiplies contend with stores for the same pipe.
	if cb == alpha.ClassStore && (ca == alpha.ClassStore || ca == alpha.ClassIntMul) {
		return false
	}
	if ca == alpha.ClassStore && cb == alpha.ClassIntMul {
		return false
	}
	// Two long-latency FP units of the same kind cannot pair.
	if ca == alpha.ClassFPDiv && cb == alpha.ClassFPDiv {
		return false
	}
	if ca == alpha.ClassIntMul && cb == alpha.ClassIntMul {
		return false
	}
	return true
}

// regKey identifies a register for dependency purposes.
type regKey struct {
	reg uint8
	fp  bool
}

func key(o alpha.Operand) regKey { return regKey{o.Reg, o.FP} }

// dependsOnMeta reports whether b reads or rewrites a's destination
// register, consulting only pre-decoded metadata.
func dependsOnMeta(am, bm *alpha.InstMeta) bool {
	if !am.HasDst {
		return false
	}
	dk := key(am.Dst)
	for _, s := range bm.Sources() {
		if key(s) == dk {
			return true
		}
	}
	if bm.HasDst && key(bm.Dst) == dk {
		return true // WAW in one cycle not allowed
	}
	return false
}
