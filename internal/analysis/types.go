// Package analysis converts time-biased CYCLES samples into per-instruction
// execution frequencies, CPIs, and stall explanations — the paper's §6 data
// analysis subsystem. Phase one estimates frequency and CPI from sample
// counts, equivalence classes, and a static pipeline model; phase two
// identifies culprits for dynamic stalls by eliminating impossible causes
// ("guilty until proven innocent").
package analysis

import (
	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
	"dcpi/internal/pipeline"
)

// Confidence predicts the accuracy of a frequency estimate (paper §6.1.5).
type Confidence uint8

const (
	ConfLow Confidence = iota
	ConfMedium
	ConfHigh
)

func (c Confidence) String() string {
	switch c {
	case ConfHigh:
		return "high"
	case ConfMedium:
		return "medium"
	}
	return "low"
}

// Cause is a dynamic-stall culprit category, matching dcpicalc's bubble
// annotations and summary rows.
type Cause uint8

const (
	CauseICache   Cause = iota // i: I-cache (not ITB) miss
	CauseITB                   // t: ITB/I-cache miss
	CauseDCache                // d: D-cache miss
	CauseDTB                   // D: DTB miss
	CauseWB                    // w: write-buffer overflow
	CauseBranchMP              // p: branch mispredict
	CauseSync                  // b: memory barrier
	CauseFUMul                 // m: integer multiplier busy
	CauseFUDiv                 // f: FP divider busy
	CauseOther                 // unexplained

	NumCauses
)

func (c Cause) String() string {
	switch c {
	case CauseICache:
		return "I-cache (not ITB)"
	case CauseITB:
		return "ITB/I-cache miss"
	case CauseDCache:
		return "D-cache miss"
	case CauseDTB:
		return "DTB miss"
	case CauseWB:
		return "Write buffer"
	case CauseBranchMP:
		return "Branch mispredict"
	case CauseSync:
		return "Synchronization"
	case CauseFUMul:
		return "IMULL busy"
	case CauseFUDiv:
		return "FDIV busy"
	}
	return "Other"
}

// Letter returns the single-character bubble annotation used in dcpicalc
// listings (Figure 2: "dwD" = D-cache miss, write buffer, DTB miss).
func (c Cause) Letter() byte {
	switch c {
	case CauseICache:
		return 'i'
	case CauseITB:
		return 't'
	case CauseDCache:
		return 'd'
	case CauseDTB:
		return 'D'
	case CauseWB:
		return 'w'
	case CauseBranchMP:
		return 'p'
	case CauseSync:
		return 'b'
	case CauseFUMul:
		return 'm'
	case CauseFUDiv:
		return 'f'
	}
	return '?'
}

// Verdict is the culprit table's decision about one candidate cause of a
// dynamic stall (culprit.go): kept (the cause may explain the stall) or
// cleared (ruled out), the rule that decided, and the evidence the cause's
// rules read.
type Verdict struct {
	Cause Cause
	Kept  bool
	Rule  Rule
	// Edge is the CFG edge (an index into Graph.Edges) into the stalled
	// instruction's block that decided, or -1. int32 keeps a Verdict small.
	Edge int32
	// CulpritIndex is the procedure-relative instruction index of the
	// instruction that may have caused the stall (e.g. the load feeding a
	// stalled store), or -1.
	CulpritIndex int
	// BoundCycles is an upper bound on the stall cycles this cause can
	// account for per execution, or -1 when unbounded. Event samples
	// (IMISS) tighten these bounds (paper §6.3).
	BoundCycles float64
}

// InstAnalysis is the per-instruction analysis result.
type InstAnalysis struct {
	Index  int    // procedure-relative instruction index
	Offset uint64 // byte offset within the image
	Inst   alpha.Inst
	// Confidence qualifies Freq; Paired and SlotHazard are schedule data.
	// (The one-byte fields fill the word Inst leaves unused.)
	Confidence Confidence
	Paired     bool
	SlotHazard bool
	Samples    uint64 // CYCLES samples at this instruction

	// Freq is the estimated number of executions during the profiled
	// interval.
	Freq float64

	// CPI is the average cycles this instruction spent at the head of the
	// issue queue per execution (0 for dual-issued second-slot
	// instructions).
	CPI float64

	// M and static schedule data come from the shared pipeline model.
	M            int64
	StaticStalls []pipeline.StaticStall

	// DynStall is the estimated dynamic stall in cycles per execution
	// (CPI - M when positive).
	DynStall float64
	// Culprits lists the possible causes for DynStall (empty means
	// unexplained): the kept part of the culprit record, whose cleared
	// verdicts follow it up to its capacity (Verdicts).
	Culprits []Verdict
}

// Verdicts returns the culprit record: one verdict per candidate cause, the
// kept ones (Culprits) first, each part in cause order; empty if no stall.
func (ia *InstAnalysis) Verdicts() []Verdict { return ia.Culprits[:cap(ia.Culprits)] }

// ProcAnalysis is the complete analysis of one procedure.
type ProcAnalysis struct {
	Name       string
	BaseOffset uint64
	Graph      *cfg.Graph
	Model      pipeline.Model
	Period     float64 // average sampling period in cycles

	Insts []InstAnalysis

	// ClassFreq is the estimated frequency (executions over the profiled
	// interval) of each equivalence class; negative means unknown.
	ClassFreq []float64
	ClassConf []Confidence
	EdgeFreq  []float64 // per CFG edge; negative means unknown
	BlockFreq []float64 // per block; negative means unknown
	// EdgeSampleCounts holds double-sampling pairs attributed to each CFG
	// edge (nil unless §7 edge samples were supplied).
	EdgeSampleCounts []uint64
	// ClusterLo/ClusterHi record, per class, the ratio range the frequency
	// heuristic averaged over (both zero when the class used a fallback);
	// dcpicalc's Figure 7 view marks the issue points inside the range.
	ClusterLo, ClusterHi []float64
	// SourceLines, when non-nil, holds per-instruction source line numbers
	// (dcpicalc shows them when the image has line information). Callers
	// attach it; the analysis itself does not need it.
	SourceLines []int

	// BestCaseCPI and ActualCPI are the Figure 2 header numbers.
	BestCaseCPI float64
	ActualCPI   float64

	Summary Summary
}

// Summary aggregates where the procedure's cycles went, as percentages of
// total samples (the paper's Figure 4).
type Summary struct {
	TotalSamples uint64

	// DynMin/DynMax bound each dynamic cause's share (fractions, 0..1).
	DynMin [NumCauses]float64
	DynMax [NumCauses]float64

	// Static shares by stall kind (fractions).
	Static map[pipeline.StallKind]float64

	// UnexplainedStall is dynamic stall with every candidate ruled out;
	// UnexplainedGain is observed time below the static minimum.
	UnexplainedStall float64
	UnexplainedGain  float64

	// Execution is the fraction spent issuing instructions.
	Execution float64

	// DynTotal is the overall dynamic-stall fraction (including
	// unexplained stall, net of unexplained gain) — Figure 4's "Subtotal
	// dynamic". The per-cause ranges above bound how it divides.
	DynTotal float64
}

// SubtotalStatic returns the static-stall share.
func (s *Summary) SubtotalStatic() float64 {
	var t float64
	for _, v := range s.Static {
		t += v
	}
	return t
}
