package analysis

// Causal scoring of the culprit analysis (the what-if engine's test oracle).
//
// The §6 analysis blames dynamic stalls on causes by elimination — "guilty
// until proven innocent" — because DCPI on real hardware could never re-run
// the workload on a different machine. The simulator can: perturb one
// hardware parameter, re-run, and the per-instruction cycles that move are
// *causal* ground truth for the cause that parameter targets. This file
// turns a ProcAnalysis into scoreable claims and scores a claim set against
// a movement set, yielding the precision/recall the what-if engine reports
// (cmd/dcpiwhatif, docs/WHATIF.md).

import "dcpi/internal/alpha"

// Key identifies one (instruction, cause) site.
type Key struct {
	Offset uint64 // image byte offset of the stalled instruction
	Cause  Cause
}

// Claim is one site with the stall cycles behind it. From the analysis it
// is a blame: "the instruction at Offset stalls, and Cause may be
// responsible", with Cycles estimating the total dynamic-stall cycles
// behind it over the profiled interval (per-execution stall x estimated
// frequency), which lets scoring weight big blames over noise. As causal
// ground truth it is a movement: perturbing the hardware parameter that
// targets Cause moved Cycles of the instruction's time (in the direction
// the perturbation predicts).
type Claim struct {
	Key
	Cycles float64
}

// CulpritClaims flattens pa's per-instruction culprit lists into claims.
// Instructions whose total dynamic-stall cycles fall below minCycles are
// skipped — they are within sampling noise and scoring them would punish
// the analysis for refusing to over-interpret noise. One claim is emitted
// per (instruction, cause) pair; an instruction with several surviving
// culprits claims each of them (the analysis reports possible causes, and
// scoring's precision term is what penalizes over-claiming).
func CulpritClaims(pa *ProcAnalysis, minCycles float64) []Claim {
	var out []Claim
	for i := range pa.Insts {
		ia := &pa.Insts[i]
		cyc := ia.DynStall * ia.Freq
		if cyc < minCycles {
			continue
		}
		for _, c := range ia.Culprits {
			out = append(out, Claim{Key{ia.Offset, c.Cause}, cyc})
		}
	}
	return out
}

// Why names what decided the cause at site k for a scoring whose noise
// floor is minCycles: the rule of the instruction's verdict,
// "claim.below_noise" when its stall cycles fall below minCycles (no claim
// could be made), or "stall.none" when it has no record (it did not
// stall). For a claim it names the rule that kept the cause; for a site
// that moved without a claim, the rule that cleared it.
func (pa *ProcAnalysis) Why(k Key, minCycles float64) string {
	ia := &pa.Insts[(k.Offset-pa.BaseOffset)/alpha.InstBytes]
	for _, v := range ia.Verdicts() {
		switch {
		case v.Cause != k.Cause:
		case ia.DynStall*ia.Freq < minCycles:
			return "claim.below_noise"
		default:
			return v.Rule.String()
		}
	}
	return "stall.none"
}

// Score counts how a claim set fared against causal ground truth for one
// cause (or in aggregate).
type Score struct {
	TP int // claimed and the cycles really moved there
	FP int // claimed, but perturbing the cause moved nothing there
	FN int // cycles moved there, but the analysis never blamed the cause

	ClaimedCycles float64 // stall cycles behind all claims
	MovedCycles   float64 // ground-truth cycles that moved
	CaughtCycles  float64 // moved cycles at claimed instructions

	// FPRules and FNRules name the rule behind each false positive and
	// false negative, in no particular order (empty when ScoreClaims was
	// given no why).
	FPRules, FNRules []string
}

// Precision is TP/(TP+FP): of the (instruction, cause) blames made, the
// fraction causally confirmed.
func (s Score) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall is TP/(TP+FN): of the (instruction, cause) pairs whose cycles
// really moved, the fraction the analysis blamed.
func (s Score) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// CycleRecall weighs recall by cycles instead of claim count: the fraction
// of moved cycles that occurred at instructions the analysis blamed.
func (s Score) CycleRecall() float64 {
	if s.MovedCycles == 0 {
		return 0
	}
	return s.CaughtCycles / s.MovedCycles
}

// Add folds another score into s.
func (s *Score) Add(o Score) {
	s.TP += o.TP
	s.FP += o.FP
	s.FN += o.FN
	s.ClaimedCycles += o.ClaimedCycles
	s.MovedCycles += o.MovedCycles
	s.CaughtCycles += o.CaughtCycles
	s.FPRules = append(s.FPRules, o.FPRules...)
	s.FNRules = append(s.FNRules, o.FNRules...)
}

// Sites indexes claims by site, keeping the largest cycles at each: a site
// claimed (or moved) twice counts once, and one with no positive cycles
// not at all.
func Sites(claims []Claim) map[Key]float64 {
	out := make(map[Key]float64, len(claims))
	for _, c := range claims {
		if c.Cycles > out[c.Key] {
			out[c.Key] = c.Cycles
		}
	}
	return out
}

// ScoreClaims scores claimed sites against the sites whose cycles causally
// moved. It returns per-cause scores (zero for a cause in neither set) and
// their aggregate. Offsets must come from the same image namespace on both
// sides; callers scoring several images score each separately and Add the
// totals. why, when non-nil, names the rule behind each false positive and
// false negative (ProcAnalysis.Why).
func ScoreClaims(claimed, moved map[Key]float64, why func(Key) string) (per [NumCauses]Score, total Score) {
	for k, cyc := range claimed {
		s := &per[k.Cause]
		s.ClaimedCycles += cyc
		if mv, ok := moved[k]; ok {
			s.TP++
			s.CaughtCycles += mv
		} else {
			s.FP++
			if why != nil {
				s.FPRules = append(s.FPRules, why(k))
			}
		}
	}
	for k, cyc := range moved {
		s := &per[k.Cause]
		s.MovedCycles += cyc
		if _, ok := claimed[k]; !ok {
			s.FN++
			if why != nil {
				s.FNRules = append(s.FNRules, why(k))
			}
		}
	}
	for _, s := range per {
		total.Add(s)
	}
	return per, total
}
