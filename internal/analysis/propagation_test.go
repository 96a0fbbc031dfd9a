package analysis

import (
	"math"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
	"dcpi/internal/pipeline"
)

// TestFlowConservation: after propagation, every block's frequency equals
// the sum of its incoming and outgoing edge frequencies (within rounding),
// for a diamond whose branch split was pinned by samples on both arms.
func TestFlowConservation(t *testing.T) {
	src := `
p:
	addq t0, 1, t1
	beq a0, .else
	mulq t1, t1, t2
	mulq t2, t1, t3
	br .join
.else:
	subq t1, 1, t2
	subq t2, 1, t3
	subq t3, 1, t4
.join:
	addq t3, 1, t5
	ret (ra)
`
	code := alpha.MustAssemble(src).Code
	// Build samples: entry/join run 100 (x 60 samples per issue point);
	// the then-arm runs 30, the else-arm 70.
	sched := pipeline.Default().ScheduleBlock(code)
	_ = sched
	g := cfg.Build(code, 0)
	perInst := map[int]uint64{}
	freqFor := func(b int) uint64 {
		switch b {
		case 1: // then arm (mulq...)
			return 30
		case 2: // else arm
			return 70
		default:
			return 100
		}
	}
	for bi := range g.Blocks {
		blk := g.Blocks[bi]
		bs := pipeline.Default().ScheduleBlock(code[blk.Start:blk.End])
		for j, s := range bs {
			perInst[blk.Start+j] = uint64(s.M) * freqFor(bi) * 3
		}
	}
	pa := AnalyzeProc("p", code, 0, synthSamples(0, perInst), nil, pipeline.Default(), 1000)

	for bi := range pa.Graph.Blocks {
		b := pa.Graph.Blocks[bi]
		var in, out float64
		for _, ei := range b.Preds {
			in += pa.EdgeFreq[ei]
		}
		for _, ei := range b.Succs {
			out += pa.EdgeFreq[ei]
		}
		bf := pa.BlockFreq[bi]
		tol := 0.25*bf + 20
		if math.Abs(in-bf) > tol || math.Abs(out-bf) > tol {
			t.Errorf("block %d: freq %.0f, in %.0f, out %.0f", bi, bf, in, out)
		}
	}
	// The arm split should roughly match 30/70.
	thenF := pa.BlockFreq[1]
	elseF := pa.BlockFreq[2]
	if thenF <= 0 || elseF <= 0 {
		t.Fatalf("arm freqs = %v, %v", thenF, elseF)
	}
	ratio := thenF / (thenF + elseF)
	if ratio < 0.15 || ratio > 0.45 {
		t.Errorf("then-arm share = %.2f, want ≈ 0.30", ratio)
	}
}

// TestEdgeSamplesTakePriorityOverFlowInference: in a triangle CFG whose
// block estimates are mutually inconsistent (sampling noise), the skip edge
// can be derived by flow subtraction — but measured edge samples are a
// direct observation and must win for the undetermined edge.
func TestEdgeSamplesTakePriorityOverFlowInference(t *testing.T) {
	src := `
p:
	addq t0, 1, t1
	beq a0, .skip
	nop
	nop
.skip:
	addq t1, 1, t2
	ret (ra)
`
	code := alpha.MustAssemble(src).Code
	// Block A = insts 0-1 (offset 0,4), arm B = insts 2-3 (8,12),
	// join D = insts 4-5 (16,20). Give A and D ~100 executions' worth of
	// samples and B ~80, but make edge samples say the skip (taken) edge
	// carries only 10%.
	perInst := map[int]uint64{0: 100, 1: 100, 2: 80, 3: 80, 4: 100, 5: 100}
	edgeSamples := map[EdgePair]uint64{
		{From: 4, To: 16}: 10, // beq taken -> .skip head
		{From: 4, To: 8}:  90, // fallthrough -> nop arm
	}
	pa := analyzeMaps(code, 0, synthSamples(0, perInst), nil, nil, edgeSamples)

	g := pa.Graph
	blockA := g.BlockOfInst(0)
	var takenEdge = -1
	for _, ei := range g.Blocks[blockA].Succs {
		if g.Edges[ei].Kind == cfg.EdgeTaken {
			takenEdge = ei
		}
	}
	if takenEdge < 0 {
		t.Fatal("taken edge not found")
	}
	if pa.EdgeSampleCounts[takenEdge] != 10 {
		t.Fatalf("taken edge pair count = %d, want 10", pa.EdgeSampleCounts[takenEdge])
	}
	// The measured split (10%) must drive the estimate, not the flow
	// subtraction (A - B estimates would give ~20%).
	headF := pa.BlockFreq[blockA]
	share := pa.EdgeFreq[takenEdge] / headF
	if share < 0.05 || share > 0.15 {
		t.Errorf("taken edge share = %.3f, want ≈ 0.10 from edge samples", share)
	}
}

// TestCPITimesFreqIdentity: for every instruction with samples and positive
// frequency, CPI * weight == samples exactly (the factoring identity).
func TestCPITimesFreqIdentity(t *testing.T) {
	code := alpha.MustAssemble(loopSrc).Code
	sched := pipeline.Default().ScheduleBlock(code[1:6])
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[1+j] = uint64(s.M)*80 + uint64(j)*13
	}
	pa := analyzeLoop(t, perInst)
	for i := range pa.Insts {
		ia := &pa.Insts[i]
		if ia.Freq <= 0 || ia.Samples == 0 || math.IsInf(ia.CPI, 1) {
			continue
		}
		back := ia.CPI * ia.Freq / pa.Period
		if math.Abs(back-float64(ia.Samples)) > 1e-6*float64(ia.Samples)+1e-9 {
			t.Errorf("inst %d: CPI*f = %v, samples = %d", i, back, ia.Samples)
		}
	}
}

// TestMapEdgeSamplesIgnoresOutOfRange: edge keys outside the procedure are
// dropped rather than misattributed.
func TestMapEdgeSamplesIgnoresOutOfRange(t *testing.T) {
	code := alpha.MustAssemble("p:\n addq t0, 1, t1\n ret (ra)").Code
	edges := map[EdgePair]uint64{
		{From: 999999, To: 0}: 5, // from outside
		{From: 0, To: 999999}: 5, // to outside
		{From: 0, To: 4}:      7, // valid: inst 0 -> inst 1 (same block, not head)
	}
	pa := analyzeMaps(code, 0, map[uint64]uint64{0: 50}, nil, nil, edges)
	if pa.EdgeSampleCounts == nil {
		t.Fatal("edge counts not built")
	}
	for ei, n := range pa.EdgeSampleCounts {
		if n != 0 {
			t.Errorf("edge %d got %d pairs; all keys should have been dropped", ei, n)
		}
	}
}
