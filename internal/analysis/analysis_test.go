package analysis

import (
	"math"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
	"dcpi/internal/pipeline"
)

// analyzeMaps runs Analyze on inputs keyed by image byte offset, the way a
// profile holds them: imiss nil means not collected, dtb nil means not
// monitored, and dtb counts anywhere in the procedure rule the DTB in.
func analyzeMaps(code []alpha.Inst, base uint64, samples, imiss, dtb map[uint64]uint64, edges map[EdgePair]uint64) *ProcAnalysis {
	perInst := func(m map[uint64]uint64) []uint64 {
		out := make([]uint64, len(code))
		for i := range out {
			out[i] = m[base+uint64(i)*alpha.InstBytes]
		}
		return out
	}
	in := Inputs{Samples: perInst(samples), EdgeSamples: edges, DTBCollected: dtb != nil}
	if imiss != nil {
		in.IMissEvents = perInst(imiss)
	}
	hi := base + uint64(len(code))*alpha.InstBytes
	for off, n := range dtb {
		if off >= base && off < hi {
			in.DTBMisses += n
		}
	}
	return Analyze("p", cfg.Build(code, base), in, pipeline.Default(), 1000)
}

// synthSamples builds a sample map from per-instruction (offset index ->
// samples) pairs for code based at base.
func synthSamples(base uint64, perInst map[int]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for idx, n := range perInst {
		out[base+uint64(idx)*alpha.InstBytes] = n
	}
	return out
}

const loopSrc = `
p:
	lda t0, 0(zero)
.loop:
	addq t0, 1, t0
	ldq t2, 0(t3)
	lda t3, 8(t3)
	cmplt t0, t4, t1
	bne t1, .loop
	ret (ra)
`

func analyzeLoop(t *testing.T, perInst map[int]uint64) *ProcAnalysis {
	t.Helper()
	code := alpha.MustAssemble(loopSrc).Code
	samples := synthSamples(0, perInst)
	return AnalyzeProc("p", code, 0, samples, nil, pipeline.Default(), 1000)
}

// TestFrequencyFromCleanLoop: samples exactly proportional to M for the
// loop body must recover the body frequency.
func TestFrequencyFromCleanLoop(t *testing.T) {
	// Static schedule of the body block (indices 1..5): addq+ldq pair?
	// CanPair(addq, ldq) yes — but ldq reads t3 (no dep on addq) — pair.
	// Compute what the scheduler says rather than assuming.
	code := alpha.MustAssemble(loopSrc).Code
	sched := pipeline.Default().ScheduleBlock(code[1:6])
	// Build samples: body f = 50 samples per M cycle; entry/exit tiny.
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[1+j] = uint64(s.M) * 50
	}
	pa := analyzeLoop(t, perInst)
	bodyClass := pa.Graph.BlockClass[pa.Graph.BlockOfInst(1)]
	f := pa.ClassFreq[bodyClass]
	if math.Abs(f-50) > 0.01 {
		t.Errorf("body class freq = %v, want 50", f)
	}
	// Per-instruction frequency scaled by period.
	if got := pa.Insts[1].Freq; math.Abs(got-50*1000) > 1 {
		t.Errorf("inst freq = %v, want 50000", got)
	}
	// CPI of issue points equals their M.
	for j, s := range sched {
		ia := pa.Insts[1+j]
		if s.M > 0 && math.Abs(ia.CPI-float64(s.M)) > 0.01 {
			t.Errorf("inst %d CPI = %v, want %d", 1+j, ia.CPI, s.M)
		}
	}
}

// TestFrequencyIgnoresStalledIssuePoints: one issue point carries a huge
// dynamic stall; cluster selection must not let it inflate the estimate.
func TestFrequencyIgnoresStalledIssuePoints(t *testing.T) {
	code := alpha.MustAssemble(loopSrc).Code
	sched := pipeline.Default().ScheduleBlock(code[1:6])
	perInst := map[int]uint64{}
	issuePoints := 0
	for j, s := range sched {
		perInst[1+j] = uint64(s.M) * 50
		if s.M > 0 {
			issuePoints++
		}
	}
	if issuePoints < 3 {
		t.Skip("need >= 3 issue points for this test")
	}
	// Inflate one issue point by 20x (a dynamic stall).
	for j, s := range sched {
		if s.M > 0 {
			perInst[1+j] *= 20
			break
		}
	}
	pa := analyzeLoop(t, perInst)
	bodyClass := pa.Graph.BlockClass[pa.Graph.BlockOfInst(1)]
	f := pa.ClassFreq[bodyClass]
	if f > 70 {
		t.Errorf("stalled issue point inflated estimate: f = %v", f)
	}
	// The stalled instruction should show a dynamic stall.
	var foundStall bool
	for _, ia := range pa.Insts[1:6] {
		if ia.DynStall > 5 {
			foundStall = true
		}
	}
	if !foundStall {
		t.Error("no dynamic stall detected")
	}
}

// TestPropagationFillsUnsampledBlocks: the exit block gets no samples but
// flow constraints pin its frequency via the loop-exit edge.
func TestPropagationFillsUnsampledBlocks(t *testing.T) {
	code := alpha.MustAssemble(loopSrc).Code
	sched := pipeline.Default().ScheduleBlock(code[1:6])
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[1+j] = uint64(s.M) * 200
	}
	perInst[0] = 4 // entry block lightly sampled
	// Exit block (ret, index 6): zero samples.
	pa := analyzeLoop(t, perInst)
	exitBlock := pa.Graph.BlockOfInst(6)
	f := pa.BlockFreq[exitBlock]
	if f < 0 {
		t.Fatal("exit block frequency unknown after propagation")
	}
	entryBlock := pa.Graph.BlockOfInst(0)
	// Entry and exit should agree (both run once per call).
	if pa.BlockFreq[entryBlock] >= 0 && math.Abs(f-pa.BlockFreq[entryBlock]) > 0.6*pa.BlockFreq[entryBlock]+1 {
		t.Errorf("exit freq %v vs entry freq %v", f, pa.BlockFreq[entryBlock])
	}
}

func TestZeroSampleClassesAreZeroFreq(t *testing.T) {
	// Samples only on the entry block: the loop never ran.
	pa := analyzeLoop(t, map[int]uint64{0: 100})
	bodyClass := pa.Graph.BlockClass[pa.Graph.BlockOfInst(1)]
	if f := pa.ClassFreq[bodyClass]; f != 0 {
		t.Errorf("unsampled body freq = %v, want 0", f)
	}
}

func TestConfidenceLevels(t *testing.T) {
	code := alpha.MustAssemble(loopSrc).Code
	sched := pipeline.Default().ScheduleBlock(code[1:6])
	// Clean, plentiful samples: high or medium confidence.
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[1+j] = uint64(s.M) * 500
	}
	pa := analyzeLoop(t, perInst)
	bodyClass := pa.Graph.BlockClass[pa.Graph.BlockOfInst(1)]
	if pa.ClassConf[bodyClass] == ConfLow {
		t.Error("clean large class got low confidence")
	}
	// Tiny sample counts: low confidence.
	perInst = map[int]uint64{}
	for j, s := range sched {
		perInst[1+j] = uint64(s.M) * 3
	}
	pa = analyzeLoop(t, perInst)
	if pa.ClassConf[pa.Graph.BlockClass[pa.Graph.BlockOfInst(1)]] != ConfLow {
		t.Error("sparse class should be low confidence")
	}
	if ConfHigh.String() != "high" || ConfMedium.String() != "medium" || ConfLow.String() != "low" {
		t.Error("confidence strings")
	}
}

func TestCulpritRules(t *testing.T) {
	// A block with a load feeding a store (D-cache candidate with culprit),
	// plus enough stall samples to trigger analysis.
	src := `
p:
	ldq t4, 0(t1)
	addq t0, 4, t0
	stq t4, 0(t2)
	cmpult t0, v0, t4
	bne t4, p
`
	code := alpha.MustAssemble(src).Code
	sched := pipeline.Default().ScheduleBlock(code)
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[j] = uint64(s.M) * 100
	}
	// Give the stq a big dynamic stall.
	perInst[2] += 5000
	pa := AnalyzeProc("p", code, 0, synthSamples(0, perInst), nil, pipeline.Default(), 1000)

	stq := pa.Insts[2]
	if stq.DynStall < 10 {
		t.Fatalf("stq dynamic stall = %v", stq.DynStall)
	}
	causes := map[Cause]Verdict{}
	for _, c := range stq.Culprits {
		causes[c.Cause] = c
	}
	if c, ok := causes[CauseDCache]; !ok || c.CulpritIndex != 0 {
		t.Errorf("D-cache culprit = %+v, want load at 0", causes[CauseDCache])
	}
	if _, ok := causes[CauseDTB]; !ok {
		t.Error("DTB should be possible for a store")
	}
	if _, ok := causes[CauseWB]; !ok {
		t.Error("write buffer should be possible for a store")
	}
	if _, ok := causes[CauseBranchMP]; ok {
		t.Error("mid-block store cannot stall on mispredict")
	}
	if _, ok := causes[CauseSync]; ok {
		t.Error("store is not a barrier")
	}
}

func TestCulpritICacheSameLineRule(t *testing.T) {
	// Two tiny blocks in the same 32-byte cache line: the second block's
	// head cannot stall on an I-cache miss... unless it starts a line.
	src := `
p:
	beq a0, .x
	nop
.x:
	addq t0, 1, t1
	ret (ra)
`
	code := alpha.MustAssemble(src).Code
	// Place everything within one line (base offset 0, 5 insts = 20B < 32B).
	perInst := map[int]uint64{0: 100, 1: 50, 2: 3000, 3: 50, 4: 50}
	pa := AnalyzeProc("p", code, 0, synthSamples(0, perInst), nil, pipeline.Default(), 1000)
	head := pa.Insts[2] // .x block head
	var hasICache bool
	for _, c := range head.Culprits {
		if c.Cause == CauseICache {
			hasICache = true
		}
	}
	if hasICache {
		t.Error("same-line rule failed to rule out I-cache miss")
	}
	// Mispredict remains possible (conditional predecessor).
	var hasMP bool
	for _, c := range head.Culprits {
		if c.Cause == CauseBranchMP {
			hasMP = true
		}
	}
	if !hasMP {
		t.Error("mispredict should be possible at a conditional join")
	}

	// Same code based at an offset that puts the .x head exactly at a line
	// start: now I-cache is possible.
	base := uint64(32 - 2*alpha.InstBytes) // head (index 2) lands on 32
	pa = AnalyzeProc("p", code, base, synthSamples(base, perInst), nil, pipeline.Default(), 1000)
	hasICache = false
	for _, c := range pa.Insts[2].Culprits {
		if c.Cause == CauseICache {
			hasICache = true
		}
	}
	if !hasICache {
		t.Error("line-start block head should keep I-cache as candidate")
	}
}

func TestCulpritIMissBound(t *testing.T) {
	// With IMISS data present and zero events at the instruction, I-cache
	// is ruled out even at a line start.
	// Two issue points (the ldq and the dependent subq chain) so the
	// cluster heuristic can see the ldq's stall; a lone issue point would
	// be absorbed into the frequency estimate (paper §6.1.3, challenge 1).
	src := `
p:
	ldq t0, 0(t1)
	addq t2, 1, t3
	subq t3, 1, t4
	ret (ra)
`
	code := alpha.MustAssemble(src).Code
	perInst := map[int]uint64{0: 5000, 1: 0, 2: 100, 3: 0}
	imiss := map[uint64]uint64{} // collected, but empty
	pa := AnalyzeProc("p", code, 0, synthSamples(0, perInst), imiss, pipeline.Default(), 1000)
	for _, c := range pa.Insts[0].Culprits {
		if c.Cause == CauseICache {
			t.Error("zero IMISS events should rule out I-cache")
		}
	}
	// With events present, the candidate carries a bound.
	imiss[0] = 10
	pa = AnalyzeProc("p", code, 0, synthSamples(0, perInst), imiss, pipeline.Default(), 1000)
	var bound float64 = -2
	for _, c := range pa.Insts[0].Culprits {
		if c.Cause == CauseICache {
			bound = c.BoundCycles
		}
	}
	if bound <= 0 {
		t.Errorf("I-cache bound = %v, want positive bound", bound)
	}
}

func TestCulpritFU(t *testing.T) {
	src := `
p:
	mulq t0, t1, t2
	mulq t3, t4, t5
	ret (ra)
`
	code := alpha.MustAssemble(src).Code
	sched := pipeline.Default().ScheduleBlock(code)
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[j] = uint64(s.M) * 100
	}
	perInst[1] += 3000 // extra dynamic stall on the second multiply
	pa := AnalyzeProc("p", code, 0, synthSamples(0, perInst), nil, pipeline.Default(), 1000)
	var fu bool
	for _, c := range pa.Insts[1].Culprits {
		if c.Cause == CauseFUMul && c.CulpritIndex == 0 {
			fu = true
		}
	}
	if !fu {
		t.Errorf("FU culprit missing: %+v", pa.Insts[1].Culprits)
	}
}

func TestSummaryAccounting(t *testing.T) {
	code := alpha.MustAssemble(loopSrc).Code
	sched := pipeline.Default().ScheduleBlock(code[1:6])
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[1+j] = uint64(s.M) * 100
	}
	perInst[2] += 2000 // dynamic stall on the load consumer
	pa := analyzeLoop(t, perInst)
	s := pa.Summary
	if s.TotalSamples == 0 {
		t.Fatal("no samples in summary")
	}
	// Execution + static + dynamic should account for roughly everything.
	static := s.SubtotalStatic()
	covered := s.Execution + static + s.DynTotal
	if covered < 0.9 || covered > 1.1 {
		t.Errorf("accounted fraction = %v (exec %v, static %v, dyn %v)",
			covered, s.Execution, static, s.DynTotal)
	}
	// Min bounds never exceed max bounds.
	for c := Cause(0); c < NumCauses; c++ {
		if s.DynMin[c] > s.DynMax[c]+1e-9 {
			t.Errorf("%v: min %v > max %v", c, s.DynMin[c], s.DynMax[c])
		}
	}
}

func TestBestAndActualCPI(t *testing.T) {
	// The paper's Figure 2 block as a straight loop; clean samples give
	// actual == best-case.
	src := `
loop:
	ldq   t4, 0(t1)
	addq  t0, 0x4, t0
	ldq   t5, 8(t1)
	ldq   t6, 16(t1)
	ldq   a0, 24(t1)
	lda   t1, 32(t1)
	stq   t4, 0(t2)
	cmpult t0, v0, t4
	stq   t5, 8(t2)
	stq   t6, 16(t2)
	stq   a0, 24(t2)
	lda   t2, 32(t2)
	bne   t4, loop
`
	code := alpha.MustAssemble(src).Code
	sched := pipeline.Default().ScheduleBlock(code)
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[j] = uint64(s.M) * 100
	}
	pa := AnalyzeProc("copy", code, 0, synthSamples(0, perInst), nil, pipeline.Default(), 1000)
	if math.Abs(pa.BestCaseCPI-8.0/13.0) > 0.01 {
		t.Errorf("best-case CPI = %v, want 0.615", pa.BestCaseCPI)
	}
	if math.Abs(pa.ActualCPI-pa.BestCaseCPI) > 0.05 {
		t.Errorf("actual CPI = %v, want ≈ best case for clean samples", pa.ActualCPI)
	}
	// Now add the paper's dynamic stalls on the stores.
	perInst[6] += 2700
	perInst[10] += 17000
	pa = AnalyzeProc("copy", code, 0, synthSamples(0, perInst), nil, pipeline.Default(), 1000)
	if pa.ActualCPI < 2 {
		t.Errorf("actual CPI = %v, want >> best case with store stalls", pa.ActualCPI)
	}
	if pa.Summary.DynMax[CauseWB] == 0 {
		t.Error("write-buffer share missing from summary")
	}
	if pa.Summary.DynMax[CauseDCache] == 0 {
		t.Error("D-cache share missing from summary")
	}
}

func TestCauseStringsAndLetters(t *testing.T) {
	seen := map[byte]bool{}
	for c := Cause(0); c < NumCauses; c++ {
		if c.String() == "" {
			t.Errorf("cause %d has no name", c)
		}
		l := c.Letter()
		if l == '?' && c != CauseOther {
			t.Errorf("cause %v has no letter", c)
		}
		if seen[l] {
			t.Errorf("duplicate letter %c", l)
		}
		seen[l] = true
	}
}

func TestEmptyProcedure(t *testing.T) {
	pa := AnalyzeProc("empty", nil, 0, nil, nil, pipeline.Default(), 1000)
	if pa.Summary.TotalSamples != 0 || len(pa.Insts) != 0 {
		t.Error("empty procedure should produce empty analysis")
	}
}
