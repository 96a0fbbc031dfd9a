package optimize

import (
	"strings"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/cfg"
	"dcpi/internal/pipeline"
)

// runCode executes code functionally until halt and returns the registers.
func runCode(t *testing.T, code []alpha.Inst, setup func(*alpha.Regs, memMap)) *alpha.Regs {
	t.Helper()
	regs := &alpha.Regs{}
	mem := memMap{}
	if setup != nil {
		setup(regs, mem)
	}
	pc := uint64(0)
	var out alpha.Outcome
	for steps := 0; steps < 1_000_000; steps++ {
		idx := pc / alpha.InstBytes
		if idx >= uint64(len(code)) {
			t.Fatalf("pc %#x fell off the code", pc)
		}
		alpha.Execute(&code[idx], pc, regs, mem, &out)
		if out.Kind == alpha.KindIllegal {
			t.Fatalf("illegal instruction %v at %#x", code[idx].Op, pc)
		}
		if out.Kind == alpha.KindHalt {
			return regs
		}
		pc = out.NextPC
	}
	t.Fatal("did not halt")
	return nil
}

type memMap map[uint64]byte

func (m memMap) Load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m memMap) Store(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		m[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

// analyzeWithFreqs builds a ProcAnalysis with synthetic samples that encode
// the desired block frequencies.
func analyzeWithFreqs(t *testing.T, src string, blockFreq map[int]uint64) *analysis.ProcAnalysis {
	t.Helper()
	code := alpha.MustAssemble(src).Code
	pa0 := analysis.AnalyzeProc("p", code, 0, map[uint64]uint64{}, nil, pipeline.Default(), 1000)
	samples := map[uint64]uint64{}
	for bi := range pa0.Graph.Blocks {
		blk := pa0.Graph.Blocks[bi]
		f := blockFreq[bi]
		sched := pipeline.Default().ScheduleBlock(code[blk.Start:blk.End])
		for j, s := range sched {
			samples[uint64(blk.Start+j)*alpha.InstBytes] = uint64(s.M) * f
		}
	}
	return analysis.AnalyzeProc("p", code, 0, samples, nil, pipeline.Default(), 1000)
}

// branchySrc: the loop's conditional usually TAKES the branch to the hot
// arm (the layout pessimizes the common case).
const branchySrc = `
p:
	lda  t0, 1000(zero)
	lda  t5, 0(zero)
.loop:
	and  t0, 0x7, t1
	beq  t1, .cold        ; rarely taken (1 in 8)
	br   .hot             ; usually: extra jump to the hot arm
.cold:
	addq t5, 100, t5
	br   .next
.hot:
	addq t5, 1, t5
.next:
	subq t0, 1, t0
	bne  t0, .loop
	halt
`

func TestReorderPreservesSemantics(t *testing.T) {
	pa := analyzeWithFreqs(t, branchySrc, map[int]uint64{
		0: 1, 1: 100, 2: 100, 3: 12, 4: 88, 5: 100, 6: 1,
	})
	res, err := ReorderProcedure(pa)
	if err != nil {
		t.Fatal(err)
	}
	orig := runCode(t, pa.Graph.Code, nil)
	opt := runCode(t, res.Code, nil)
	if orig.I[alpha.RegT5] != opt.I[alpha.RegT5] {
		t.Fatalf("semantics changed: t5 = %d vs %d", orig.I[alpha.RegT5], opt.I[alpha.RegT5])
	}
	if orig.I[alpha.RegT5] != 88*1+12*100+900 && orig.I[alpha.RegT5] == 0 {
		t.Fatalf("unexpected original result %d", orig.I[alpha.RegT5])
	}
}

func TestReorderStraightensHotPath(t *testing.T) {
	pa := analyzeWithFreqs(t, branchySrc, map[int]uint64{
		0: 1, 1: 100, 2: 100, 3: 12, 4: 88, 5: 100, 6: 1,
	})
	res, err := ReorderProcedure(pa)
	if err != nil {
		t.Fatal(err)
	}
	// The rewrite should remove or invert something: the hot arm should no
	// longer be reached through an unconditional br.
	if res.Inverted+res.RemovedBranches == 0 {
		t.Errorf("no layout improvement: %+v", res)
	}
	// Count dynamic unconditional branches on the hot path: execute and
	// count BR executions.
	count := func(code []alpha.Inst) int {
		regs := &alpha.Regs{}
		mem := memMap{}
		pc := uint64(0)
		brs := 0
		var out alpha.Outcome
		for steps := 0; steps < 1_000_000; steps++ {
			in := &code[pc/alpha.InstBytes]
			if in.Op == alpha.OpBR {
				brs++
			}
			alpha.Execute(in, pc, regs, mem, &out)
			if out.Kind == alpha.KindHalt {
				return brs
			}
			pc = out.NextPC
		}
		t.Fatal("did not halt")
		return 0
	}
	origBRs := count(pa.Graph.Code)
	optBRs := count(res.Code)
	if optBRs >= origBRs {
		t.Errorf("dynamic br executions: %d -> %d, want fewer", origBRs, optBRs)
	}
}

func TestReorderRejectsUnsafe(t *testing.T) {
	cases := []string{
		"p:\n bsr ra, p\n halt",                  // PC-relative call
		"p:\n beq a0, .x\n jmp (t0)\n.x:\n halt", // computed jump (missing edges)
	}
	for _, src := range cases {
		code := alpha.MustAssemble(src).Code
		pa := analysis.AnalyzeProc("p", code, 0, map[uint64]uint64{}, nil, pipeline.Default(), 1000)
		if _, err := ReorderProcedure(pa); err == nil {
			t.Errorf("unsafe procedure accepted: %q", src)
		}
	}
}

// TestInvertibleTableComplete pins the inversion table against the ISA: a
// conditional branch added to alpha without an entry here would previously
// have been rewritten to the zero-value Op (a corrupt instruction) by a
// blind map lookup in emit.
func TestInvertibleTableComplete(t *testing.T) {
	for op := alpha.Op(0); int(op) < alpha.NumOps; op++ {
		if op.IsCondBranch() {
			inv, ok := invertible[op]
			if !ok {
				t.Errorf("conditional branch %v missing from invertible table", op)
				continue
			}
			if !inv.IsCondBranch() {
				t.Errorf("invertible[%v] = %v, not a conditional branch", op, inv)
			}
			if back, ok := invertible[inv]; !ok || back != op {
				t.Errorf("inversion not an involution: %v -> %v -> %v", op, inv, back)
			}
		} else if _, ok := invertible[op]; ok {
			t.Errorf("non-conditional-branch %v present in invertible table", op)
		}
	}
}

// TestEmitFallsBackWhenNotInvertible simulates a conditional branch with no
// sense inversion (by temporarily removing its table entry): emit must fall
// back to the keep-branch-plus-added-br layout instead of emitting a
// zero-value Op.
func TestEmitFallsBackWhenNotInvertible(t *testing.T) {
	saved, had := invertible[alpha.OpBEQ]
	delete(invertible, alpha.OpBEQ)
	defer func() {
		if had {
			invertible[alpha.OpBEQ] = saved
		}
	}()

	pa := analyzeWithFreqs(t, branchySrc, map[int]uint64{
		0: 1, 1: 100, 2: 100, 3: 12, 4: 88, 5: 100, 6: 1,
	})
	res, err := ReorderProcedure(pa)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inverted != 0 {
		t.Errorf("inverted %d branches with an empty inversion entry", res.Inverted)
	}
	for i, in := range res.Code {
		if in.Op == alpha.Op(0) {
			t.Fatalf("corrupt zero-value Op emitted at instruction %d", i)
		}
	}
	orig := runCode(t, pa.Graph.Code, nil)
	opt := runCode(t, res.Code, nil)
	if orig.I[alpha.RegT5] != opt.I[alpha.RegT5] {
		t.Fatalf("semantics changed: t5 = %d vs %d", orig.I[alpha.RegT5], opt.I[alpha.RegT5])
	}
}

// TestEmitRejectsUnencodableDisplacement feeds emit a procedure whose
// rewritten branch would need a displacement beyond Alpha's 21-bit signed
// branch field; the rewrite must fail instead of emitting unencodable code.
func TestEmitRejectsUnencodableDisplacement(t *testing.T) {
	const filler = 1<<20 + 8 // just past the positive displacement limit
	code := make([]alpha.Inst, 0, filler+2)
	// beq over the filler to the halt: encodable as input data (Disp is an
	// int32), but any layout keeps the two blocks > 2^20 instructions apart.
	code = append(code, alpha.Inst{Op: alpha.OpBEQ, Ra: alpha.RegT0, Disp: filler})
	for i := 0; i < filler; i++ {
		code = append(code, alpha.Inst{Op: alpha.OpBIS, Ra: alpha.RegZero, Rb: alpha.RegZero, Rc: alpha.RegT1})
	}
	code = append(code, alpha.Inst{Op: alpha.OpHALT})

	g := cfg.Build(code, 0)
	insts := make([]analysis.InstAnalysis, len(code))
	for i := range code {
		insts[i] = analysis.InstAnalysis{Index: i, Inst: code[i]}
	}
	pa := &analysis.ProcAnalysis{
		Name:      "far",
		Graph:     g,
		Insts:     insts,
		EdgeFreq:  make([]float64, len(g.Edges)),
		BlockFreq: make([]float64, len(g.Blocks)),
	}
	_, err := ReorderProcedure(pa)
	if err == nil {
		t.Fatal("unencodable displacement accepted")
	}
	if !strings.Contains(err.Error(), "21-bit") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestReorderIdempotentOnGoodLayout(t *testing.T) {
	// A loop already laid out hot-fallthrough: nothing to invert, nothing
	// to add.
	src := `
p:
	lda t0, 100(zero)
.loop:
	subq t0, 1, t0
	bne t0, .loop
	halt
`
	pa := analyzeWithFreqs(t, src, map[int]uint64{0: 1, 1: 100, 2: 1})
	res, err := ReorderProcedure(pa)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inverted != 0 || res.AddedBranches != 0 {
		t.Errorf("good layout was disturbed: %+v", res)
	}
	if len(res.Code) != len(pa.Graph.Code) {
		t.Errorf("code size changed: %d -> %d", len(pa.Graph.Code), len(res.Code))
	}
	orig := runCode(t, pa.Graph.Code, nil)
	opt := runCode(t, res.Code, nil)
	if orig.I[alpha.RegT0] != opt.I[alpha.RegT0] {
		t.Error("semantics changed")
	}
}
