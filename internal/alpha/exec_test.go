package alpha

import (
	"math"
	"testing"
	"testing/quick"
)

// flatMem is a trivial Memory for tests.
type flatMem map[uint64]byte

func (m flatMem) Load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m flatMem) Store(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		m[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

// run executes assembled code starting at pc 0 until HALT or maxSteps.
func run(t *testing.T, src string, setup func(*Regs, flatMem), maxSteps int) (*Regs, flatMem) {
	t.Helper()
	a := MustAssemble(src)
	regs := &Regs{}
	mem := flatMem{}
	if setup != nil {
		setup(regs, mem)
	}
	pc := uint64(0)
	var out Outcome
	for steps := 0; steps < maxSteps; steps++ {
		idx := pc / InstBytes
		if idx >= uint64(len(a.Code)) {
			t.Fatalf("pc %#x outside code", pc)
		}
		Execute(&a.Code[idx], pc, regs, mem, &out)
		if out.Kind == KindIllegal {
			t.Fatalf("illegal instruction %v at %#x", a.Code[idx].Op, pc)
		}
		if out.Kind == KindHalt {
			return regs, mem
		}
		pc = out.NextPC
	}
	t.Fatalf("did not halt in %d steps", maxSteps)
	return nil, nil
}

func TestExecuteArithmetic(t *testing.T) {
	regs, _ := run(t, `
p:
	lda  t0, 100(zero)
	lda  t1, 23(zero)
	addq t0, t1, t2    ; 123
	subq t0, t1, t3    ; 77
	mulq t0, t1, t4    ; 2300
	s4addq t1, t0, t5  ; 4*23+100 = 192
	s8addq t1, t0, t6  ; 8*23+100 = 284
	cmpult t1, t0, t7  ; 1
	cmpeq  t0, t0, t8  ; 1
	cmplt  t1, t0, t9  ; 1
	halt
`, nil, 100)
	want := map[uint8]uint64{
		RegT2: 123, RegT3: 77, RegT4: 2300, RegT5: 192, RegT6: 284,
		RegT7: 1, RegT8: 1, RegT9: 1,
	}
	for r, w := range want {
		if got := regs.I[r]; got != w {
			t.Errorf("%s = %d, want %d", RegName(r), got, w)
		}
	}
}

func TestExecuteNegativeLDA(t *testing.T) {
	regs, _ := run(t, "p:\n lda sp, -64(zero)\n ldah t0, 2(zero)\n halt", nil, 10)
	if got := int64(regs.I[RegSP]); got != -64 {
		t.Errorf("sp = %d, want -64", got)
	}
	if got := regs.I[RegT0]; got != 2*65536 {
		t.Errorf("t0 = %d, want %d", got, 2*65536)
	}
}

func TestExecuteLoadsStores(t *testing.T) {
	regs, mem := run(t, `
p:
	lda  t0, 0x1000(zero)
	lda  t1, 0x1234(zero)
	stq  t1, 0(t0)
	ldq  t2, 0(t0)
	stl  t1, 16(t0)
	ldl  t3, 16(t0)
	halt
`, nil, 20)
	if regs.I[RegT2] != 0x1234 {
		t.Errorf("ldq t2 = %#x", regs.I[RegT2])
	}
	if regs.I[RegT3] != 0x1234 {
		t.Errorf("ldl t3 = %#x", regs.I[RegT3])
	}
	if got := mem.Load(0x1000, 8); got != 0x1234 {
		t.Errorf("mem = %#x", got)
	}
}

func TestExecuteLDLSignExtends(t *testing.T) {
	regs, _ := run(t, `
p:
	ldl t0, 0(zero)
	halt
`, func(r *Regs, m flatMem) {
		m.Store(0, 4, 0xffffffff)
	}, 10)
	if got := int64(regs.I[RegT0]); got != -1 {
		t.Errorf("ldl = %d, want -1", got)
	}
}

func TestExecuteZeroRegister(t *testing.T) {
	regs, _ := run(t, `
p:
	lda  zero, 55(zero)
	addq zero, 7, t0
	addq t0, zero, t1
	halt
`, nil, 10)
	if regs.I[RegZero] != 0 {
		t.Error("zero register was written")
	}
	if regs.I[RegT0] != 7 || regs.I[RegT1] != 7 {
		t.Errorf("t0=%d t1=%d", regs.I[RegT0], regs.I[RegT1])
	}
}

func TestExecuteLoop(t *testing.T) {
	// Sum 1..10.
	regs, _ := run(t, `
p:
	lda t0, 0(zero)    ; i = 0
	lda t1, 0(zero)    ; sum = 0
.loop:
	addq t0, 1, t0
	addq t1, t0, t1
	cmplt t0, 10, t2
	bne t2, .loop
	halt
`, nil, 200)
	if got := regs.I[RegT1]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestExecuteCopyLoop(t *testing.T) {
	// The paper's Figure 2 copy loop, 4x unrolled, n=64 elements.
	const n = 64
	regs, mem := run(t, `
copy:
	lda t0, 4(zero)       ; i = 4 (counts elements copied, by 4)
.loop:
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
	bne   t4, .loop
	halt
`, func(r *Regs, m flatMem) {
		r.I[RegV0] = n + 4 // loop bound (paper's v0)
		r.I[RegT1] = 0x10000
		r.I[RegT2] = 0x20000
		for i := 0; i < n; i++ {
			m.Store(0x10000+uint64(i)*8, 8, uint64(i)*3+1)
		}
	}, 10000)
	_ = regs
	for i := 0; i < n; i++ {
		want := uint64(i)*3 + 1
		if got := mem.Load(0x20000+uint64(i)*8, 8); got != want {
			t.Fatalf("dst[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestExecuteJSRAndRet(t *testing.T) {
	regs, _ := run(t, `
main:
	lda  pv, 20(zero)   ; address of 'callee' (instruction 5)
	jsr  ra, (pv)
	addq v0, 1, s0
	halt
	nop
callee:
	lda v0, 41(zero)
	ret (ra)
`, nil, 50)
	if regs.I[RegS0] != 42 {
		t.Errorf("s0 = %d, want 42", regs.I[RegS0])
	}
}

func TestExecuteFloatingPoint(t *testing.T) {
	regs, _ := run(t, `
p:
	ldt f1, 0(zero)
	ldt f2, 8(zero)
	addt f1, f2, f3
	mult f3, f2, f4
	divt f4, f1, f5
	cmptlt f1, f2, f6
	halt
`, func(r *Regs, m flatMem) {
		m.Store(0, 8, math.Float64bits(1.5))
		m.Store(8, 8, math.Float64bits(2.0))
	}, 20)
	if got := math.Float64frombits(regs.F[3]); got != 3.5 {
		t.Errorf("addt = %v", got)
	}
	if got := math.Float64frombits(regs.F[4]); got != 7.0 {
		t.Errorf("mult = %v", got)
	}
	if got := math.Float64frombits(regs.F[5]); got != 7.0/1.5 {
		t.Errorf("divt = %v", got)
	}
	if regs.F[6] == 0 {
		t.Error("cmptlt should be true")
	}
}

func TestExecuteCMov(t *testing.T) {
	regs, _ := run(t, `
p:
	lda t0, 0(zero)
	lda t1, 9(zero)
	lda t2, 5(zero)
	cmoveq t0, t1, t2  ; t0==0 -> t2 = 9
	cmovne t0, 77, t2  ; t0==0 -> unchanged
	halt
`, nil, 10)
	if regs.I[RegT2] != 9 {
		t.Errorf("t2 = %d, want 9", regs.I[RegT2])
	}
}

func TestExecuteShiftsAndLogic(t *testing.T) {
	regs, _ := run(t, `
p:
	lda t0, 0xff(zero)
	sll t0, 8, t1
	srl t1, 4, t2
	and t0, 0x0f, t3
	bis t3, 0xf0, t4
	xor t4, t0, t5
	bic t0, 0x0f, t6
	ornot zero, t0, t7
	halt
`, nil, 20)
	if regs.I[RegT1] != 0xff00 {
		t.Errorf("sll = %#x", regs.I[RegT1])
	}
	if regs.I[RegT2] != 0xff0 {
		t.Errorf("srl = %#x", regs.I[RegT2])
	}
	if regs.I[RegT3] != 0x0f {
		t.Errorf("and = %#x", regs.I[RegT3])
	}
	if regs.I[RegT4] != 0xff {
		t.Errorf("bis = %#x", regs.I[RegT4])
	}
	if regs.I[RegT5] != 0 {
		t.Errorf("xor = %#x", regs.I[RegT5])
	}
	if regs.I[RegT6] != 0xf0 {
		t.Errorf("bic = %#x", regs.I[RegT6])
	}
	if regs.I[RegT7] != ^uint64(0xff) {
		t.Errorf("ornot = %#x", regs.I[RegT7])
	}
}

func TestExecuteSRA(t *testing.T) {
	regs, _ := run(t, `
p:
	lda t0, -16(zero)
	sra t0, 2, t1
	srl t0, 60, t2
	halt
`, nil, 10)
	if got := int64(regs.I[RegT1]); got != -4 {
		t.Errorf("sra = %d, want -4", got)
	}
	if got := regs.I[RegT2]; got != 0xf {
		t.Errorf("srl = %#x, want 0xf", got)
	}
}

func TestExecutePalHaltBarrier(t *testing.T) {
	a := MustAssemble("p:\n call_pal 0x83\n mb\n halt")
	regs := &Regs{}
	mem := flatMem{}

	var out Outcome
	Execute(&a.Code[0], 0, regs, mem, &out)
	if out.Kind != KindPal || out.Pal != 0x83 {
		t.Errorf("call_pal outcome = %+v", out)
	}
	Execute(&a.Code[1], 4, regs, mem, &out)
	if out.Kind != KindBarrier {
		t.Errorf("mb outcome = %+v", out)
	}
	Execute(&a.Code[2], 8, regs, mem, &out)
	if out.Kind != KindHalt {
		t.Errorf("halt outcome = %+v", out)
	}
	Execute(&Inst{}, 12, regs, mem, &out)
	if out.Kind != KindIllegal || out.NextPC != 16 {
		t.Errorf("OpInvalid outcome = %+v", out)
	}
}

func TestExecuteBranchOutcomes(t *testing.T) {
	cases := []struct {
		op    Op
		val   uint64
		taken bool
	}{
		{OpBEQ, 0, true}, {OpBEQ, 1, false},
		{OpBNE, 0, false}, {OpBNE, 1, true},
		{OpBLT, ^uint64(0), true}, {OpBLT, 1, false},
		{OpBLE, 0, true}, {OpBLE, 1, false},
		{OpBGT, 1, true}, {OpBGT, 0, false},
		{OpBGE, 0, true}, {OpBGE, ^uint64(0), false},
		{OpBLBC, 2, true}, {OpBLBC, 3, false},
		{OpBLBS, 3, true}, {OpBLBS, 2, false},
	}
	for _, tc := range cases {
		regs := &Regs{}
		regs.I[RegT0] = tc.val
		in := Inst{Op: tc.op, Ra: RegT0, Disp: 3}
		var out Outcome
		Execute(&in, 0x100, regs, flatMem{}, &out)
		if out.Taken != tc.taken {
			t.Errorf("%v(%d): taken = %v, want %v", tc.op, tc.val, out.Taken, tc.taken)
		}
		if tc.taken && out.NextPC != 0x100+4+3*4 {
			t.Errorf("%v: nextPC = %#x", tc.op, out.NextPC)
		}
		if !tc.taken && out.NextPC != 0x104 {
			t.Errorf("%v: nextPC = %#x", tc.op, out.NextPC)
		}
	}
}

func TestDestAndSources(t *testing.T) {
	a := MustAssemble(`
p:
	ldq t4, 0(t1)
	stq t4, 8(t2)
	addq t0, t1, t2
	addq t0, 0x4, t0
	bne t4, p
	jsr ra, (pv)
	lda t1, 32(t1)
	cmoveq t0, t1, t2
	mulq a0, a1, v0
`)
	ldq := a.Code[0]
	if d, ok := ldq.Dest(); !ok || d.Reg != RegT4 || d.FP {
		t.Errorf("ldq dest = %+v, %v", d, ok)
	}
	if srcs := ldq.Sources(); len(srcs) != 1 || srcs[0].Reg != RegT1 {
		t.Errorf("ldq sources = %+v", srcs)
	}
	stq := a.Code[1]
	if _, ok := stq.Dest(); ok {
		t.Error("stq should have no dest")
	}
	if srcs := stq.Sources(); len(srcs) != 2 {
		t.Errorf("stq sources = %+v", srcs)
	}
	addq := a.Code[2]
	if d, _ := addq.Dest(); d.Reg != RegT2 {
		t.Errorf("addq dest = %+v", d)
	}
	addqLit := a.Code[3]
	if srcs := addqLit.Sources(); len(srcs) != 1 {
		t.Errorf("addq-lit sources = %+v", srcs)
	}
	bne := a.Code[4]
	if _, ok := bne.Dest(); ok {
		t.Error("bne should have no dest")
	}
	jsr := a.Code[5]
	if d, _ := jsr.Dest(); d.Reg != RegRA {
		t.Errorf("jsr dest = %+v", d)
	}
	cmov := a.Code[7]
	if srcs := cmov.Sources(); len(srcs) != 3 {
		t.Errorf("cmov sources = %+v (cmov must read its destination)", srcs)
	}
	mulq := a.Code[8]
	if mulq.Op.Class() != ClassIntMul {
		t.Errorf("mulq class = %v", mulq.Op.Class())
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpLDQ.IsLoad() || OpSTQ.IsLoad() {
		t.Error("IsLoad wrong")
	}
	if !OpSTQ.IsStore() || OpLDQ.IsStore() {
		t.Error("IsStore wrong")
	}
	if !OpBNE.IsCondBranch() || OpBR.IsCondBranch() {
		t.Error("IsCondBranch wrong")
	}
	for _, op := range []Op{OpBR, OpBNE, OpJMP, OpRET, OpHALT, OpCALLPAL} {
		if !op.EndsBlock() {
			t.Errorf("%v should end a block", op)
		}
	}
	for _, op := range []Op{OpADDQ, OpLDQ, OpSTQ, OpNOP, OpMB} {
		if op.EndsBlock() {
			t.Errorf("%v should not end a block", op)
		}
	}
}

// Property: zap and zapnot with the same mask partition the value.
func TestZapProperty(t *testing.T) {
	f := func(v uint64, mask uint8) bool {
		return zap(v, mask, true)|zap(v, mask, false) == v &&
			zap(v, mask, true)&zap(v, mask, false) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mul128 high word matches the wide product.
func TestMul128Property(t *testing.T) {
	f := func(a, b uint32) bool {
		hi, lo := mul128(uint64(a), uint64(b))
		return hi == 0 && lo == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	hi, _ := mul128(1<<63, 2)
	if hi != 1 {
		t.Errorf("mul128(2^63, 2) hi = %d, want 1", hi)
	}
}

// Property: every opcode renders to a non-empty mnemonic and has a stable
// class; every operate-format op assembles from its own rendering.
func TestOpcodeTableComplete(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		if opInfo[op].name == "" {
			t.Errorf("op %d has no name", op)
		}
		if op.String() == "<invalid>" {
			t.Errorf("op %d renders invalid", op)
		}
		if got, ok := LookupOp(op.String()); !ok || got != op {
			t.Errorf("LookupOp(%q) = %v, %v", op.String(), got, ok)
		}
	}
}
