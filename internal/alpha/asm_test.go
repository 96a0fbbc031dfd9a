package alpha

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAssembleCopyLoop(t *testing.T) {
	// The copy loop of Figure 2 in the paper.
	src := `
copyloop:
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
	bne   t4, copyloop
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(a.Code), 13; got != want {
		t.Fatalf("got %d instructions, want %d", got, want)
	}
	if len(a.Symbols) != 1 || a.Symbols[0].Name != "copyloop" {
		t.Fatalf("symbols = %+v", a.Symbols)
	}
	if a.Symbols[0].Size != 13*InstBytes {
		t.Errorf("symbol size = %d, want %d", a.Symbols[0].Size, 13*InstBytes)
	}

	first := a.Code[0]
	if first.Op != OpLDQ || first.Ra != RegT4 || first.Rb != RegT1 || first.Disp != 0 {
		t.Errorf("first inst = %+v", first)
	}
	addq := a.Code[1]
	if addq.Op != OpADDQ || !addq.UseLit || addq.Lit != 4 || addq.Ra != RegT0 || addq.Rc != RegT0 {
		t.Errorf("addq = %+v", addq)
	}
	bne := a.Code[12]
	if bne.Op != OpBNE || bne.Ra != RegT4 {
		t.Errorf("bne = %+v", bne)
	}
	// Branch displacement: target index 0 from instruction index 12 => -13.
	if bne.Disp != -13 {
		t.Errorf("bne disp = %d, want -13", bne.Disp)
	}
}

func TestAssembleForwardBranchAndLocalLabels(t *testing.T) {
	src := `
f:
	beq a0, .done
	addq a0, 1, v0
.done:
	ret (ra)
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Symbols) != 1 {
		t.Fatalf("local label leaked into symbols: %+v", a.Symbols)
	}
	if a.Code[0].Disp != 1 {
		t.Errorf("beq disp = %d, want 1", a.Code[0].Disp)
	}
	ret := a.Code[2]
	if ret.Op != OpRET || ret.Ra != RegZero || ret.Rb != RegRA {
		t.Errorf("ret = %+v", ret)
	}
}

func TestAssembleMultipleProcedures(t *testing.T) {
	src := `
alpha_one:
	addq a0, a1, v0
	ret (ra)
beta_two:
	subq a0, a1, v0
	nop
	ret (ra)
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Symbols) != 2 {
		t.Fatalf("symbols = %+v", a.Symbols)
	}
	if a.Symbols[0].Size != 2*InstBytes || a.Symbols[1].Size != 3*InstBytes {
		t.Errorf("sizes = %d, %d", a.Symbols[0].Size, a.Symbols[1].Size)
	}
	if a.Symbols[1].Offset != 2*InstBytes {
		t.Errorf("beta offset = %d", a.Symbols[1].Offset)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown mnemonic", "frobnicate t0, t1, t2", "unknown mnemonic"},
		{"undefined label", "br nowhere", `undefined label "nowhere"`},
		{"duplicate label", "x:\nnop\nx:\nnop", "duplicate label"},
		{"bad register", "addq q9, t0, t1", "bad register"},
		{"bad literal", "addq t0, 999, t1", "bad operand"},
		{"bad memory operand", "ldq t0, t1", "memory operand"},
		{"wrong arity", "nop t1", "takes no operands"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			var ae *AsmError
			if ok := errorsAs(err, &ae); !ok || ae.Line == 0 {
				t.Errorf("error %v missing line info", err)
			}
		})
	}
}

func errorsAs(err error, target **AsmError) bool {
	ae, ok := err.(*AsmError)
	if ok {
		*target = ae
	}
	return ok
}

func TestAssembleCommentStyles(t *testing.T) {
	src := `
p: ; trailing label comment
	nop // slashes
	nop # hash
	nop ; semicolon
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Code) != 3 {
		t.Fatalf("got %d instructions, want 3", len(a.Code))
	}
}

func TestAssemblePalAndJumps(t *testing.T) {
	src := `
syscall_stub:
	call_pal 0x83
	jsr ra, (pv)
	jmp (t0)
	ret zero, (ra)
	mb
	halt
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Code[0].Op != OpCALLPAL || a.Code[0].Pal != 0x83 {
		t.Errorf("call_pal = %+v", a.Code[0])
	}
	jsr := a.Code[1]
	if jsr.Ra != RegRA || jsr.Rb != RegPV {
		t.Errorf("jsr = %+v", jsr)
	}
	jmp := a.Code[2]
	if jmp.Ra != RegZero || jmp.Rb != RegT0 {
		t.Errorf("jmp = %+v", jmp)
	}
}

func TestAssembleFloatingPoint(t *testing.T) {
	src := `
fpk:
	ldt  f1, 0(a0)
	addt f1, f2, f3
	mult f3, f3, f4
	divt f4, f1, f5
	cvtqt f6, f7
	stt  f5, 8(a0)
	fbne f5, fpk
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Code[1].Ra != 1 || a.Code[1].Rb != 2 || a.Code[1].Rc != 3 {
		t.Errorf("addt = %+v", a.Code[1])
	}
	if a.Code[4].Rb != 6 || a.Code[4].Rc != 7 {
		t.Errorf("cvtqt = %+v", a.Code[4])
	}
	if !a.Code[6].Op.IsCondBranch() {
		t.Errorf("fbne not a conditional branch")
	}
}

// TestDisasmRoundTrip re-assembles the disassembly of straight-line code and
// checks it decodes to the same instructions.
func TestDisasmRoundTrip(t *testing.T) {
	src := `
rt:
	ldq t4, 16(t1)
	stl a0, -8(sp)
	addq t0, 0x7f, t0
	subq t1, t2, t3
	mulq a0, a1, v0
	and t0, t1, t2
	sll t0, 3, t1
	cmoveq t0, t1, t2
	zapnot t0, 0xf, t1
	addt f1, f2, f3
	cpys f1, f2, f3
	lda sp, -64(sp)
	jsr ra, (pv)
	ret (ra)
	mb
	nop
`
	a := MustAssemble(src)
	for i, in := range a.Code {
		text := "x: " + in.String()
		b, err := Assemble(text)
		if err != nil {
			t.Fatalf("inst %d: reassemble %q: %v", i, in.String(), err)
		}
		if len(b.Code) != 1 || b.Code[0] != in {
			t.Errorf("inst %d: round trip %q: got %+v, want %+v", i, in.String(), b.Code[0], in)
		}
	}
}

func TestDisasmAt(t *testing.T) {
	a := MustAssemble("loop:\n nop\n bne t4, loop")
	got := a.Code[1].DisasmAt(0x009840)
	if got != "bne t4, 0x00983c" {
		t.Errorf("DisasmAt = %q", got)
	}
}

func TestListing(t *testing.T) {
	a := MustAssemble("p:\n nop\n ret (ra)")
	text := Listing(a.Code, 0x1000)
	if !strings.Contains(text, "001000  nop") || !strings.Contains(text, "001004  ret (ra)") {
		t.Errorf("listing:\n%s", text)
	}
}

func TestLookupReg(t *testing.T) {
	for name, want := range map[string]uint8{
		"v0": 0, "t0": 1, "t7": 8, "s0": 9, "fp": 15, "s6": 15,
		"a0": 16, "a5": 21, "t8": 22, "ra": 26, "pv": 27, "t12": 27,
		"gp": 29, "sp": 30, "zero": 31, "r17": 17, "$5": 5,
	} {
		got, ok := LookupReg(name)
		if !ok || got != want {
			t.Errorf("LookupReg(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	if _, ok := LookupReg("r32"); ok {
		t.Error("r32 should not resolve")
	}
	if _, ok := LookupFPReg("f31"); !ok {
		t.Error("f31 should resolve")
	}
	if _, ok := LookupFPReg("f32"); ok {
		t.Error("f32 should not resolve")
	}
}

func TestLookupOp(t *testing.T) {
	op, ok := LookupOp("LDQ")
	if !ok || op != OpLDQ {
		t.Errorf("LookupOp(LDQ) = %v, %v", op, ok)
	}
	if _, ok := LookupOp("bogus"); ok {
		t.Error("bogus op resolved")
	}
}

// TestAssembleNeverPanics: arbitrary input must produce an error, never a
// panic (the assembler is fed workload-generated source).
func TestAssembleNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Assemble(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Targeted nasties.
	for _, src := range []string{
		":", "::", "a:b:c:", "\x00", "ldq", "ldq ,", "addq ,,,", "br",
		"x: ldq t0, (", "x: ldq t0, )t1(", "call_pal", "rpcc", "ret (",
		"x: addq t0, #, t1", "lda t0, 99999999999999999999(zero)",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Assemble(src)
		}()
	}
}
