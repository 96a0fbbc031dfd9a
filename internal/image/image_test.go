package image

import (
	"reflect"
	"testing"

	"dcpi/internal/alpha"
)

func testImage(t *testing.T) *Image {
	t.Helper()
	asm := alpha.MustAssemble(`
first:
	nop
	addq t0, 1, t0
	ret (ra)
second:
	subq t0, 1, t0
	ret (ra)
`)
	im := New("test.so", "/usr/shlib/test.so", KindShared, asm)
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	return im
}

// SplitCounts attributes an aligned offset to its instruction and, with an
// unaligned one, to the procedure whose range holds it; what no procedure
// holds is rest, whether it names an instruction between procedures or lies
// past the code.
func TestSplitCounts(t *testing.T) {
	im := testImage(t) // first: offsets 0-11, second: 12-19
	counts := map[uint64]uint64{0: 1, 4: 2, 8: 4, 6: 8, 12: 16, 16: 32, 20: 64, 22: 128}
	perProc, perInst, rest := im.SplitCounts(counts)
	if want := []uint64{15, 48}; !reflect.DeepEqual(perProc, want) {
		t.Errorf("perProc = %v, want %v", perProc, want)
	}
	if want := []uint64{1, 2, 4, 16, 32}; !reflect.DeepEqual(perInst, want) {
		t.Errorf("perInst = %v, want %v", perInst, want)
	}
	if rest != 192 {
		t.Errorf("rest = %d, want 192", rest)
	}

	// Only "second" is a procedure: "first"'s instructions are rest.
	gap := *im
	gap.Symbols = im.Symbols[1:]
	perProc, perInst, rest = gap.SplitCounts(counts)
	if !reflect.DeepEqual(perProc, []uint64{48}) || len(perInst) != 5 || rest != 15+192 {
		t.Errorf("with a gap: perProc %v, perInst %v, rest %d; want [48], 5 instructions, 207", perProc, perInst, rest)
	}
	if perProc, perInst, rest := im.SplitCounts(nil); len(perProc) != 2 || len(perInst) != 5 || rest != 0 {
		t.Errorf("no counts: perProc %v, perInst %v, rest %d", perProc, perInst, rest)
	}
}

func TestProcCode(t *testing.T) {
	im := testImage(t)
	code, off, err := im.ProcCode("second")
	if err != nil {
		t.Fatal(err)
	}
	if off != 12 || len(code) != 2 || code[0].Op != alpha.OpSUBQ {
		t.Errorf("ProcCode = %v at %d", code, off)
	}
	if _, _, err := im.ProcCode("missing"); err == nil {
		t.Error("missing procedure resolved")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	im := testImage(t)
	im.Symbols[1].Offset = 8 // overlaps first
	if err := im.Validate(); err == nil {
		t.Error("overlap not caught")
	}
}

func TestValidateCatchesOverrun(t *testing.T) {
	im := testImage(t)
	im.Symbols[1].Size = 1000
	if err := im.Validate(); err == nil {
		t.Error("overrun not caught")
	}
}

func TestKindString(t *testing.T) {
	if KindExecutable.String() != "executable" || KindShared.String() != "shared" || KindKernel.String() != "kernel" {
		t.Error("kind strings wrong")
	}
}
