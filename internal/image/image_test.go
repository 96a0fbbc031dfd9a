package image

import (
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

func TestSymbolAt(t *testing.T) {
	im := testImage(t)
	cases := []struct {
		off  uint64
		want string
		ok   bool
	}{
		{0, "first", true},
		{4, "first", true},
		{8, "first", true},
		{12, "second", true},
		{16, "second", true},
		{20, "", false},
	}
	for _, tc := range cases {
		s, ok := im.SymbolAt(tc.off)
		if ok != tc.ok || (ok && s.Name != tc.want) {
			t.Errorf("SymbolAt(%d) = %q, %v; want %q, %v", tc.off, s.Name, ok, tc.want, tc.ok)
		}
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
