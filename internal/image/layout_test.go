package image

import (
	"strings"
	"testing"

	"dcpi/internal/alpha"
)

// layoutImage: three procedures, the middle one with an internal branch so
// displacement preservation is observable.
func layoutImage(t *testing.T) *Image {
	t.Helper()
	asm := alpha.MustAssemble(`
entry:
	nop
	ret (ra)
mid:
	beq t0, .done
	addq t1, 1, t1
.done:
	ret (ra)
tail:
	subq t1, 1, t1
	ret (ra)
`)
	im := New("lay.so", "/usr/shlib/lay.so", KindShared, asm)
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	return im
}

func fullLayout(im *Image, order ...string) Layout {
	lay := Layout{Path: im.Path}
	for _, n := range order {
		lay.Procs = append(lay.Procs, ProcLayout{Name: n})
	}
	return lay
}

func TestWithLayoutReorders(t *testing.T) {
	im := layoutImage(t)
	out, err := im.WithLayout(fullLayout(im, "entry", "tail", "mid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Code) != len(im.Code) {
		t.Fatalf("code size changed: %d -> %d", len(im.Code), len(out.Code))
	}
	// entry stays at 0; tail now precedes mid.
	se, _ := out.Symbol("entry")
	st, _ := out.Symbol("tail")
	sm, _ := out.Symbol("mid")
	if se.Offset != 0 || st.Offset >= sm.Offset {
		t.Errorf("order wrong: entry=%d tail=%d mid=%d", se.Offset, st.Offset, sm.Offset)
	}
	// mid's internal branch still reaches its own .done.
	code, _, err := out.ProcCode("mid")
	if err != nil {
		t.Fatal(err)
	}
	if code[0].Op != alpha.OpBEQ || code[0].Disp != 1 {
		t.Errorf("mid's branch disturbed: %+v", code[0])
	}
	if err := out.Validate(); err != nil {
		t.Error(err)
	}
	// The original image is untouched.
	if s, _ := im.Symbol("mid"); s.Offset != 2*alpha.InstBytes {
		t.Error("receiver was modified")
	}
}

func TestWithLayoutReplacesBody(t *testing.T) {
	im := layoutImage(t)
	// Replace tail with a longer body; following offsets must shift.
	body := []alpha.Inst{
		{Op: alpha.OpSUBQ, Ra: alpha.RegT1, UseLit: true, Lit: 1, Rc: alpha.RegT1},
		{Op: alpha.OpNOP},
		{Op: alpha.OpRET, Ra: alpha.RegZero, Rb: alpha.RegRA},
	}
	lay := fullLayout(im, "entry", "tail", "mid")
	lay.Procs[1].Code = body
	out, err := im.WithLayout(lay)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Code) != len(im.Code)+1 {
		t.Fatalf("code size = %d, want %d", len(out.Code), len(im.Code)+1)
	}
	st, _ := out.Symbol("tail")
	if st.Size != uint64(len(body))*alpha.InstBytes {
		t.Errorf("tail size = %d", st.Size)
	}
	sm, _ := out.Symbol("mid")
	if sm.Offset != st.Offset+st.Size {
		t.Errorf("mid not contiguous after tail: %d vs %d", sm.Offset, st.Offset+st.Size)
	}
}

func TestWithLayoutCarriesLines(t *testing.T) {
	im := layoutImage(t)
	out, err := im.WithLayout(fullLayout(im, "entry", "tail", "mid"))
	if err != nil {
		t.Fatal(err)
	}
	// An unmodified procedure keeps its source lines at its new offsets.
	so, _ := im.Symbol("tail")
	sn, _ := out.Symbol("tail")
	if got, want := out.Lines[sn.Offset/alpha.InstBytes], im.Lines[so.Offset/alpha.InstBytes]; got != want {
		t.Errorf("tail line = %d, want %d", got, want)
	}
	// A replaced body has no line info.
	lay := fullLayout(im, "entry", "mid", "tail")
	lay.Procs[2].Code = []alpha.Inst{{Op: alpha.OpRET, Ra: alpha.RegZero, Rb: alpha.RegRA}}
	out2, err := im.WithLayout(lay)
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := out2.Symbol("tail")
	if got := out2.Lines[sr.Offset/alpha.InstBytes]; got != 0 {
		t.Errorf("replaced body has line %d, want 0", got)
	}
}

func TestWithLayoutRejectsBadLayouts(t *testing.T) {
	im := layoutImage(t)
	cases := []struct {
		name string
		lay  Layout
		want string
	}{
		{"wrong path", Layout{Path: "/other.so", Procs: fullLayout(im, "entry", "mid", "tail").Procs}, "targets"},
		{"missing proc", fullLayout(im, "entry", "mid"), "lists 2"},
		{"duplicate", fullLayout(im, "entry", "mid", "mid"), "twice"},
		{"unknown proc", fullLayout(im, "entry", "mid", "nope"), "no procedure"},
		{"entry not first", fullLayout(im, "mid", "entry", "tail"), "must stay first"},
	}
	for _, tc := range cases {
		if _, err := im.WithLayout(tc.lay); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestWithLayoutRejectsCrossProcBranch(t *testing.T) {
	// A bsr from one procedure into another would be silently retargeted by
	// any relocation; WithLayout must refuse.
	asm := alpha.MustAssemble(`
main:
	bsr ra, helper
	ret (ra)
helper:
	ret (ra)
`)
	im := New("x.so", "/x.so", KindShared, asm)
	_, err := im.WithLayout(fullLayout(im, "main", "helper"))
	if err == nil || !strings.Contains(err.Error(), "outside the procedure") {
		t.Errorf("cross-procedure bsr accepted: %v", err)
	}
}

func TestLayoutDigestStable(t *testing.T) {
	im := layoutImage(t)
	a := fullLayout(im, "entry", "mid", "tail")
	b := fullLayout(im, "entry", "mid", "tail")
	if a.Digest() != b.Digest() {
		t.Error("equal layouts digest differently")
	}
	c := fullLayout(im, "entry", "tail", "mid")
	if a.Digest() == c.Digest() {
		t.Error("different orders digest equal")
	}
	d := fullLayout(im, "entry", "mid", "tail")
	d.Procs[1].Code = []alpha.Inst{{Op: alpha.OpRET, Ra: alpha.RegZero, Rb: alpha.RegRA}}
	if a.Digest() == d.Digest() {
		t.Error("replaced body digests equal to original")
	}
	// Set digest is order-independent over paths.
	l2 := Layout{Path: "/zz.so", Procs: []ProcLayout{{Name: "e"}}}
	if LayoutsDigest([]Layout{a, l2}) != LayoutsDigest([]Layout{l2, a}) {
		t.Error("LayoutsDigest depends on slice order")
	}
	if LayoutsDigest(nil) != "" {
		t.Error("empty rewrite set has a digest")
	}
}
