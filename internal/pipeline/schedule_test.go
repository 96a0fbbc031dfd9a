package pipeline

import (
	"testing"

	"dcpi/internal/alpha"
)

// figure2Block is the paper's copy-loop basic block (Figure 2).
const figure2Block = `
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

func scheduleSrc(t *testing.T, src string) ([]alpha.Inst, []SchedInst) {
	t.Helper()
	a := alpha.MustAssemble(src)
	return a.Code, Default().ScheduleBlock(a.Code)
}

// bestCase sums Mᵢ over the block: the "best-case" cycles dcpicalc reports
// (Figure 2's "Best-case 8/13 = 0.62CPI").
func bestCase(sched []SchedInst) int64 {
	var total int64
	for _, s := range sched {
		total += s.M
	}
	return total
}

// TestScheduleCopyLoop validates the static schedule against the paper's
// Figure 2/7: best case is 8 cycles for 13 instructions (0.62 CPI), with
// M=0 exactly at the second-slot instructions shown dual-issued there.
func TestScheduleCopyLoop(t *testing.T) {
	code, sched := scheduleSrc(t, figure2Block)
	if got := bestCase(sched); got != 8 {
		for i, s := range sched {
			t.Logf("%2d %-24s M=%d paired=%v issue=%d", i, code[i], s.M, s.Paired, s.IssueCycle)
		}
		t.Fatalf("best case = %d cycles, want 8", got)
	}
	// Paper's Figure 7: issue points (M>0) at indices 0,2,4,6,8,9,10,12.
	wantM := []int64{1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1}
	for i, s := range sched {
		if s.M != wantM[i] {
			t.Errorf("inst %d (%v): M = %d, want %d", i, code[i], s.M, wantM[i])
		}
	}
	// The stq at index 9 follows another stq: slotting hazard (the paper's
	// "s" annotation before 009834).
	if !sched[9].SlotHazard {
		t.Error("stq after stq should carry a slotting hazard")
	}
	var foundSlot bool
	for _, st := range sched[9].Stalls {
		if st.Kind == StallSlotting {
			foundSlot = true
		}
	}
	if !foundSlot {
		t.Error("slotting stall not recorded")
	}
}

func TestScheduleLoadUseStall(t *testing.T) {
	code, sched := scheduleSrc(t, `
p:
	ldq  t0, 0(t1)
	addq t0, 1, t2
`)
	_ = code
	// addq must wait for the load's 2-cycle latency: issues at cycle 2,
	// became head at cycle 1 -> M = 2, with an Ra dependency on inst 0.
	if sched[1].M != 2 {
		t.Fatalf("consumer M = %d, want 2", sched[1].M)
	}
	if len(sched[1].Stalls) != 1 {
		t.Fatalf("stalls = %+v", sched[1].Stalls)
	}
	st := sched[1].Stalls[0]
	if st.Kind != StallRaDep || st.Culprit != 0 || st.Cycles != 1 {
		t.Errorf("stall = %+v, want RaDep on 0 for 1 cycle", st)
	}
}

func TestScheduleRbDependency(t *testing.T) {
	_, sched := scheduleSrc(t, `
p:
	ldq  t1, 0(t2)
	ldq  t0, 0(t1)
`)
	// Second load's base register (Rb slot) comes from the first load.
	if sched[1].M != 2 {
		t.Fatalf("M = %d, want 2", sched[1].M)
	}
	if st := sched[1].Stalls[0]; st.Kind != StallRbDep {
		t.Errorf("stall kind = %v, want Rb dependency", st.Kind)
	}
}

func TestScheduleMultiplierBusy(t *testing.T) {
	_, sched := scheduleSrc(t, `
p:
	mulq t0, t1, t2
	mulq t3, t4, t5
`)
	// Second multiply waits for the multiplier: issues at cycle 8.
	if sched[1].IssueCycle != 8 {
		t.Fatalf("second mulq issues at %d, want 8", sched[1].IssueCycle)
	}
	var fu bool
	for _, st := range sched[1].Stalls {
		if st.Kind == StallFUDep && st.Culprit == 0 {
			fu = true
		}
	}
	if !fu {
		t.Errorf("FU dependency not recorded: %+v", sched[1].Stalls)
	}
}

func TestScheduleDivider(t *testing.T) {
	_, sched := scheduleSrc(t, `
p:
	divt f1, f2, f3
	divt f4, f5, f6
`)
	if sched[1].IssueCycle != 16 {
		t.Fatalf("second divt issues at %d, want 16", sched[1].IssueCycle)
	}
}

func TestScheduleIndependentPairs(t *testing.T) {
	_, sched := scheduleSrc(t, `
p:
	addq t0, 1, t1
	addq t2, 1, t3
	addq t4, 1, t5
	addq t6, 1, t7
`)
	if got := bestCase(sched); got != 2 {
		t.Fatalf("four independent adds = %d cycles, want 2", got)
	}
	if !sched[1].Paired || !sched[3].Paired || sched[0].Paired || sched[2].Paired {
		t.Errorf("pairing = %v %v %v %v", sched[0].Paired, sched[1].Paired, sched[2].Paired, sched[3].Paired)
	}
}

func TestScheduleDependentChainDoesNotPair(t *testing.T) {
	_, sched := scheduleSrc(t, `
p:
	addq t0, 1, t1
	addq t1, 1, t2
`)
	if sched[1].Paired {
		t.Error("dependent instruction paired")
	}
	// With a 1-cycle integer latency the consumer issues the next cycle
	// with no extra wait: M=1, no recorded stall.
	if sched[1].M != 1 || len(sched[1].Stalls) != 0 {
		t.Errorf("M = %d stalls = %+v, want M=1 with no stalls", sched[1].M, sched[1].Stalls)
	}
}

func TestScheduleBranchSecondSlotOnly(t *testing.T) {
	_, sched := scheduleSrc(t, `
p:
	addq t0, 1, t1
	bne  t2, p
`)
	if !sched[1].Paired {
		t.Error("branch should pair into the second slot")
	}
	_, sched = scheduleSrc(t, `
p:
	bne  t2, p
`)
	if sched[0].M != 1 {
		t.Errorf("solo branch M = %d", sched[0].M)
	}
}

func TestScheduleSoloInstructions(t *testing.T) {
	for _, src := range []string{
		"p:\n mb\n addq t0, 1, t1",
		"p:\n call_pal 0x83\n addq t0, 1, t1",
	} {
		_, sched := scheduleSrc(t, src)
		if sched[1].Paired {
			t.Errorf("instruction paired with solo-issue op in %q", src)
		}
	}
}

func TestCanPairRules(t *testing.T) {
	asm := func(line string) alpha.Inst {
		return alpha.MustAssemble("x:\n " + line).Code[0]
	}
	cases := []struct {
		a, b string
		want bool
	}{
		{"ldq t0, 0(t1)", "ldq t2, 8(t1)", true},
		{"ldq t0, 0(t1)", "addq t3, 1, t4", true},
		{"stq t0, 0(t1)", "cmpult t3, t4, t5", true},
		{"stq t0, 0(t1)", "lda t2, 32(t2)", true},
		{"stq t0, 0(t1)", "stq t2, 8(t1)", false}, // Figure 2's slotting hazard
		{"stq t0, 0(t1)", "ldq t2, 8(t1)", true},
		{"addq t0, 1, t1", "bne t2, x", true},
		{"bne t2, x", "addq t0, 1, t1", false}, // branch only in slot 2
		{"mulq t0, t1, t2", "mulq t3, t4, t5", false},
		{"mulq t0, t1, t2", "stq t3, 0(t4)", false},
		{"divt f1, f2, f3", "divt f4, f5, f6", false},
		{"divt f1, f2, f3", "addt f4, f5, f6", true},
		{"addq t0, 1, t1", "addq t1, 1, t2", false}, // RAW
		{"addq t0, 1, t1", "addq t2, 1, t1", false}, // WAW
		{"addq t0, 1, t1", "stq t1, 0(t2)", false},  // store data RAW
		{"mb", "addq t0, 1, t1", false},
		{"jmp (t0)", "addq t0, 1, t1", false},
	}
	for _, tc := range cases {
		if got := CanPair(asm(tc.a), asm(tc.b)); got != tc.want {
			t.Errorf("CanPair(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLatencyTable(t *testing.T) {
	m := Default()
	cases := []struct {
		line string
		want int64
	}{
		{"addq t0, 1, t1", 1},
		{"lda t0, 8(t1)", 1},
		{"ldq t0, 0(t1)", 2},
		{"mulq t0, t1, t2", 8},
		{"addt f0, f1, f2", 4},
		{"divt f0, f1, f2", 16},
		{"cmoveq t0, t1, t2", 2},
		{"stq t0, 0(t1)", 0},
		{"bsr ra, x", 1},
	}
	for _, tc := range cases {
		in := alpha.MustAssemble("x:\n " + tc.line).Code[0]
		if got := m.Latency(in.Op); got != tc.want {
			t.Errorf("Latency(%s) = %d, want %d", tc.line, got, tc.want)
		}
	}
}

func TestFUse(t *testing.T) {
	m := Default()
	if fu, busy := m.FUse(alpha.OpMULQ); fu != FUMul || busy != 8 {
		t.Errorf("mulq FUse = %v, %d", fu, busy)
	}
	if fu, busy := m.FUse(alpha.OpDIVT); fu != FUDiv || busy != 16 {
		t.Errorf("divt FUse = %v, %d", fu, busy)
	}
	if fu, _ := m.FUse(alpha.OpADDQ); fu != FUNone {
		t.Errorf("addq FUse = %v", fu)
	}
	if FUMul.String() != "IMULL" || FUDiv.String() != "FDIV" || FUNone.String() != "none" {
		t.Error("FU strings wrong")
	}
}

func TestStallKindStrings(t *testing.T) {
	want := map[StallKind]string{
		StallSlotting: "Slotting",
		StallRaDep:    "Ra dependency",
		StallRbDep:    "Rb dependency",
		StallRcDep:    "Rc dependency",
		StallFUDep:    "FU dependency",
		StallNone:     "none",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// Property: M is never negative, and the sum of M equals the last issue
// cycle + 1 for any block (head time is conserved).
func TestScheduleConservation(t *testing.T) {
	srcs := []string{
		figure2Block,
		"p:\n mulq t0, t1, t2\n addq t2, 1, t3\n stq t3, 0(t4)\n bne t3, p",
		"p:\n ldq t0, 0(t1)\n ldq t2, 8(t1)\n addq t0, t2, t3\n stq t3, 16(t1)",
		"p:\n divt f1, f2, f3\n addt f3, f3, f4\n stt f4, 0(t1)",
	}
	for _, src := range srcs {
		code, sched := scheduleSrc(t, src)
		var sum int64
		for i, s := range sched {
			if s.M < 0 {
				t.Errorf("inst %d has negative M", i)
			}
			if s.Paired && s.M != 0 {
				t.Errorf("inst %d paired but M=%d", i, s.M)
			}
			sum += s.M
		}
		last := sched[len(sched)-1]
		if sum != last.IssueCycle+1 {
			t.Errorf("%q: sum(M) = %d, last issue = %d", code[0], sum, last.IssueCycle)
		}
	}
}
