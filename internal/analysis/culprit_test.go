package analysis

import (
	"strings"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/pipeline"
)

// ruleCase is a minimal procedure whose instruction at stalls, and the
// event maps its analysis sees.
type ruleCase struct {
	src  string
	base uint64 // image offset of the first instruction
	at   int
	// weight overrides the default 100 samples per issue cycle for some
	// instructions, to shape block frequencies.
	weight     map[int]uint64
	imiss, dtb map[uint64]uint64
}

// analyze runs the analysis with clean samples (weight per issue cycle)
// plus a large dynamic stall on instruction at.
func (rc ruleCase) analyze(t *testing.T) *ProcAnalysis {
	t.Helper()
	code := alpha.MustAssemble(rc.src).Code
	clean := AnalyzeProc("p", code, rc.base, nil, nil, pipeline.Default(), 1000)
	perInst := map[int]uint64{}
	for i := range clean.Insts {
		w, ok := rc.weight[i]
		if !ok {
			w = 100
		}
		perInst[i] = uint64(clean.Insts[i].M) * w
	}
	perInst[rc.at] += 5000
	return analyzeMaps(code, rc.base, synthSamples(rc.base, perInst), rc.imiss, rc.dtb, nil)
}

// chain is straight-line code of dependent adds, one issue per cycle:
// index 8 starts the second I-cache line (offset 32), index 9 does not.
var chain = "p:\n" + strings.Repeat("\taddq t0, 1, t0\n", 12) + "\tret (ra)\n"

const storeSrc = `
p:
	addq t0, 1, t0
	stq t0, 0(t1)
	addq t0, 1, t0
	ret (ra)
`

// branchSrc's block .x (index 2) starts with a read of t0, which its
// block does not write: a live-in register.
const branchSrc = `
p:
	beq a0, .x
	addq t0, 1, t0
.x:
	addq t0, 1, t1
	ret (ra)
`

// mpLoopSrc's body (index 1) is entered by a fall-through from a block that
// ends in no branch and by the loop's back edge; the entry block runs
// rarely, the body often.
const mpLoopSrc = `
p:
	lda t0, 0(zero)
.loop:
	addq t0, 1, t0
	cmplt t0, t4, t1
	bne t1, .loop
	ret (ra)
`

// ruleCases holds, for every rule of culpritRules, a procedure the rule
// keeps its cause at and one it clears it at.
var ruleCases = map[string]struct{ keep, clear ruleCase }{
	"culprit.icache_same_line": {
		keep:  ruleCase{src: chain, at: 8},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.icache_no_imiss": {
		keep:  ruleCase{src: chain, at: 8, imiss: map[uint64]uint64{32: 10}},
		clear: ruleCase{src: chain, at: 8, imiss: map[uint64]uint64{}},
	},
	"culprit.itb_same_page": {
		keep:  ruleCase{src: chain, base: pageBytes - 8*alpha.InstBytes, at: 8},
		clear: ruleCase{src: chain, at: 8},
	},
	"culprit.dcache_feeding_load": {
		keep:  ruleCase{src: oracleSrc, at: 2},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.dcache_live_in": {
		keep:  ruleCase{src: branchSrc, at: 2},
		clear: ruleCase{src: strings.Replace(branchSrc, "addq t0, 1, t1", "lda t1, 5(zero)", 1), at: 2},
	},
	"culprit.dtb_mem_op": {
		keep:  ruleCase{src: storeSrc, at: 1},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.dtb_proc_has_no_dtbmiss": {
		keep:  ruleCase{src: storeSrc, at: 1, dtb: map[uint64]uint64{8: 3}},
		clear: ruleCase{src: storeSrc, at: 1, dtb: map[uint64]uint64{1 << 20: 3}},
	},
	"culprit.wb_store": {
		keep:  ruleCase{src: storeSrc, at: 1},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.mp_cond_pred": {
		keep:  ruleCase{src: mpLoopSrc, at: 1, weight: map[int]uint64{0: 4}},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.sync_barrier": {
		keep:  ruleCase{src: strings.Replace(storeSrc, "stq t0, 0(t1)", "mb", 1), at: 1},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.fu_mul_busy": {
		keep:  ruleCase{src: "p:\n\tmulq t0, t1, t2\n\tmulq t3, t4, t5\n\tret (ra)\n", at: 1},
		clear: ruleCase{src: chain, at: 9},
	},
	"culprit.fu_div_busy": {
		keep:  ruleCase{src: "p:\n\tdivt f1, f2, f3\n\tdivt f4, f5, f6\n\tret (ra)\n", at: 1},
		clear: ruleCase{src: chain, at: 9},
	},
}

// TestCulpritRuleTable walks the rule table: every rule must keep its
// cause in one minimal procedure and clear it in another, and the verdict
// must name that rule. Every cause has a rule, every stalled instruction
// holds one verdict per cause, and no verdict is left without a rule.
func TestCulpritRuleTable(t *testing.T) {
	ruled := map[Cause]bool{}
	for r, rl := range culpritRules {
		ruled[rl.cause] = true
		if got := Rule(r + 1).String(); got != rl.name {
			t.Errorf("Rule(%d) = %q, want %q", r+1, got, rl.name)
		}
		cases, ok := ruleCases[rl.name]
		if !ok {
			t.Errorf("rule %s has no keep/clear case", rl.name)
			continue
		}
		for _, tc := range []struct {
			kept bool
			rc   ruleCase
		}{{true, cases.keep}, {false, cases.clear}} {
			pa := tc.rc.analyze(t)
			for i := range pa.Insts {
				vs := pa.Insts[i].Verdicts()
				if len(vs) != 0 && len(vs) != int(CauseOther) {
					t.Errorf("%s: instruction %d holds %d verdicts, want %d", rl.name, i, len(vs), CauseOther)
				}
				for _, v := range vs {
					if v.Rule == 0 {
						t.Errorf("%s: instruction %d: verdict %+v names no rule", rl.name, i, v)
					}
				}
			}
			var got *Verdict
			vs := pa.Insts[tc.rc.at].Verdicts()
			for j := range vs {
				if vs[j].Cause == rl.cause {
					got = &vs[j]
				}
			}
			if got == nil {
				t.Errorf("%s (kept=%v): instruction %d did not stall", rl.name, tc.kept, tc.rc.at)
				continue
			}
			if got.Kept != tc.kept || got.Rule.String() != rl.name {
				t.Errorf("%s case (kept=%v): verdict %v kept=%v by %s", rl.name, tc.kept, got.Cause, got.Kept, got.Rule)
			}
		}
	}
	for c := Cause(0); c < CauseOther; c++ {
		if !ruled[c] {
			t.Errorf("cause %v has no rule", c)
		}
	}
	for name := range ruleCases {
		found := false
		for _, rl := range culpritRules {
			found = found || rl.name == name
		}
		if !found {
			t.Errorf("case for %s, which is not in the table", name)
		}
	}
}

// TestFeedingLoadSeesPastNonLoadProducer pins a known deviation
// (EXPERIMENTS.md): in the copy loop, cmpult redefines t4 between the ldq
// that loads t4 and the bne that tests it, yet the bne's D-cache verdict is
// kept by culprit.dcache_feeding_load with the shadowed ldq as its culprit.
// Fixing feedingLoad to stop at the cmpult clears that verdict and moves the
// pinned evaluation output; this test changes with it.
func TestFeedingLoadSeesPastNonLoadProducer(t *testing.T) {
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
	pa := ruleCase{src: src, base: 0x10, at: 12}.analyze(t)
	bne := &pa.Insts[12]
	if bne.Offset != 0x40 || pa.Insts[0].Offset != 0x10 {
		t.Fatalf("layout: bne at %#x, ldq at %#x; want 0x40 and 0x10", bne.Offset, pa.Insts[0].Offset)
	}
	if d, _ := pa.Insts[7].Inst.Dest(); d.Reg != alpha.RegT4 {
		t.Fatalf("instruction 7 (%v) does not write t4", pa.Insts[7].Inst.Op)
	}
	for _, v := range bne.Verdicts() {
		if v.Cause == CauseDCache {
			if !v.Kept || v.Rule.String() != "culprit.dcache_feeding_load" || v.CulpritIndex != 0 {
				t.Errorf("bne's D-cache verdict = %+v (rule %s), want kept by culprit.dcache_feeding_load with culprit 0 (the shadowed ldq)", v, v.Rule)
			}
			return
		}
	}
	t.Fatal("bne did not stall")
}
