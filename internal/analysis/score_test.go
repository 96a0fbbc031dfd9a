package analysis

import (
	"math"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/pipeline"
)

// oracleSrc is built so ground truth is known by construction: the addq at
// index 2 consumes the load's result and can stall on nothing else. It sits
// mid-block (no mispredict), off any cache-line start (no I-cache), is not
// a memory op (no DTB/WB), and uses no long-latency unit (no FU). With
// IMISS and DTBMISS event maps present-but-empty, the elimination rules
// must leave exactly one culprit: a D-cache miss on the load at index 0.
const oracleSrc = `
p:
	ldq t0, 0(t1)
	addq t2, 1, t3
	addq t0, 1, t4
	subq t3, 2, t5
	ret (ra)
`

// analyzeOracle runs the full analysis over oracleSrc with a large dynamic
// stall injected on the consumer, and returns the analysis plus the
// consumer's image offset.
func analyzeOracle(t *testing.T) (*ProcAnalysis, uint64) {
	t.Helper()
	code := alpha.MustAssemble(oracleSrc).Code
	sched := pipeline.Default().ScheduleBlock(code)
	perInst := map[int]uint64{}
	for j, s := range sched {
		perInst[j] = uint64(s.M) * 100
	}
	perInst[2] += 5000 // the injected stall: only the D-cache can explain it
	pa := analyzeMaps(code, 0, synthSamples(0, perInst),
		map[uint64]uint64{}, // IMISS collected, none here: I-cache out
		map[uint64]uint64{}, // DTBMISS collected, none here: DTB out
		nil)
	return pa, 2 * alpha.InstBytes
}

// TestSyntheticOracleScoresPerfectly is the satellite-(d) positive case:
// when the analysis blames exactly the cause that ground truth confirms,
// precision and recall must both be 1.0.
func TestSyntheticOracleScoresPerfectly(t *testing.T) {
	pa, stallOff := analyzeOracle(t)

	consumer := &pa.Insts[2]
	if consumer.DynStall < 10 {
		t.Fatalf("consumer dynamic stall = %v, want large", consumer.DynStall)
	}
	if len(consumer.Culprits) != 1 || consumer.Culprits[0].Cause != CauseDCache {
		t.Fatalf("culprits = %+v, want exactly one D-cache blame", consumer.Culprits)
	}
	if consumer.Culprits[0].CulpritIndex != 0 {
		t.Errorf("culprit index = %d, want the load at 0", consumer.Culprits[0].CulpritIndex)
	}

	claims := CulpritClaims(pa, 1000)
	if len(claims) != 1 {
		t.Fatalf("claims = %+v, want exactly the consumer's D-cache claim", claims)
	}
	if claims[0].Offset != stallOff || claims[0].Cause != CauseDCache {
		t.Fatalf("claim = %+v, want D-cache at offset %d", claims[0], stallOff)
	}
	wantCyc := consumer.DynStall * consumer.Freq
	if math.Abs(claims[0].Cycles-wantCyc) > 1e-6 {
		t.Errorf("claim cycles = %v, want DynStall*Freq = %v", claims[0].Cycles, wantCyc)
	}

	// Ground truth by construction: halving D-cache latency moves cycles at
	// exactly the stalled instruction, nowhere else.
	truth := []Claim{{Key{stallOff, CauseDCache}, wantCyc}}
	per, total := ScoreClaims(Sites(claims), Sites(truth), nil)
	if total.Precision() != 1 || total.Recall() != 1 {
		t.Errorf("oracle score P=%v R=%v, want 1.0/1.0 (%+v)", total.Precision(), total.Recall(), total)
	}
	if total.CycleRecall() != 1 {
		t.Errorf("cycle recall = %v, want 1.0", total.CycleRecall())
	}
	s := per[CauseDCache]
	if s.TP != 1 || s.FP != 0 || s.FN != 0 {
		t.Errorf("per-cause D-cache score = %+v, want TP=1 FP=0 FN=0", s)
	}
	for c, cs := range per {
		if Cause(c) != CauseDCache && cs.TP+cs.FP+cs.FN != 0 {
			t.Errorf("%v scored %+v, want only the D-cache scored", Cause(c), cs)
		}
	}
}

// TestMisblamedBreakdownIsCaught is the satellite-(d) negative case: a
// deliberately wrong blame — the stall attributed to the I-cache when the
// cycles causally moved with the D-cache — must surface as both a false
// positive (the bogus claim) and a false negative (the missed real cause).
func TestMisblamedBreakdownIsCaught(t *testing.T) {
	pa, stallOff := analyzeOracle(t)
	good := CulpritClaims(pa, 1000)
	bad := make([]Claim, len(good))
	for i, c := range good {
		bad[i] = c
		bad[i].Cause = CauseICache // the deliberate mis-blame
	}
	truth := []Claim{{Key{stallOff, CauseDCache}, good[0].Cycles}}
	per, total := ScoreClaims(Sites(bad), Sites(truth), nil)
	if total.Precision() != 0 || total.Recall() != 0 {
		t.Errorf("mis-blame scored P=%v R=%v, want 0/0", total.Precision(), total.Recall())
	}
	if per[CauseICache].FP != 1 {
		t.Errorf("bogus I-cache claim not counted as FP: %+v", per[CauseICache])
	}
	if per[CauseDCache].FN != 1 {
		t.Errorf("missed D-cache truth not counted as FN: %+v", per[CauseDCache])
	}
	if total.CycleRecall() != 0 {
		t.Errorf("cycle recall = %v, want 0 for a full miss", total.CycleRecall())
	}

	// Right cause, wrong instruction is caught too.
	shifted := []Claim{{Key{stallOff + alpha.InstBytes, CauseDCache}, 1}}
	_, total = ScoreClaims(Sites(shifted), Sites(truth), nil)
	if total.TP != 0 || total.FP != 1 || total.FN != 1 {
		t.Errorf("wrong-offset claim scored %+v, want TP=0 FP=1 FN=1", total)
	}
}

// TestCulpritClaimsThreshold: instructions whose stall cycles sit below the
// noise floor must not generate claims.
func TestCulpritClaimsThreshold(t *testing.T) {
	pa, _ := analyzeOracle(t)
	all := CulpritClaims(pa, 0)
	if len(all) == 0 {
		t.Fatal("no claims at zero threshold")
	}
	var maxCyc float64
	for _, c := range all {
		if c.Cycles > maxCyc {
			maxCyc = c.Cycles
		}
	}
	if got := CulpritClaims(pa, maxCyc*2); len(got) != 0 {
		t.Errorf("threshold above every claim still produced %+v", got)
	}
}

// TestScoreClaimsDedup: repeated (offset, cause) pairs on either side count
// once, keeping the largest cycle weight.
func TestScoreClaimsDedup(t *testing.T) {
	claims := []Claim{
		{Key{8, CauseDCache}, 100},
		{Key{8, CauseDCache}, 300},
	}
	truth := []Claim{
		{Key{8, CauseDCache}, 50},
		{Key{8, CauseDCache}, 200},
	}
	per, total := ScoreClaims(Sites(claims), Sites(truth), nil)
	if total.TP != 1 || total.FP != 0 || total.FN != 0 {
		t.Errorf("dedup failed: %+v", total)
	}
	s := per[CauseDCache]
	if s.ClaimedCycles != 300 || s.MovedCycles != 200 || s.CaughtCycles != 200 {
		t.Errorf("cycle accounting = %+v, want claimed 300 moved 200 caught 200", s)
	}
}

func TestScoreAccessors(t *testing.T) {
	var z Score
	if z.Precision() != 0 || z.Recall() != 0 || z.CycleRecall() != 0 {
		t.Error("empty score must report 0, not NaN")
	}
	a := Score{TP: 3, FP: 1, FN: 1, ClaimedCycles: 10, MovedCycles: 8, CaughtCycles: 6}
	if a.Precision() != 0.75 || a.Recall() != 0.75 || a.CycleRecall() != 0.75 {
		t.Errorf("accessors: P=%v R=%v CR=%v", a.Precision(), a.Recall(), a.CycleRecall())
	}
	b := a
	b.Add(Score{TP: 1, FN: 3, MovedCycles: 2})
	if b.TP != 4 || b.FN != 4 || b.MovedCycles != 10 {
		t.Errorf("Add: %+v", b)
	}
}
