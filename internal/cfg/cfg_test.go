package cfg

import (
	"testing"

	"dcpi/internal/alpha"
)

// build assembles src into a graph and holds it to the reference
// computation (reference_test.go), so every hand-built graph is checked.
func build(t *testing.T, src string) *Graph {
	t.Helper()
	a := alpha.MustAssemble(src)
	g := Build(a.Code, 0)
	if err := checkReference(g); err != nil {
		t.Error(err)
	}
	return g
}

func TestStraightLine(t *testing.T) {
	g := build(t, `
p:
	addq t0, 1, t1
	addq t1, 1, t2
	ret (ra)
`)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if g.Blocks[0].End-g.Blocks[0].Start != 3 {
		t.Errorf("block len = %d", g.Blocks[0].End-g.Blocks[0].Start)
	}
	// Entry edge + exit edge.
	if len(g.Edges) != 2 {
		t.Errorf("edges = %d, want 2", len(g.Edges))
	}
	if g.MissingEdges {
		t.Error("straight line marked missing edges")
	}
}

func TestDiamond(t *testing.T) {
	g := build(t, `
p:
	beq a0, .else
	addq t0, 1, t1
	br .join
.else:
	subq t0, 1, t1
.join:
	addq t1, 1, t2
	ret (ra)
`)
	// Blocks: [beq], [addq, br], [subq], [addq, ret].
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	// The test block and the join block execute equally often; the two arms
	// are separate classes.
	if g.BlockClass[0] != g.BlockClass[3] {
		t.Error("diamond top and bottom should share a class")
	}
	if g.BlockClass[1] == g.BlockClass[2] {
		t.Error("diamond arms should not share a class")
	}
	if g.BlockClass[1] == g.BlockClass[0] {
		t.Error("arm should not share the top's class")
	}
}

func TestLoop(t *testing.T) {
	g := build(t, `
p:
	lda t0, 0(zero)
.loop:
	addq t0, 1, t0
	cmplt t0, 10, t1
	bne t1, .loop
	ret (ra)
`)
	// Blocks: [lda], [addq,cmplt,bne], [ret].
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(g.Blocks))
	}
	// Preamble and epilogue run once; the loop body runs 10 times: the body
	// must not share their class.
	if g.BlockClass[0] != g.BlockClass[2] {
		t.Error("preamble and epilogue should share a class")
	}
	if g.BlockClass[1] == g.BlockClass[0] {
		t.Error("loop body must not share the preamble's class")
	}
	// The loop's back edge and exit edge are distinct classes from the body.
	var backEdge, exitEdge int = -1, -1
	for _, e := range g.Edges {
		if e.From == 1 && e.To == 1 {
			backEdge = e.Index
		}
		if e.From == 1 && e.To == 2 {
			exitEdge = e.Index
		}
	}
	if backEdge < 0 || exitEdge < 0 {
		t.Fatal("loop edges not found")
	}
	if g.EdgeClass[backEdge] == g.EdgeClass[exitEdge] {
		t.Error("back edge and loop-exit edge must differ")
	}
	// The loop-exit edge executes once, like the epilogue block (its
	// target's only predecessor... the epilogue has preds from bne only).
	if g.EdgeClass[exitEdge] != g.BlockClass[2] {
		t.Error("loop-exit edge should share the epilogue's class")
	}
}

func TestSelfLoopNotMergedWithDominator(t *testing.T) {
	// H -> B; B -> {B, X}: B postdominates H but executes more often.
	g := build(t, `
p:
	lda t0, 100(zero)     ; H
.spin:
	subq t0, 1, t0        ; B (self loop)
	bne t0, .spin
	ret (ra)              ; X
`)
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(g.Blocks))
	}
	if g.BlockClass[0] == g.BlockClass[1] {
		t.Error("self-looping block merged with its dominator (unsound)")
	}
}

func TestNestedLoops(t *testing.T) {
	g := build(t, `
p:
	lda t0, 0(zero)
.outer:
	lda t1, 0(zero)
.inner:
	addq t1, 1, t1
	cmplt t1, 5, t2
	bne t2, .inner
	addq t0, 1, t0
	cmplt t0, 3, t2
	bne t2, .outer
	ret (ra)
`)
	// Blocks: [lda], [lda t1], [inner body], [outer tail], [ret].
	if len(g.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(g.Blocks))
	}
	// Outer-loop blocks (1 and 3) run equally often; inner body (2) runs
	// more; entry (0) and exit (4) run once.
	if g.BlockClass[1] != g.BlockClass[3] {
		t.Error("outer loop header and tail should share a class")
	}
	if g.BlockClass[2] == g.BlockClass[1] {
		t.Error("inner body must not share the outer loop's class")
	}
	if g.BlockClass[0] != g.BlockClass[4] {
		t.Error("entry and exit should share a class")
	}
	if g.BlockClass[0] == g.BlockClass[1] {
		t.Error("loop must not share the entry's class")
	}
}

func TestCallsAreFallthrough(t *testing.T) {
	g := build(t, `
p:
	bsr ra, helper
	addq v0, 1, t0
	ret (ra)
helper:
	lda v0, 41(zero)
	ret (ra)
`)
	// The bsr block falls through to the next block (no interprocedural
	// edge); all p-blocks equivalent.
	if g.MissingEdges {
		t.Error("calls should not mark missing edges")
	}
	if g.BlockClass[0] != g.BlockClass[1] {
		t.Error("call block and continuation should share a class")
	}
}

func TestComputedJumpMarksMissing(t *testing.T) {
	g := build(t, `
p:
	beq a0, .x
	jmp (t0)
.x:
	ret (ra)
`)
	if !g.MissingEdges {
		t.Fatal("jmp did not mark missing edges")
	}
	// Everything in its own class.
	seen := map[int]bool{}
	for _, c := range g.BlockClass {
		if seen[c] {
			t.Error("classes shared despite missing edges")
		}
		seen[c] = true
	}
}

func TestInfiniteLoopGetsVirtualExit(t *testing.T) {
	g := build(t, `
idle:
	nop
	br idle
`)
	var virtual int
	for _, e := range g.Edges {
		if e.Kind == EdgeVirtual {
			virtual++
		}
	}
	if virtual == 0 {
		t.Error("infinite loop did not get a virtual exit edge")
	}
	// Equivalence must still be computed (no hang, classes assigned).
	if len(g.BlockClass) != len(g.Blocks) {
		t.Error("classes missing")
	}
}

func TestBlockOfInstAndCode(t *testing.T) {
	g := build(t, `
p:
	addq t0, 1, t1
	beq t1, .x
	subq t0, 1, t1
.x:
	ret (ra)
`)
	if g.BlockOfInst(0) != 0 || g.BlockOfInst(1) != 0 {
		t.Error("first block wrong")
	}
	if g.BlockOfInst(2) != 1 || g.BlockOfInst(3) != 2 {
		t.Error("later blocks wrong")
	}
	code := g.BlockCode(1)
	if len(code) != 1 || code[0].Op != alpha.OpSUBQ {
		t.Errorf("block code = %v", code)
	}
}

func TestEdgeKinds(t *testing.T) {
	g := build(t, `
p:
	beq a0, .x
	nop
.x:
	ret (ra)
`)
	kinds := map[EdgeKind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	if kinds[EdgeEntry] != 1 || kinds[EdgeTaken] != 1 || kinds[EdgeFallthrough] < 1 || kinds[EdgeExit] != 1 {
		t.Errorf("edge kinds = %v", kinds)
	}
	for k, want := range map[EdgeKind]string{
		EdgeTaken: "taken", EdgeFallthrough: "fallthrough",
		EdgeEntry: "entry", EdgeExit: "exit", EdgeVirtual: "virtual",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestEmptyCode(t *testing.T) {
	g := Build(nil, 0)
	if len(g.Blocks) != 0 || len(g.Edges) != 0 {
		t.Error("empty code produced blocks")
	}
}

func TestBranchOutOfProcedure(t *testing.T) {
	// A conditional branch whose target lies outside the procedure's code
	// (e.g. a tail jump into a stub): treated as an exit edge.
	code := alpha.MustAssemble(`
p:
	beq a0, p
	ret (ra)
`).Code
	// Rewrite the branch displacement to point far outside.
	code[0].Disp = 1000
	g := Build(code, 0)
	if err := checkReference(g); err != nil {
		t.Error(err)
	}
	exitEdges := 0
	for _, e := range g.Edges {
		if e.From == 0 && e.To == Exit {
			exitEdges++
		}
	}
	if exitEdges == 0 {
		t.Error("out-of-procedure branch target should produce an exit edge")
	}
}

// TestCopyLoopCFG sanity-checks the paper's Figure 2 loop: one body block
// plus the surrounding structure, with the body in its own class.
func TestCopyLoopCFG(t *testing.T) {
	g := build(t, `
copy:
	lda t0, 4(zero)
.loop:
	ldq   t4, 0(t1)
	addq  t0, 0x4, t0
	stq   t4, 0(t2)
	cmpult t0, v0, t4
	bne   t4, .loop
	halt
`)
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(g.Blocks))
	}
	if g.Blocks[1].End-g.Blocks[1].Start != 5 {
		t.Errorf("loop body len = %d", g.Blocks[1].End-g.Blocks[1].Start)
	}
	if g.BlockClass[1] == g.BlockClass[0] || g.BlockClass[1] == g.BlockClass[2] {
		t.Error("loop body class should be distinct")
	}
}
