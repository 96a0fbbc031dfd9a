package analysis

import (
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
	"dcpi/internal/pipeline"
)

const loopPathSrc = `
p:
	lda t0, 100(zero)
.loop:
	and t0, 1, t1
	beq t1, .even
	addq t2, 1, t2
	br .next
.even:
	addq t2, 3, t2
.next:
	subq t0, 1, t0
	bne t0, .loop
	halt
`

func TestPathsRemoveBackEdges(t *testing.T) {
	g := cfg.Build(alpha.MustAssemble(loopPathSrc).Code, 0)
	backEdge, post, err := Paths(g)
	if err != nil {
		t.Fatal(err)
	}
	backs := 0
	for ei := range g.Edges {
		if backEdge[ei] {
			backs++
			if g.Edges[ei].To != 1 {
				t.Errorf("back edge %d does not close the loop to block 1: %+v", ei, g.Edges[ei])
			}
		}
	}
	if backs != 1 {
		t.Errorf("back edges = %d, want 1 (the bne .loop edge)", backs)
	}
	// The post-order is reverse-topological over what is left: every
	// block once, each after all its non-back successors.
	at := make(map[int]int)
	for i, b := range post {
		at[b] = i
	}
	if len(at) != len(g.Blocks) {
		t.Fatalf("post-order %v does not visit each of %d blocks once", post, len(g.Blocks))
	}
	for ei, e := range g.Edges {
		if !backEdge[ei] && e.From >= 0 && e.To >= 0 && at[e.To] >= at[e.From] {
			t.Errorf("edge %d->%d: successor is not before its predecessor in %v", e.From, e.To, post)
		}
	}
}

func TestPathsRejectMissingEdges(t *testing.T) {
	g := cfg.Build(alpha.MustAssemble("p:\n beq a0, .x\n jmp (t0)\n.x:\n halt").Code, 0)
	if _, _, err := Paths(g); err == nil {
		t.Error("computed paths for a CFG with computed jumps")
	}
}

// TestHottestPathFollowsBottleneck: the hottest path must stay on the arm
// the edge frequencies say is hot, and report the bottleneck frequency.
func TestHottestPathFollowsBottleneck(t *testing.T) {
	code := alpha.MustAssemble(loopPathSrc).Code
	// Synthesize samples so the .even arm is the hot one (block 3 cold,
	// block 4 hot). Blocks: 0 entry, 1 loop head, 2 odd-arm (addq; br),
	// 3 even-arm, 4 .next, 5 halt.
	pa0 := AnalyzeProc("p", code, 0, map[uint64]uint64{}, nil, pipeline.Default(), 1000)
	blockFreq := map[int]uint64{0: 1, 1: 100, 2: 10, 3: 90, 4: 100, 5: 1}
	samples := map[uint64]uint64{}
	for bi := range pa0.Graph.Blocks {
		blk := pa0.Graph.Blocks[bi]
		sched := pipeline.Default().ScheduleBlock(code[blk.Start:blk.End])
		for j, s := range sched {
			samples[uint64(blk.Start+j)*alpha.InstBytes] = uint64(s.M) * blockFreq[bi]
		}
	}
	pa := AnalyzeProc("p", code, 0, samples, nil, pipeline.Default(), 1000)

	path, bottleneck := pa.HottestPath()
	if len(path) < 3 || path[0] != 0 {
		t.Fatalf("path = %v", path)
	}
	onHot, onCold := false, false
	for _, b := range path {
		if b == 3 {
			onHot = true
		}
		if b == 2 {
			onCold = true
		}
	}
	if !onHot || onCold {
		t.Errorf("hottest path %v should take the even arm (block 3), not block 2", path)
	}
	if bottleneck <= 0 {
		t.Errorf("bottleneck = %v, want > 0", bottleneck)
	}
}
