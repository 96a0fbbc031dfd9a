package analysis

// Layout seeding over the acyclic skeleton of a procedure's CFG: the
// optimizer chains the hottest acyclic path first (HottestPath), which
// beats per-edge greedy choices at merge points — a path that is
// bottleneck-hot end to end stays contiguous even when an individual edge
// off the path is locally hotter.
//
// The DAG is the CFG with DFS back edges removed (every cycle contains one,
// so the remainder is acyclic).

import (
	"fmt"
	"math"

	"dcpi/internal/cfg"
)

// Paths makes a CFG acyclic with one depth-first traversal from the entry
// block: backEdge[e] marks the DFS back edges — the loop-closing edges
// removed to leave a DAG — and post is the DFS post-order, which is
// reverse-topological over that DAG (every non-back successor of a block
// precedes it). A CFG with computed jumps is refused: its edges, and so its
// paths, are unknown.
func Paths(g *cfg.Graph) (backEdge []bool, post []int, err error) {
	if len(g.Blocks) == 0 {
		return nil, nil, fmt.Errorf("analysis: empty procedure has no paths")
	}
	if g.MissingEdges {
		return nil, nil, fmt.Errorf("analysis: CFG has computed jumps; paths unknown")
	}
	backEdge = make([]bool, len(g.Edges))
	post = make([]int, 0, len(g.Blocks))

	// Iterative DFS: an edge whose target is on the current DFS stack
	// (grey) is a back edge.
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(g.Blocks))
	type frame struct{ b, si int }
	stack := []frame{{0, 0}}
	color[0] = grey
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := g.Blocks[f.b].Succs
		if f.si >= len(succs) {
			color[f.b] = black
			post = append(post, f.b)
			stack = stack[:len(stack)-1]
			continue
		}
		ei := succs[f.si]
		f.si++
		to := g.Edges[ei].To
		if to < 0 {
			continue // exit/virtual edge: the DAG sink
		}
		switch color[to] {
		case grey:
			backEdge[ei] = true
		case white:
			color[to] = grey
			stack = append(stack, frame{to, 0})
		}
	}
	return backEdge, post, nil
}

// HottestPath returns the estimated hottest acyclic path through the
// procedure — the entry-to-exit block sequence maximizing the bottleneck
// (minimum) edge frequency over the back-edge-removed DAG — and that
// bottleneck frequency. Unknown edge frequencies count as zero; when the
// CFG has no usable path structure the entry block alone is returned.
//
// Maximizing the bottleneck is what makes this better than greedy
// per-edge chaining: a merge point's locally hottest successor can belong
// to a path that goes cold later, while the bottleneck-optimal path stays
// hot end to end.
func (pa *ProcAnalysis) HottestPath() ([]int, float64) {
	g := pa.Graph
	if len(g.Blocks) == 0 {
		return nil, 0
	}
	backEdge, post, err := Paths(g)
	if err != nil {
		return []int{0}, 0
	}

	freq := func(ei int) float64 {
		if ei < len(pa.EdgeFreq) && pa.EdgeFreq[ei] > 0 {
			return pa.EdgeFreq[ei]
		}
		return 0
	}

	// Dynamic program over the DAG, successors first: best[b] is the
	// maximum bottleneck achievable from b to the exit, via[b] the
	// successor edge achieving it.
	best := make([]float64, len(g.Blocks))
	via := make([]int, len(g.Blocks))
	for i := range via {
		via[i] = -1
	}
	for _, b := range post {
		best[b] = -1
		for _, ei := range g.Blocks[b].Succs {
			if backEdge[ei] {
				continue
			}
			to := g.Edges[ei].To
			var bn float64
			if to < 0 {
				bn = math.Inf(1) // path ends; bottleneck set by edges so far
			} else {
				bn = best[to]
			}
			if f := freq(ei); f < bn {
				bn = f
			}
			if bn > best[b] {
				best[b], via[b] = bn, ei
			}
		}
		if via[b] < 0 {
			best[b] = math.Inf(1) // truncated path (only back-edge successors)
		}
	}

	path := []int{0}
	bottleneck := math.Inf(1)
	for b := 0; ; {
		ei := via[b]
		if ei < 0 {
			break
		}
		if f := freq(ei); f < bottleneck {
			bottleneck = f
		}
		to := g.Edges[ei].To
		if to < 0 {
			break
		}
		path = append(path, to)
		b = to
	}
	if math.IsInf(bottleneck, 1) {
		bottleneck = 0
	}
	return path, bottleneck
}
