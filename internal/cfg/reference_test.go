package cfg

import (
	"fmt"
	"slices"
)

// The equivalence classes as first computed, kept as the reference the
// interval numbering is held to: dominance by walking the immediate-
// dominator chain, loop bodies collected into maps, classes by the same
// unions.

// chainDominates reports whether a dominates b by walking b's idom chain.
func chainDominates(d *domInfo, a, b int) bool {
	for b != -1 && b != undef {
		if b == a {
			return true
		}
		b = d.idom[b]
	}
	return false
}

func refLoopSignatures(g *Graph, dom *domInfo) []string {
	nb := len(g.Blocks)
	membership := make([][]int, nb)
	loopID := 0
	for _, e := range g.Edges {
		u, h := e.From, e.To
		if u < 0 || h < 0 || !chainDominates(dom, h, u) {
			continue
		}
		inLoop := map[int]bool{h: true}
		var stack []int
		if !inLoop[u] {
			inLoop[u] = true
			stack = append(stack, u)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.Blocks[x].Preds {
				if p := g.Edges[ei].From; p >= 0 && !inLoop[p] {
					inLoop[p] = true
					stack = append(stack, p)
				}
			}
		}
		for b := range inLoop {
			membership[b] = append(membership[b], loopID)
		}
		loopID++
	}
	sig := make([]string, nb)
	for b, loops := range membership {
		slices.Sort(loops)
		buf := make([]byte, 0, len(loops)*2)
		for _, id := range loops {
			buf = append(buf, byte(id), byte(id>>8))
		}
		sig[b] = string(buf)
	}
	return sig
}

// refEquivalence returns the classes the chain-walk computation assigns.
func refEquivalence(g *Graph) (blockClass, edgeClass []int, numClasses int) {
	nb, ne := len(g.Blocks), len(g.Edges)
	parent := make([]int, nb+ne)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	if !g.MissingEdges {
		dom := g.computeDom(g.entryNode(), false)
		pdom := g.computeDom(g.exitNode(), true)
		loopSig := refLoopSignatures(g, &dom)
		for b := 0; b < nb; b++ {
			for a := dom.idom[b]; a >= 0 && a < nb; a = dom.idom[a] {
				if chainDominates(&pdom, b, a) && loopSig[a] == loopSig[b] {
					union(a, b)
				}
			}
		}
		for ei, e := range g.Edges {
			if e.From >= 0 && len(g.Blocks[e.From].Succs) == 1 {
				union(nb+ei, e.From)
			}
			if e.To >= 0 && len(g.Blocks[e.To].Preds) == 1 {
				union(nb+ei, e.To)
			}
		}
	}
	blockClass, edgeClass = make([]int, nb), make([]int, ne)
	ids := map[int]int{}
	classOf := func(x int) int {
		r := find(x)
		id, ok := ids[r]
		if !ok {
			id = len(ids)
			ids[r] = id
		}
		return id
	}
	for b := range blockClass {
		blockClass[b] = classOf(b)
	}
	for e := range edgeClass {
		edgeClass[e] = classOf(nb + e)
	}
	return blockClass, edgeClass, len(ids)
}

// checkReference holds g's dominance queries, for every node pair of both
// trees, to the chain walk, and its classes to refEquivalence.
func checkReference(g *Graph) error {
	if len(g.Blocks) == 0 {
		return nil
	}
	for _, d := range []domInfo{g.computeDom(g.entryNode(), false), g.computeDom(g.exitNode(), true)} {
		for a := range d.idom {
			for b := range d.idom {
				if got, want := d.dominates(a, b), chainDominates(&d, a, b); got != want {
					return fmt.Errorf("tree rooted at %d: dominates(%d, %d) = %v, chain walk says %v", d.root, a, b, got, want)
				}
			}
		}
	}
	bc, ec, n := refEquivalence(g)
	switch {
	case n != g.NumClasses:
		return fmt.Errorf("NumClasses = %d, reference %d", g.NumClasses, n)
	case !slices.Equal(bc, g.BlockClass):
		return fmt.Errorf("BlockClass = %v, reference %v", g.BlockClass, bc)
	case !slices.Equal(ec, g.EdgeClass):
		return fmt.Errorf("EdgeClass = %v, reference %v", g.EdgeClass, ec)
	}
	return nil
}
