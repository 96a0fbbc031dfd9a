package cfg

// Dominator and postdominator computation (iterative Cooper–Harvey–Kennedy)
// plus the frequency-equivalence classes built from them.

// domInfo holds immediate dominators over the block array plus the virtual
// entry/exit, encoded as: 0..n-1 real blocks, n = entry, n+1 = exit.
// pre/post number the dominator tree in depth-first pre- and post-order, so
// a dominates b exactly when b's interval [pre, post] nests inside a's.
type domInfo struct {
	idom      []int // immediate dominator per node, -1 for the root, undef if unreachable
	root      int
	pre, post []int32
}

const undef = -3

func (g *Graph) nodeCount() int { return len(g.Blocks) + 2 }
func (g *Graph) entryNode() int { return len(g.Blocks) }
func (g *Graph) exitNode() int  { return len(g.Blocks) + 1 }

func (g *Graph) node(blockIdx int) int {
	switch blockIdx {
	case Entry:
		return g.entryNode()
	case Exit:
		return g.exitNode()
	default:
		return blockIdx
	}
}

// neighbors calls f with each successor (or predecessor, if pred) node.
func (g *Graph) neighbors(node int, pred bool, f func(int)) {
	switch {
	case node == g.entryNode():
		if !pred {
			f(0)
		}
	case node == g.exitNode():
		if pred {
			for _, e := range g.Edges {
				if e.To == Exit {
					f(g.node(e.From))
				}
			}
		}
	default:
		b := &g.Blocks[node]
		if pred {
			for _, ei := range b.Preds {
				f(g.node(g.Edges[ei].From))
			}
			if node == 0 {
				f(g.entryNode())
			}
		} else {
			for _, ei := range b.Succs {
				f(g.node(g.Edges[ei].To))
			}
		}
	}
}

// computeDom runs the iterative dominator algorithm from root; reverse=true
// swaps edge directions (postdominators from the exit).
func (g *Graph) computeDom(root int, reverse bool) domInfo {
	n := g.nodeCount()
	// Reverse postorder from root over the (possibly reversed) graph.
	order := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(int)
	dfs = func(u int) {
		seen[u] = true
		g.neighbors(u, reverse, func(v int) {
			if !seen[v] {
				dfs(v)
			}
		})
		order = append(order, u)
	}
	dfs(root)
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, u := range order {
		rpoNum[u] = i
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = undef
	}
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, u := range order {
			if u == root {
				continue
			}
			newIdom := undef
			g.neighbors(u, !reverse, func(v int) {
				if rpoNum[v] < 0 || idom[v] == undef {
					return
				}
				if newIdom == undef {
					newIdom = v
				} else {
					newIdom = intersect(newIdom, v)
				}
			})
			if newIdom != undef && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	idom[root] = -1
	d := domInfo{idom: idom, root: root}
	d.number()
	return d
}

// number assigns the depth-first pre/post numbers of the dominator forest:
// the tree under the root, plus every unreachable node as a tree of its own
// (nothing names one as its dominator).
func (d *domInfo) number() {
	n := len(d.idom)
	// Children in compressed rows: first[v]..first[v+1] index kids.
	first := make([]int32, n+1)
	for _, p := range d.idom {
		if p >= 0 {
			first[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	kids := make([]int32, first[n])
	fill := append([]int32(nil), first[:n]...)
	for v, p := range d.idom {
		if p >= 0 {
			kids[fill[p]] = int32(v)
			fill[p]++
		}
	}
	d.pre = make([]int32, n)
	d.post = make([]int32, n)
	var clock int32
	stack := make([]int32, 0, n)
	for r, p := range d.idom {
		if p >= 0 {
			continue
		}
		// fill[v] doubles as v's next-child cursor, reset to its first kid.
		fill[r] = first[r]
		d.pre[r] = clock
		clock++
		stack = append(stack, int32(r))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if c := fill[v]; c < first[v+1] {
				fill[v]++
				k := kids[c]
				fill[k] = first[k]
				d.pre[k] = clock
				clock++
				stack = append(stack, k)
				continue
			}
			d.post[v] = clock
			clock++
			stack = stack[:len(stack)-1]
		}
	}
}

// dominates reports whether a dominates b in d (reflexive).
func (d *domInfo) dominates(a, b int) bool {
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}

// loopSignatures identifies natural loops (back edges u->h with h dominating
// u; body = nodes reaching u without passing h) and returns a per-block
// signature string encoding which loops each block belongs to.
func (g *Graph) loopSignatures(dom *domInfo) []string {
	nb := len(g.Blocks)
	membership := make([][]int, nb)
	loopID := 0
	// inLoop[b] == loopID+1 marks b as a member of the loop being collected.
	inLoop := make([]int, nb)
	var stack []int
	for _, e := range g.Edges {
		u, h := e.From, e.To
		if u < 0 || h < 0 || !dom.dominates(h, u) {
			continue
		}
		// Collect the natural loop body of back edge u->h: h plus every
		// node that reaches u without passing through h. The header is
		// seeded first and never expanded (handles self-loops, u == h).
		mark := loopID + 1
		inLoop[h] = mark
		membership[h] = append(membership[h], loopID)
		if inLoop[u] != mark {
			inLoop[u] = mark
			membership[u] = append(membership[u], loopID)
			stack = append(stack, u)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.Blocks[x].Preds {
				if p := g.Edges[ei].From; p >= 0 && inLoop[p] != mark {
					inLoop[p] = mark
					membership[p] = append(membership[p], loopID)
					stack = append(stack, p)
				}
			}
		}
		loopID++
	}
	sig := make([]string, nb)
	for b, loops := range membership {
		// Loops are collected in increasing id order, so each block's list
		// is already sorted: a canonical signature.
		buf := make([]byte, 0, len(loops)*2)
		for _, id := range loops {
			buf = append(buf, byte(id), byte(id>>8))
		}
		sig[b] = string(buf)
	}
	return sig
}

// computeEquivalence assigns frequency-equivalence classes to blocks and
// edges. Two blocks are equivalent when one dominates the other and the
// other postdominates the first. An edge joins its source's class when it is
// the source's only successor, and its target's class when it is the
// target's only predecessor. With missing edges, everything gets its own
// class (paper §6.1.2).
func (g *Graph) computeEquivalence() {
	nb, ne := len(g.Blocks), len(g.Edges)
	// Union-find over blocks (0..nb-1) and edges (nb..nb+ne-1).
	parent := make([]int, nb+ne)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	if !g.MissingEdges {
		dom := g.computeDom(g.entryNode(), false)
		pdom := g.computeDom(g.exitNode(), true)
		loopSig := g.loopSignatures(&dom)

		// Blocks: walk each block's dominator chain; merge with dominators
		// it postdominates. Dominance + postdominance alone does not imply
		// equal *counts* when one block sits in a loop the other is outside
		// of (e.g. a self-looping block postdominating its dominator), so
		// both blocks must also belong to exactly the same natural loops.
		for b := 0; b < nb; b++ {
			for a := dom.idom[b]; a >= 0 && a < nb; a = dom.idom[a] {
				if pdom.dominates(b, a) && loopSig[a] == loopSig[b] {
					union(a, b)
				}
			}
		}

		// Edges: merge with the unique-successor source or the
		// unique-predecessor target.
		for ei, e := range g.Edges {
			if e.From >= 0 && len(g.Blocks[e.From].Succs) == 1 {
				union(nb+ei, e.From)
			}
			if e.To >= 0 && len(g.Blocks[e.To].Preds) == 1 {
				union(nb+ei, e.To)
			}
		}
	}

	// Densify class ids.
	g.BlockClass = make([]int, nb)
	g.EdgeClass = make([]int, ne)
	ids := make(map[int]int)
	classOf := func(x int) int {
		r := find(x)
		id, ok := ids[r]
		if !ok {
			id = len(ids)
			ids[r] = id
		}
		return id
	}
	for b := 0; b < nb; b++ {
		g.BlockClass[b] = classOf(b)
	}
	for e := 0; e < ne; e++ {
		g.EdgeClass[e] = classOf(nb + e)
	}
	g.NumClasses = len(ids)
}
