// Package cfg builds control-flow graphs for procedures and groups their
// blocks and edges into frequency-equivalence classes — step 1 and 2 of the
// paper's §6.1 analysis. Equivalence uses the classic dominator/
// postdominator criterion (a sound approximation of the cycle-equivalence
// algorithm of Johnson, Pearson & Pingali [14]; see DESIGN.md §5), extended
// to handle CFGs with infinite loops by adding virtual exit edges.
package cfg

import (
	"fmt"

	"dcpi/internal/alpha"
)

// EdgeKind classifies a CFG edge.
type EdgeKind uint8

const (
	// EdgeTaken is a conditional or unconditional branch taken edge.
	EdgeTaken EdgeKind = iota
	// EdgeFallthrough is straight-line flow into the next block (including
	// the not-taken side of a conditional branch and flow after a call).
	EdgeFallthrough
	// EdgeEntry connects the virtual entry to the first block.
	EdgeEntry
	// EdgeExit connects a returning/halting block (or a block whose branch
	// leaves the procedure) to the virtual exit.
	EdgeExit
	// EdgeVirtual is an exit edge added to make the exit reachable from an
	// infinite loop (e.g. an OS idle loop, per the paper's extension).
	EdgeVirtual
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeTaken:
		return "taken"
	case EdgeFallthrough:
		return "fallthrough"
	case EdgeEntry:
		return "entry"
	case EdgeExit:
		return "exit"
	case EdgeVirtual:
		return "virtual"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Virtual block indices.
const (
	Entry = -1
	Exit  = -2
)

// Block is one basic block: instructions [Start, End) of the procedure.
type Block struct {
	Index      int
	Start, End int   // instruction indices within the procedure
	Succs      []int // edge indices leaving this block
	Preds      []int // edge indices entering this block
}

// Edge is one CFG edge. From/To are block indices, or Entry/Exit.
type Edge struct {
	Index int
	From  int
	To    int
	Kind  EdgeKind
}

// Graph is a procedure's CFG plus its frequency-equivalence classes.
type Graph struct {
	Code       []alpha.Inst
	BaseOffset uint64 // byte offset of Code[0] within the image
	Blocks     []Block
	Edges      []Edge

	// MissingEdges is set when the CFG contains control flow whose targets
	// could not be determined (computed jumps). Per the paper, equivalence
	// classes then degenerate to one class per block/edge.
	MissingEdges bool

	// BlockClass[b] and EdgeClass[e] are frequency-equivalence class ids;
	// members of one class execute the same number of times.
	BlockClass []int
	EdgeClass  []int
	NumClasses int

	blockOf []int // instruction index -> block index
}

// Build constructs the CFG of a procedure and computes equivalence classes.
// baseOffset is the byte offset of code[0] within its image.
func Build(code []alpha.Inst, baseOffset uint64) *Graph {
	g := &Graph{Code: code, BaseOffset: baseOffset}
	if len(code) == 0 {
		return g
	}
	g.findBlocks()
	g.addEdges()
	g.ensureExitReachable()
	g.computeEquivalence()
	return g
}

// branchTargetIndex resolves a branch instruction's target to an instruction
// index within the procedure, or -1 if it leaves the procedure.
func branchTargetIndex(code []alpha.Inst, i int) int {
	t := i + 1 + int(code[i].Disp)
	if t < 0 || t >= len(code) {
		return -1
	}
	return t
}

func (g *Graph) findBlocks() {
	code := g.Code
	leader := make([]bool, len(code))
	leader[0] = true
	for i, in := range code {
		switch {
		case in.Op.Class() == alpha.ClassBranch:
			if t := branchTargetIndex(code, i); t >= 0 {
				leader[t] = true
			}
			if i+1 < len(code) {
				leader[i+1] = true
			}
		case in.Op.EndsBlock():
			if i+1 < len(code) {
				leader[i+1] = true
			}
		}
	}
	n := 0
	for _, l := range leader {
		if l {
			n++
		}
	}
	g.Blocks = make([]Block, 0, n)
	g.blockOf = make([]int, len(code))
	start := 0
	for i := 1; i <= len(code); i++ {
		if i == len(code) || leader[i] {
			b := Block{Index: len(g.Blocks), Start: start, End: i}
			g.Blocks = append(g.Blocks, b)
			for j := start; j < i; j++ {
				g.blockOf[j] = b.Index
			}
			start = i
		}
	}
}

func (g *Graph) addEdge(from, to int, kind EdgeKind) {
	e := Edge{Index: len(g.Edges), From: from, To: to, Kind: kind}
	g.Edges = append(g.Edges, e)
	if from >= 0 {
		g.Blocks[from].Succs = append(g.Blocks[from].Succs, e.Index)
	}
	if to >= 0 {
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, e.Index)
	}
}

func (g *Graph) addEdges() {
	g.Edges = make([]Edge, 0, 2*len(g.Blocks)+1) // room for two out of each block and the entry
	g.addEdge(Entry, 0, EdgeEntry)
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := g.Code[b.End-1]
		nextBlock := -1
		if b.End < len(g.Code) {
			nextBlock = g.blockOf[b.End]
		}
		switch {
		case last.Op.IsCondBranch():
			if t := branchTargetIndex(g.Code, b.End-1); t >= 0 {
				g.addEdge(bi, g.blockOf[t], EdgeTaken)
			} else {
				g.addEdge(bi, Exit, EdgeExit)
			}
			if nextBlock >= 0 {
				g.addEdge(bi, nextBlock, EdgeFallthrough)
			} else {
				g.addEdge(bi, Exit, EdgeExit)
			}
		case last.Op == alpha.OpBR:
			if t := branchTargetIndex(g.Code, b.End-1); t >= 0 {
				g.addEdge(bi, g.blockOf[t], EdgeTaken)
			} else {
				g.addEdge(bi, Exit, EdgeExit)
			}
		case last.Op == alpha.OpBSR, last.Op == alpha.OpJSR, last.Op == alpha.OpCALLPAL:
			// Calls: control returns to the next instruction; the paper's
			// analysis does not follow interprocedural edges.
			if nextBlock >= 0 {
				g.addEdge(bi, nextBlock, EdgeFallthrough)
			} else {
				g.addEdge(bi, Exit, EdgeExit)
			}
		case last.Op == alpha.OpRET, last.Op == alpha.OpHALT:
			g.addEdge(bi, Exit, EdgeExit)
		case last.Op == alpha.OpJMP:
			// Computed jump with unknown targets: note missing edges.
			g.MissingEdges = true
			g.addEdge(bi, Exit, EdgeExit)
		default:
			// Straight-line flow into the next block.
			if nextBlock >= 0 {
				g.addEdge(bi, nextBlock, EdgeFallthrough)
			} else {
				g.addEdge(bi, Exit, EdgeExit)
			}
		}
	}
}

// ensureExitReachable adds virtual exit edges from blocks trapped in
// infinite loops so postdominators are defined everywhere (the paper
// extends [14] "for handling CFGs with infinite loops").
func (g *Graph) ensureExitReachable() {
	n := len(g.Blocks)
	reaches := make([]bool, n)
	// Reverse reachability from exit via a worklist.
	var work []int
	for _, e := range g.Edges {
		if e.To == Exit && e.From >= 0 && !reaches[e.From] {
			reaches[e.From] = true
			work = append(work, e.From)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ei := range g.Blocks[b].Preds {
			if f := g.Edges[ei].From; f >= 0 && !reaches[f] {
				reaches[f] = true
				work = append(work, f)
			}
		}
	}
	for bi := 0; bi < n; bi++ {
		if !reaches[bi] {
			// Add a virtual edge and propagate the new reachability.
			g.addEdge(bi, Exit, EdgeVirtual)
			reaches[bi] = true
			work = append(work, bi)
			for len(work) > 0 {
				b := work[len(work)-1]
				work = work[:len(work)-1]
				for _, ei := range g.Blocks[b].Preds {
					if f := g.Edges[ei].From; f >= 0 && !reaches[f] {
						reaches[f] = true
						work = append(work, f)
					}
				}
			}
		}
	}
}

// BlockOfInst returns the block containing instruction index i.
func (g *Graph) BlockOfInst(i int) int { return g.blockOf[i] }

// BlockCode returns the instructions of block b.
func (g *Graph) BlockCode(b int) []alpha.Inst {
	blk := g.Blocks[b]
	return g.Code[blk.Start:blk.End]
}
