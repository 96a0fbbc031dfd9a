package analysis

import (
	"math"
	"sort"

	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
	"dcpi/internal/pipeline"
)

// Tunables for the frequency heuristic (paper §6.1.3).
const (
	// clusterSpread: a cluster is a set of issue-point ratios whose maximum
	// is at most clusterSpread times its minimum.
	clusterSpread = 1.5
	// minClusterFrac: a cluster must contain at least this fraction of the
	// class's issue points (and at least one) or it is discarded.
	minClusterFrac = 0.25
	// lowSampleThreshold: classes with fewer total samples use the pooled
	// ΣS/ΣM estimate instead of cluster averaging.
	lowSampleThreshold = 60
	// maxReasonableStall: a cluster whose frequency estimate implies a
	// stall longer than this (cycles) for some instruction in the class is
	// considered anomalous and discarded.
	maxReasonableStall = 2000
)

// Inputs carries the sample data for one procedure's analysis, indexed like
// its instructions.
type Inputs struct {
	// Samples holds CYCLES samples per instruction; nil means none.
	Samples []uint64
	// IMissEvents holds estimated I-cache-miss event counts per instruction
	// (IMISS samples scaled by their period); nil when not collected.
	IMissEvents []uint64
	// EdgeSamples holds double-sampling edge samples (paper §7) whose two
	// ends both lie in the procedure, by pair; nil when the run collected
	// none.
	EdgeSamples map[EdgePair]uint64
	// DTBCollected reports that data-TLB misses were monitored (the DTBMISS
	// samples §3.2 mentions; they rotate into the mux configuration), and
	// DTBMisses how many of those samples landed in the procedure. Because
	// the event's delivery is skewed, the rule-out is procedure-granular.
	DTBCollected bool
	DTBMisses    uint64
}

// EdgePair is a double-sampling pair's two image offsets, in issue order.
type EdgePair struct{ From, To uint64 }

// AnalyzeProc runs the full analysis of one procedure that is not part of a
// shared image: it builds the CFG of code and analyses it with Analyze.
//
//   - code, baseOffset: the procedure's instructions and their byte offset
//     within the image;
//   - samples: CYCLES samples keyed by image byte offset;
//   - imiss: IMISS event estimates keyed by image byte offset (nil when the
//     imiss event was not collected);
//   - model: the machine model shared with the simulator;
//   - period: the average sampling period in cycles.
func AnalyzeProc(name string, code []alpha.Inst, baseOffset uint64,
	samples, imiss map[uint64]uint64, model pipeline.Model, period float64) *ProcAnalysis {
	perInst := func(m map[uint64]uint64) []uint64 {
		out := make([]uint64, len(code))
		for i := range out {
			out[i] = m[baseOffset+uint64(i)*alpha.InstBytes]
		}
		return out
	}
	in := Inputs{Samples: perInst(samples)}
	if imiss != nil {
		in.IMissEvents = perInst(imiss)
	}
	return Analyze(name, cfg.Build(code, baseOffset), in, model, period)
}

// Analyze runs the full analysis of one procedure over its CFG, which it
// only reads: one graph may serve any number of analyses at once (see
// image.ProcGraph).
func Analyze(name string, g *cfg.Graph, in Inputs, model pipeline.Model, period float64) *ProcAnalysis {
	pa := &ProcAnalysis{
		Name:       name,
		BaseOffset: g.BaseOffset,
		Graph:      g,
		Model:      model,
		Period:     period,
	}
	pa.schedule(g.Code)
	pa.attachSamples(in.Samples)
	pa.estimateFrequencies()
	pa.mapEdgeSamples(in.EdgeSamples)
	pa.propagate()
	pa.finishInstEstimates()
	pa.identifyCulprits(in)
	pa.summarize()
	return pa
}

// mapEdgeSamples attributes double-sampling pairs to CFG edges: a pair
// (a, b) counts for edge A->B when a lies in block A and b is the head of a
// different block B that A flows to (or A's own head, for a back edge).
// The per-edge counts let propagation split a known block frequency across
// otherwise-undetermined successor edges.
func (pa *ProcAnalysis) mapEdgeSamples(edges map[EdgePair]uint64) {
	if edges == nil {
		return
	}
	g := pa.Graph
	lo := pa.BaseOffset
	hi := pa.BaseOffset + uint64(len(pa.Insts))*alpha.InstBytes
	pa.EdgeSampleCounts = make([]uint64, len(g.Edges))
	for e, n := range edges {
		if e.From < lo || e.From >= hi || e.To < lo || e.To >= hi {
			continue
		}
		a := int(e.From-lo) / alpha.InstBytes
		b := int(e.To-lo) / alpha.InstBytes
		ba, bb := g.BlockOfInst(a), g.BlockOfInst(b)
		if bb != ba || b == g.Blocks[bb].Start {
			// Find the CFG edge A->B.
			for _, ei := range g.Blocks[ba].Succs {
				e := g.Edges[ei]
				if e.To == bb && b == g.Blocks[bb].Start {
					pa.EdgeSampleCounts[ei] += n
					break
				}
			}
		}
	}
}

// schedule runs the static pipeline model over each basic block.
func (pa *ProcAnalysis) schedule(code []alpha.Inst) {
	pa.Insts = make([]InstAnalysis, len(code))
	for i := range code {
		// Field by field: a composite literal would copy the whole struct.
		ia := &pa.Insts[i]
		ia.Index, ia.Offset, ia.Inst, ia.Freq = i, pa.BaseOffset+uint64(i)*alpha.InstBytes, code[i], -1
	}
	for bi := range pa.Graph.Blocks {
		b := &pa.Graph.Blocks[bi]
		// Memoized: the same blocks are rescheduled for every analyzed run
		// of the same image, and the schedule depends only on the model and
		// the block's code. The shared result is copied below (values only).
		sched := pa.Model.ScheduleBlockCached(code[b.Start:b.End])
		for j, s := range sched {
			ia := &pa.Insts[b.Start+j]
			ia.M = s.M
			ia.Paired = s.Paired
			ia.SlotHazard = s.SlotHazard
			// Rebase culprit indices from block-relative to
			// procedure-relative.
			for _, st := range s.Stalls {
				if st.Culprit >= 0 {
					st.Culprit += b.Start
				}
				ia.StaticStalls = append(ia.StaticStalls, st)
			}
		}
	}
}

func (pa *ProcAnalysis) attachSamples(samples []uint64) {
	for i, n := range samples {
		pa.Insts[i].Samples = n
	}
}

// issueRatio computes the frequency-estimate ratio for the issue point at
// instruction index i, applying the paper's dependency-window refinement:
// when i statically depends on an earlier instruction j in its block, use
// Σ(S)/Σ(M) over (j, i] so dynamic stalls that overlap the dependency
// latency do not bias the estimate low.
func (pa *ProcAnalysis) issueRatio(blockStart, i int) (ratio float64, ok bool) {
	ia := &pa.Insts[i]
	j := -1
	for _, st := range ia.StaticStalls {
		if st.Culprit > j && st.Culprit >= blockStart && st.Culprit < i {
			j = st.Culprit
		}
	}
	var sumS, sumM uint64
	start := i
	if j >= 0 {
		start = j + 1
	}
	for k := start; k <= i; k++ {
		sumS += pa.Insts[k].Samples
		sumM += uint64(pa.Insts[k].M)
	}
	if sumM == 0 {
		return 0, false
	}
	return float64(sumS) / float64(sumM), true
}

// estimateFrequencies runs the per-class heuristic of §6.1.3. Frequencies
// are expressed in samples-per-cycle units (f such that Sᵢ ≈ f·Cᵢ); the
// execution-count scale (f·period) is applied in finishInstEstimates.
func (pa *ProcAnalysis) estimateFrequencies() {
	g := pa.Graph
	pa.ClassFreq = make([]float64, g.NumClasses)
	pa.ClassConf = make([]Confidence, g.NumClasses)
	pa.ClusterLo = make([]float64, g.NumClasses)
	pa.ClusterHi = make([]float64, g.NumClasses)
	for i := range pa.ClassFreq {
		pa.ClassFreq[i] = -1
	}

	type classData struct {
		ratios []float64
		sumS   uint64
		sumM   uint64
		maxS   uint64 // largest per-instruction sample count in the class
	}
	classes := make([]classData, g.NumClasses)

	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		class := g.BlockClass[bi]
		cd := &classes[class]
		for i := b.Start; i < b.End; i++ {
			ia := &pa.Insts[i]
			cd.sumS += ia.Samples
			cd.sumM += uint64(ia.M)
			if ia.Samples > cd.maxS {
				cd.maxS = ia.Samples
			}
			if ia.M > 0 { // an issue point
				if r, ok := pa.issueRatio(b.Start, i); ok {
					cd.ratios = append(cd.ratios, r)
				}
			}
		}
	}

	for ci := range classes {
		cd := &classes[ci]
		if cd.sumM == 0 {
			continue // no instructions (edge-only class): propagation only
		}
		if cd.sumS == 0 {
			// Never sampled: with enough instructions this is evidence the
			// class rarely or never executes.
			pa.ClassFreq[ci] = 0
			pa.ClassConf[ci] = ConfMedium
			if cd.sumM >= 8 {
				pa.ClassConf[ci] = ConfHigh
			}
			continue
		}
		if cd.sumS < lowSampleThreshold || len(cd.ratios) == 0 {
			// Low-sample fallback: pool the whole class (paper: "we
			// estimate F as ΣSᵢ/ΣMᵢ ... generally improves the estimate").
			pa.ClassFreq[ci] = float64(cd.sumS) / float64(cd.sumM)
			pa.ClassConf[ci] = ConfLow
			continue
		}
		f, lo, hi, conf := pa.clusterEstimate(cd.ratios, cd.maxS)
		if f < 0 {
			f = float64(cd.sumS) / float64(cd.sumM)
			conf = ConfLow
		} else {
			pa.ClusterLo[ci], pa.ClusterHi[ci] = lo, hi
		}
		pa.ClassFreq[ci] = f
		pa.ClassConf[ci] = conf
	}
}

// clusterEstimate picks the cluster of smallest ratios that is large enough
// and does not imply an unreasonable stall, and returns its mean plus the
// selected ratio range.
func (pa *ProcAnalysis) clusterEstimate(ratios []float64, maxS uint64) (float64, float64, float64, Confidence) {
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	n := len(sorted)
	minPts := int(math.Ceil(minClusterFrac * float64(n)))
	if minPts < 1 {
		minPts = 1
	}

	for start := 0; start < n; start++ {
		lo := sorted[start]
		if lo <= 0 {
			continue
		}
		end := start
		for end < n && sorted[end] <= clusterSpread*lo {
			end++
		}
		size := end - start
		if size < minPts {
			continue
		}
		var sum float64
		for _, r := range sorted[start:end] {
			sum += r
		}
		f := sum / float64(size)
		// Reject clusters implying an absurd stall somewhere in the class.
		if f > 0 && float64(maxS)/f > maxReasonableStall {
			continue
		}
		conf := ConfLow
		tight := sorted[end-1] <= 1.2*lo
		switch {
		case size >= 3 && tight:
			conf = ConfHigh
		case size >= 2:
			conf = ConfMedium
		}
		return f, lo, sorted[end-1], conf
	}
	return -1, 0, 0, ConfLow
}

// propagate applies the flow constraints of §6.1.4: every block's frequency
// equals the sum of its incoming edges and the sum of its outgoing edges.
// Whenever a block or edge gains an estimate it is immediately shared with
// its whole equivalence class; negative solutions clamp to zero.
func (pa *ProcAnalysis) propagate() {
	g := pa.Graph
	nb, ne := len(g.Blocks), len(g.Edges)
	pa.BlockFreq = make([]float64, nb)
	pa.EdgeFreq = make([]float64, ne)
	for i := range pa.BlockFreq {
		pa.BlockFreq[i] = -1
	}
	for i := range pa.EdgeFreq {
		pa.EdgeFreq[i] = -1
	}

	setClass := func(class int, v float64, conf Confidence) {
		if pa.ClassFreq[class] < 0 {
			pa.ClassFreq[class] = v
			pa.ClassConf[class] = conf
		}
	}
	// Seed from class estimates.
	sync := func() bool {
		changed := false
		for bi := range g.Blocks {
			if f := pa.ClassFreq[g.BlockClass[bi]]; f >= 0 && pa.BlockFreq[bi] < 0 {
				pa.BlockFreq[bi] = f
				changed = true
			}
		}
		for ei := range g.Edges {
			if f := pa.ClassFreq[g.EdgeClass[ei]]; f >= 0 && pa.EdgeFreq[ei] < 0 {
				pa.EdgeFreq[ei] = f
				changed = true
			}
		}
		return changed
	}
	sync()

	// Double sampling: split a known block frequency across its successor
	// edges in proportion to measured edge samples (§7's "edge samples
	// should prove valuable for analysis").
	applyEdgeSamples := func() bool {
		if pa.EdgeSampleCounts == nil {
			return false
		}
		changed := false
		const minEdgePairs = 4
		for bi := range g.Blocks {
			bf := pa.BlockFreq[bi]
			if bf < 0 {
				continue
			}
			var total uint64
			unknown := 0
			for _, ei := range g.Blocks[bi].Succs {
				total += pa.EdgeSampleCounts[ei]
				if pa.EdgeFreq[ei] < 0 {
					unknown++
				}
			}
			if unknown == 0 || total < minEdgePairs {
				continue
			}
			for _, ei := range g.Blocks[bi].Succs {
				if pa.EdgeFreq[ei] < 0 {
					v := bf * float64(pa.EdgeSampleCounts[ei]) / float64(total)
					pa.EdgeFreq[ei] = v
					setClass(g.EdgeClass[ei], v, ConfLow)
					changed = true
				}
			}
		}
		return changed
	}

	for round := 0; round < nb+ne+8; round++ {
		changed := applyEdgeSamples()
		for bi := range g.Blocks {
			b := &g.Blocks[bi]
			for _, side := range [2][]int{b.Preds, b.Succs} {
				known := 0.0
				unknown := -1
				for _, ei := range side {
					if f := pa.EdgeFreq[ei]; f >= 0 {
						known += f
					} else if unknown < 0 {
						unknown = ei
					} else {
						unknown = -2 // more than one unknown
					}
				}
				switch {
				case unknown == -1 && pa.BlockFreq[bi] < 0:
					pa.BlockFreq[bi] = known
					setClass(g.BlockClass[bi], known, ConfLow)
					changed = true
				case unknown >= 0 && pa.BlockFreq[bi] >= 0:
					v := pa.BlockFreq[bi] - known
					if v < 0 {
						v = 0 // flow equations on estimates can go negative
					}
					pa.EdgeFreq[unknown] = v
					setClass(g.EdgeClass[unknown], v, ConfLow)
					changed = true
				}
			}
		}
		if sync() {
			changed = true
		}
		if !changed {
			break
		}
	}

	// Anything still unknown defaults to zero so downstream math is sane.
	for bi := range pa.BlockFreq {
		if pa.BlockFreq[bi] < 0 {
			pa.BlockFreq[bi] = 0
		}
	}
	for ei := range pa.EdgeFreq {
		if pa.EdgeFreq[ei] < 0 {
			pa.EdgeFreq[ei] = 0
		}
	}
	for ci := range pa.ClassFreq {
		if pa.ClassFreq[ci] < 0 {
			pa.ClassFreq[ci] = 0
		}
	}
}

// finishInstEstimates converts class frequencies into per-instruction
// execution counts and CPIs.
func (pa *ProcAnalysis) finishInstEstimates() {
	g := pa.Graph
	var totalSamples, weightedM, execWeight float64
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		f := pa.BlockFreq[bi]
		conf := pa.ClassConf[g.BlockClass[bi]]
		for i := b.Start; i < b.End; i++ {
			ia := &pa.Insts[i]
			ia.Freq = f * pa.Period
			ia.Confidence = conf
			if f > 0 {
				ia.CPI = float64(ia.Samples) / f
			} else if ia.Samples > 0 {
				ia.CPI = math.Inf(1)
			}
			dyn := ia.CPI - float64(ia.M)
			if f > 0 && !math.IsInf(ia.CPI, 1) {
				ia.DynStall = dyn
			}
			totalSamples += float64(ia.Samples)
			weightedM += f * float64(ia.M)
			execWeight += f
		}
	}
	if execWeight > 0 {
		pa.BestCaseCPI = weightedM / execWeight
		pa.ActualCPI = totalSamples / execWeight
	}
}
