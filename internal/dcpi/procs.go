package dcpi

// The analysis tools read a result through two memos on it, so a sweep that
// asks for many procedures of one run pays for each piece of work once:
//
//   - each image's profiles are split by procedure once, by the image's
//     SplitCounts, however many of its procedures are then read or analysed
//     (imageSplit: ProcSamples, InstSamples, ProcRows);
//   - each procedure is analysed once per run (AnalyzeProc), over the CFG
//     its image builds once for every run that shares it (image.ProcGraph).
//
// Both are filled on first use by whichever goroutine asks first; what they
// hold is read-only from then on, like the rest of a served Result.

import (
	"fmt"
	"sync"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/daemon"
	"dcpi/internal/image"
	"dcpi/internal/sim"
)

// toolMemo is a result's memo table; the zero value is empty and ready.
type toolMemo struct {
	mu     sync.Mutex
	images map[string]*imageSplit
	procs  map[procKey]*procEntry
}

type procKey struct{ image, proc string }

type procEntry struct {
	once sync.Once
	pa   *analysis.ProcAnalysis
	err  error
}

// imageSplit is one run's profiles of one image, divided among the image's
// procedures. Per event (the first profile of the image for it, as Profile
// finds it), nil where the run has no such profile:
type imageSplit struct {
	once sync.Once
	// perProc holds the samples landing in each procedure, by symbol index.
	perProc [sim.NumEvents][]uint64
	// perInst holds the samples at each instruction of the image.
	perInst [sim.NumEvents][]uint64
	// rest holds the samples at no procedure's offset.
	rest [sim.NumEvents]uint64
	// edges holds, by symbol index, the edge samples whose two ends both
	// lie in the procedure (an empty map where none do); nil without an
	// edge profile.
	edges []map[analysis.EdgePair]uint64
}

// split returns the image's split, building it on first use.
func (r *Result) split(im *image.Image) *imageSplit {
	m := &r.tools
	m.mu.Lock()
	if m.images == nil {
		m.images = make(map[string]*imageSplit)
	}
	sp, ok := m.images[im.Path]
	if !ok {
		sp = new(imageSplit)
		m.images[im.Path] = sp
	}
	m.mu.Unlock()
	sp.once.Do(func() {
		r.reg.Counter("dcpi.sample_splits").Inc() // nil-safe
		for _, p := range r.profiles {
			if p.ImagePath != im.Path {
				continue
			}
			switch {
			case p.Event == sim.EvEdge:
				if sp.edges == nil && len(p.Counts) > 0 {
					sp.edges = splitEdges(im, p.Counts)
				}
			case p.Event < sim.NumEvents && sp.perProc[p.Event] == nil:
				sp.perProc[p.Event], sp.perInst[p.Event], sp.rest[p.Event] = im.SplitCounts(p.Counts)
			}
		}
	})
	return sp
}

// splitEdges divides double-sampling pairs, keyed as daemon.PackEdge packs
// them, among the procedures holding both ends.
func splitEdges(im *image.Image, counts map[uint64]uint64) []map[analysis.EdgePair]uint64 {
	out := make([]map[analysis.EdgePair]uint64, len(im.Symbols))
	for s := range out {
		out[s] = make(map[analysis.EdgePair]uint64)
	}
	for key, n := range counts {
		from, to := daemon.UnpackEdge(key)
		s, ok := im.SymbolIndexAt(from)
		if t, tok := im.SymbolIndexAt(to); ok && tok && t == s {
			out[s][analysis.EdgePair{From: from, To: to}] = n
		}
	}
	return out
}

// ProcSamples returns, by index into the image's Symbols, the samples of
// event ev that landed in each procedure of the image at imagePath; nil when
// the image is not registered or the run has no profile of it for ev. The
// slice is shared: read it, never write it.
func (r *Result) ProcSamples(imagePath string, ev sim.Event) []uint64 {
	im, ok := r.Loader.ImageByPath(imagePath)
	if !ok || ev >= sim.NumEvents {
		return nil
	}
	return r.split(im).perProc[ev]
}

// InstSamples returns, by instruction index, the samples of event ev at
// each instruction of the image at imagePath; nil when the image is not
// registered or the run has no profile of it for ev. The slice is shared:
// read it, never write it.
func (r *Result) InstSamples(imagePath string, ev sim.Event) []uint64 {
	im, ok := r.Loader.ImageByPath(imagePath)
	if !ok || ev >= sim.NumEvents {
		return nil
	}
	return r.split(im).perInst[ev]
}

// AnalyzeSampled hands fn the analysis (AnalyzeProc) of every procedure with
// CYCLES samples, image by image in profile order and procedure by procedure
// in symbol order. It stops at the first analysis that fails.
func (r *Result) AnalyzeSampled(fn func(im *image.Image, s int, pa *analysis.ProcAnalysis)) error {
	for _, p := range r.profiles {
		if p.Event != sim.EvCycles {
			continue
		}
		im, ok := r.Loader.ImageByPath(p.ImagePath)
		if !ok {
			continue
		}
		for s, n := range r.split(im).perProc[sim.EvCycles] {
			if n == 0 {
				continue
			}
			pa, err := r.AnalyzeProc(im.Path, im.Symbols[s].Name)
			if err != nil {
				return err
			}
			fn(im, s, pa)
		}
	}
	return nil
}

// AnalyzeProc runs the full §6 analysis (frequency, CPI, culprits) for one
// procedure of one image, using the run's own profiles and machine model.
// The analysis is made once per result and procedure and shared by every
// caller: read it, never write it.
func (r *Result) AnalyzeProc(imagePath, procName string) (*analysis.ProcAnalysis, error) {
	m := &r.tools
	key := procKey{imagePath, procName}
	m.mu.Lock()
	if m.procs == nil {
		m.procs = make(map[procKey]*procEntry)
	}
	e, ok := m.procs[key]
	if !ok {
		e = new(procEntry)
		m.procs[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.pa, e.err = r.analyzeProc(imagePath, procName) })
	return e.pa, e.err
}

func (r *Result) analyzeProc(imagePath, procName string) (*analysis.ProcAnalysis, error) {
	im, ok := r.Loader.ImageByPath(imagePath)
	if !ok {
		return nil, fmt.Errorf("dcpi: image %q not registered", imagePath)
	}
	s, ok := im.SymbolIndex(procName)
	if !ok {
		return nil, fmt.Errorf("image %s: no procedure %q", im.Name, procName)
	}
	r.reg.Counter("dcpi.analyses").Inc() // nil-safe
	g, built := im.ProcGraph(s)
	if built {
		r.reg.Counter("dcpi.cfg_builds").Inc()
	}
	sp := r.split(im)
	lo, hi := g.BaseOffset/alpha.InstBytes, g.BaseOffset/alpha.InstBytes+uint64(len(g.Code))
	var in analysis.Inputs
	if c := sp.perInst[sim.EvCycles]; c != nil {
		in.Samples = c[lo:hi]
	}
	// IMISS samples become estimated event counts; DTBMISS samples only
	// say whether the procedure saw any. Each is absent (nil, false) when
	// the run's mode did not monitor the event.
	mode := r.Config.Mode
	if mode == sim.ModeDefault || mode == sim.ModeMux {
		in.IMissEvents = make([]uint64, hi-lo)
		if c := sp.perInst[sim.EvIMiss]; c != nil {
			period := r.AvgEventPeriod()
			for i, n := range c[lo:hi] {
				in.IMissEvents[i] = uint64(float64(n) * period)
			}
		}
	}
	if mode == sim.ModeMux {
		in.DTBCollected = true
		if c := sp.perProc[sim.EvDTBMiss]; c != nil {
			in.DTBMisses = c[s]
		}
	}
	if sp.edges != nil {
		in.EdgeSamples = sp.edges[s]
	}
	pa := analysis.Analyze(procName, g, in, r.Model(), r.AvgCyclesPeriod())
	if im.Lines != nil && hi <= uint64(len(im.Lines)) {
		pa.SourceLines = im.Lines[lo:hi]
	}
	return pa, nil
}
