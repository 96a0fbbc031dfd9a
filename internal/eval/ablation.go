package eval

import (
	"fmt"
	"io"

	"dcpi/internal/dcpi"
	"dcpi/internal/driver"
	"dcpi/internal/sim"
)

// The §5.4 hash-table design-space ablation: replay a real sample trace
// through the driver's own hash table at alternative design points
// (associativity, replacement policy, swap-to-front) and compare estimated
// handler cost. The paper's finding: 6-way + swap-to-front reduces overall
// system cost by 10-20%.

// perProbe is the cycles charged per way examined beyond the first (one
// cache line). It is assigned: the driver's cost model has no probe term.
const perProbe = 4

// AblationRow is one design point's result.
type AblationRow struct {
	Config    driver.Config
	Label     string
	Stats     driver.Stats // the replay's counts on its one CPU
	AvgProbes float64      // ways examined per sample (driver.Probes)
	Cost      int64
	CostRatio float64 // relative to the shipping 4-way round-robin design
}

// AblationResult is the full sweep for one trace.
type AblationResult struct {
	Workload    string
	TraceLength int
	Rows        []AblationRow
}

// AblationHT captures a trace from a high-eviction workload (gcc-like, per
// the paper) and replays it through driver.New(...).Record at each design
// point, on one CPU with a consumer that accepts every full buffer. Two
// scalings keep the experiment laptop-sized while preserving the pressure
// ratio the paper saw: the trace is captured with a very dense sampling
// period (the key *distribution* is what a trace replay needs), and the
// swept tables are 8x smaller than the shipping 16K entries.
func AblationHT(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	defer o.span("Ablation ht")()
	const wl = "gcc"
	trace, err := ablationTrace(o, wl)
	if err != nil {
		return nil, err
	}

	// The paper's 6-way design packs more entries per cache line, which
	// also grows total capacity; the bucket count stays fixed.
	const buckets = 512 // shipping 4096, scaled 8x down with the trace
	designs := []struct {
		label string
		cfg   driver.Config
	}{
		{"4-way round-robin (shipping)", driver.Config{}},
		{"4-way LRU", driver.Config{LRU: true}},
		{"4-way swap-to-front", driver.Config{SwapToFront: true}},
		{"6-way round-robin", driver.Config{Ways: 6}},
		{"6-way swap-to-front", driver.Config{Ways: 6, SwapToFront: true}},
		{"8-way swap-to-front", driver.Config{Ways: 8, SwapToFront: true}},
		{"2-way round-robin", driver.Config{Ways: 2}},
	}

	cm := driver.DefaultCostModel()
	res := &AblationResult{Workload: wl, TraceLength: len(trace)}
	var baseline int64
	for _, p := range designs {
		cfg := p.cfg
		// The consumer takes every buffer, so small ones change no count.
		cfg.NumCPUs, cfg.Buckets, cfg.OverflowEntries, cfg.ZeroCost = 1, buckets, 512, true
		d := driver.New(cfg)
		d.OnBufferFull = func(int, int64, []driver.Entry) bool { return true }
		for _, s := range trace {
			d.Record(0, s.PID, s.PC, s.Event)
		}
		st, probes := d.Stats(0), d.Probes(0)
		// Setup and one probe per sample, the overflow entry's cache line
		// per eviction, and perProbe per way beyond the first.
		cost := int64(st.Samples)*(cm.Setup+cm.HitWork) + int64(st.Evictions)*cm.MissExtra
		if extra := int64(probes) - int64(st.Samples); extra > 0 {
			cost += extra * perProbe
		}
		if baseline == 0 {
			baseline = cost
		}
		res.Rows = append(res.Rows, AblationRow{Config: cfg, Label: p.label, Stats: st, Cost: cost,
			AvgProbes: float64(probes) / float64(st.Samples), CostRatio: float64(cost) / float64(baseline)})
	}
	return res, nil
}

// ablationTrace captures the trace the sweep replays: a dense zero-cost run
// of wl, fixed seed, scale at least 0.25 (so any Scale ≤ 0.25 gives one trace).
func ablationTrace(o Options, wl string) ([]sim.Sample, error) {
	scale := o.Scale
	if scale < 0.25 {
		scale = 0.25
	}
	r, err := o.Runner.Run(dcpi.Config{
		Workload:           wl,
		Scale:              scale,
		Mode:               sim.ModeCycles,
		Seed:               seedFor("ablation", wl, 0),
		CyclesPeriod:       sim.PeriodSpec{Base: 448, Spread: 128},
		TraceSamples:       true,
		ZeroCostCollection: true,
	})
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	return r.Trace, nil
}

// FormatAblation renders the sweep.
func FormatAblation(w io.Writer, res *AblationResult) {
	fmt.Fprintf(w, "Hash-table design sweep (§5.4) on a %s trace of %d samples\n\n",
		res.Workload, res.TraceLength)
	fmt.Fprintf(w, "%-30s %9s %9s %10s %12s %8s\n",
		"design", "missrate", "probes", "evictions", "cost(cyc)", "vs base")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-30s %8.1f%% %9.2f %10d %12d %7.1f%%\n",
			r.Label, 100*r.Stats.MissRate(), r.AvgProbes,
			r.Stats.Evictions, r.Cost, 100*r.CostRatio)
	}
}
