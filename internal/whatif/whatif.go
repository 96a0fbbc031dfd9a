// Package whatif runs hardware sensitivity sweeps: the same workload
// simulated across a grid of perturbed machine descriptions (internal/hw),
// with per-instruction stall breakdowns diffed against the baseline run.
//
// The sweep serves two purposes. First, it answers the capacity-planning
// question the paper's users asked of DCPI ("would a bigger I-cache help
// this program?") with measured numbers instead of bound arithmetic: each
// grid point reports how much wall time and which instructions' cycles
// actually moved. Second — and this is what the paper could never do on
// real hardware — each perturbation is a controlled experiment that tests
// the §6 culprit analysis itself. When the analysis blames an
// instruction's stall on the D-cache, doubling the D-cache must move that
// instruction's cycles; if it does not, the blame was wrong. Scoring every
// (instruction, cause) claim against the cycles that causally moved yields
// the precision/recall reported by cmd/dcpiwhatif (see docs/WHATIF.md).
//
// All runs go through an internal/runner pool, so grid points simulate in
// parallel, repeated sweeps deduplicate, and a persistent cache directory
// makes warm reruns pure decode work.
package whatif

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/dcpi"
	"dcpi/internal/hw"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// Point is one grid point: a named perturbation of the default machine.
type Point struct {
	Name string // short identifier, e.g. "icache2x"
	Desc string // human-readable description of the change
	Spec string // hw.Config spec (hw.Parse), relative to the default machine

	// Targets lists the stall causes this perturbation causally tests,
	// primary cause first: a movement at a site the analysis never blamed
	// for any target is attributed to Targets[0]. Empty means the point is
	// reported for wall-clock sensitivity only (e.g. issue width, which
	// changes the static schedule, not a dynamic-stall cause the culprit
	// analysis blames).
	Targets []analysis.Cause

	// Relief is true when the perturbation relieves the targeted stalls
	// (bigger cache: cycles should drop where the analysis blamed it) and
	// false when it aggravates them (slower memory: cycles should grow).
	// Movement is only counted in the predicted direction; movement the
	// other way is evidence about the perturbation, not about the claim.
	Relief bool
}

// DefaultGrid is the standard sensitivity sweep over the 21164-shaped
// default machine: each cache level doubled, associativity added, TLBs
// halved, an ideal write buffer, a bigger branch predictor, slower L2 and
// memory, and both narrower and wider issue.
func DefaultGrid() []Point {
	return []Point{
		{Name: "icache2x", Desc: "double the I-cache (8K to 16K)", Spec: "icache=16K/32/1",
			Targets: []analysis.Cause{analysis.CauseICache}, Relief: true},
		{Name: "dcache2x", Desc: "double the D-cache (8K to 16K)", Spec: "dcache=16K/32/1",
			Targets: []analysis.Cause{analysis.CauseDCache}, Relief: true},
		{Name: "dassoc2", Desc: "2-way D-cache at the same size", Spec: "dcache=8K/32/2",
			Targets: []analysis.Cause{analysis.CauseDCache}, Relief: true},
		{Name: "itb-half", Desc: "halve the ITB (48 to 24 entries)", Spec: "itb=24",
			Targets: []analysis.Cause{analysis.CauseITB}, Relief: false},
		{Name: "dtb-half", Desc: "halve the DTB (64 to 32 entries)", Spec: "dtb=32",
			Targets: []analysis.Cause{analysis.CauseDTB}, Relief: false},
		{Name: "wb-zero", Desc: "ideal write buffer (instant drain)", Spec: "wb=6/0",
			Targets: []analysis.Cause{analysis.CauseWB}, Relief: true},
		{Name: "pred4x", Desc: "4x branch predictor (512 to 2048)", Spec: "pred=2048",
			Targets: []analysis.Cause{analysis.CauseBranchMP}, Relief: true},
		{Name: "memlat2x", Desc: "double memory latency (80 to 160)", Spec: "memlat=160",
			Targets: []analysis.Cause{analysis.CauseICache, analysis.CauseDCache}, Relief: false},
		{Name: "l2lat2x", Desc: "double L2 latency (12 to 24)", Spec: "l2lat=24",
			Targets: []analysis.Cause{analysis.CauseICache, analysis.CauseDCache}, Relief: false},
		{Name: "issue1", Desc: "single-issue machine", Spec: "issue=1"},
		{Name: "issue4", Desc: "quad-issue machine", Spec: "issue=4"},
	}
}

// GridByNames selects the named subset of DefaultGrid, in the order given.
func GridByNames(names []string) ([]Point, error) {
	byName := map[string]Point{}
	for _, p := range DefaultGrid() {
		byName[p.Name] = p
	}
	out := make([]Point, 0, len(names))
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("whatif: unknown grid point %q (have %s)", n, gridNames())
		}
		out = append(out, p)
	}
	return out, nil
}

func gridNames() string {
	var names []string
	for _, p := range DefaultGrid() {
		names = append(names, p.Name)
	}
	b, _ := json.Marshal(names)
	return string(b)
}

// Options configures a sweep.
type Options struct {
	// Base is the baseline run configuration (workload, scale, seed).
	// Mode is forced to sim.ModeDefault — the sweep needs CYCLES samples
	// for stall breakdowns and IMISS samples for the analysis' I-cache
	// bound — and HW must be the default machine (grid specs are absolute).
	// A zero CyclesPeriod defaults to the dense analysis periods
	// (sim.DenseCyclesPeriod and DenseEventPeriod, as in the Figure 8 and 9
	// accuracy experiments): per-instruction diffing needs far more samples
	// than the paper's production period delivers on short simulated runs.
	Base dcpi.Config

	// Grid lists the perturbations; nil means DefaultGrid().
	Grid []Point

	// Runner executes and caches the runs; nil builds a private one.
	Runner *runner.Runner

	// TopProcs bounds how many of the hottest procedures are analyzed and
	// scored (default 3). The sweep still reports whole-program wall
	// deltas; scoring is restricted to procedures hot enough for the
	// analysis to see.
	TopProcs int

	// MinMoveCycles is the absolute noise floor for counting an
	// instruction's cycles as "moved" and for emitting claims; 0 derives
	// a floor from the sampling period (a handful of samples' worth).
	MinMoveCycles float64
}

// PointResult is one grid point's outcome.
type PointResult struct {
	Name    string   `json:"name"`
	Spec    string   `json:"spec"`
	Desc    string   `json:"desc"`
	Targets []string `json:"targets,omitempty"`
	Relief  bool     `json:"relief"`

	Wall         int64   `json:"wall_cycles"`
	WallDeltaPct float64 `json:"wall_delta_pct"` // (wall-base)/base, percent

	// Causal movement within the analyzed procedures, in the direction
	// the perturbation predicts for its targeted causes.
	MovedCycles float64 `json:"moved_cycles"`
	MovedSites  int     `json:"moved_sites"`

	// ClaimsTested counts the baseline claims this point can test (their
	// cause is among Targets). Confirmed counts the (site, cause) claims
	// whose cycles this point moved; Missed counts sites that moved
	// without any matching claim. A tested-but-unmoved claim is NOT
	// convicted by a single point — the perturbation may simply not reach
	// that site (an L2-resident miss ignores memlat) — only by the whole
	// sweep (see Report's aggregate score).
	ClaimsTested int `json:"claims_tested"`
	Confirmed    int `json:"confirmed"`
	Missed       int `json:"missed"`
}

// CauseScore is the aggregate score for one cause across all grid points
// that target it.
type CauseScore struct {
	Cause     string  `json:"cause"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`

	// FPRules names, for each false positive, the culprit rule that kept
	// the cause; FNRules, for each false negative, the rule that cleared
	// it, or "stall.none" / "claim.below_noise" where no claim could exist
	// (analysis.ProcAnalysis.Why). Both are sorted.
	FPRules []string `json:"fp_rules,omitempty"`
	FNRules []string `json:"fn_rules,omitempty"`
}

// Report is a complete sweep over one workload.
type Report struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`

	BaseWall int64    `json:"base_wall_cycles"`
	Procs    []string `json:"procs"`  // analyzed procedures (hottest first)
	Claims   int      `json:"claims"` // culprit claims extracted from the baseline

	Points   []PointResult `json:"points"`
	PerCause []CauseScore  `json:"per_cause"`

	TotalTP          int     `json:"total_tp"`
	TotalFP          int     `json:"total_fp"`
	TotalFN          int     `json:"total_fn"`
	TotalPrecision   float64 `json:"total_precision"`
	TotalRecall      float64 `json:"total_recall"`
	TotalCycleRecall float64 `json:"total_cycle_recall"`

	// Untested lists causes the baseline analysis blamed that no grid
	// point targets — claims the sweep cannot confirm or refute.
	Untested []string `json:"untested_causes,omitempty"`
}

// procScope is one analyzed procedure of the baseline run.
type procScope struct {
	image   string
	pa      *analysis.ProcAnalysis
	claimed map[analysis.Key]float64 // the baseline's culprit claims, by site
}

// Sweep runs the grid and scores the analysis. All simulations are
// submitted up front so the runner's worker pool executes them in
// parallel; identical reruns resolve from its caches.
func Sweep(opts Options) (*Report, error) {
	base := opts.Base
	base.Mode = sim.ModeDefault
	if base.CyclesPeriod.Base == 0 {
		base.CyclesPeriod, base.EventPeriod = sim.DenseCyclesPeriod, sim.DenseEventPeriod
	}
	if !base.HW.IsDefault() {
		return nil, fmt.Errorf("whatif: baseline must use the default machine (got %q)", base.HW.String())
	}
	grid := opts.Grid
	if grid == nil {
		grid = DefaultGrid()
	}
	sched := opts.Runner
	if sched == nil {
		sched = runner.New(0)
	}
	topProcs := opts.TopProcs
	if topProcs <= 0 {
		topProcs = 3
	}

	// Submit everything, then wait in grid order (deterministic output).
	basePending := sched.Submit(base)
	pendings := make([]*runner.Pending, len(grid))
	for i, pt := range grid {
		hwc, err := hw.Parse(pt.Spec)
		if err != nil {
			return nil, fmt.Errorf("whatif: grid point %s: %w", pt.Name, err)
		}
		cfg := base
		cfg.HW = hwc
		pendings[i] = sched.Submit(cfg)
	}
	baseRes, err := basePending.Wait()
	if err != nil {
		return nil, fmt.Errorf("whatif: baseline: %w", err)
	}

	period := baseRes.AvgCyclesPeriod()
	minMove := opts.MinMoveCycles
	if minMove <= 0 {
		minMove = 4 * period // a few samples' worth: below that is noise
	}

	rep := &Report{
		Workload: base.Workload,
		Scale:    base.Scale,
		Seed:     base.Seed,
		BaseWall: baseRes.Wall,
	}

	// Analyze the hottest procedures of the baseline and extract claims.
	scopes, err := analyzeTop(baseRes, topProcs, minMove)
	if err != nil {
		return nil, err
	}
	claimedCauses := map[analysis.Cause]bool{}
	for _, sc := range scopes {
		rep.Procs = append(rep.Procs, sc.pa.Name)
		rep.Claims += len(sc.claimed)
		for k := range sc.claimed {
			claimedCauses[k.Cause] = true
		}
	}

	// truth accumulates ground truth per scope across the whole grid: every
	// point's movements, which scoring reduces to the largest at each
	// (site, cause). A claim is confirmed if any targeting point moved its
	// site; it counts as a false positive only when no point did — a
	// single perturbation may legitimately not reach a site (an
	// L2-resident miss ignores memlat), but across a grid that doubles the
	// cache, adds associativity, and slows both miss paths, a real D-cache
	// stall moves somewhere.
	truth := make([][]analysis.Claim, len(scopes))
	targeted := map[analysis.Cause]bool{}

	for i, pt := range grid {
		res, err := pendings[i].Wait()
		if err != nil {
			return nil, fmt.Errorf("whatif: grid point %s: %w", pt.Name, err)
		}
		pr := PointResult{
			Name: pt.Name, Spec: pt.Spec, Desc: pt.Desc, Relief: pt.Relief,
			Wall:         res.Wall,
			WallDeltaPct: 100 * float64(res.Wall-baseRes.Wall) / float64(baseRes.Wall),
		}
		for _, c := range pt.Targets {
			pr.Targets = append(pr.Targets, c.String())
			targeted[c] = true
		}

		for si := range scopes {
			sc := &scopes[si]
			if len(pt.Targets) == 0 {
				continue
			}
			for k := range sc.claimed {
				if slices.Contains(pt.Targets, k.Cause) {
					pr.ClaimsTested++
				}
			}
			for off, cyc := range movedOffsets(baseRes, res, sc, pt, minMove) {
				pr.MovedSites++
				pr.MovedCycles += cyc
				matched := false
				for _, cause := range pt.Targets {
					k := analysis.Key{Offset: off, Cause: cause}
					if _, ok := sc.claimed[k]; ok {
						matched = true
						pr.Confirmed++
						truth[si] = append(truth[si], analysis.Claim{Key: k, Cycles: cyc})
					}
				}
				if !matched {
					// Unclaimed movement: attribute to the primary target.
					pr.Missed++
					k := analysis.Key{Offset: off, Cause: pt.Targets[0]}
					truth[si] = append(truth[si], analysis.Claim{Key: k, Cycles: cyc})
				}
			}
		}
		rep.Points = append(rep.Points, pr)
	}

	// Aggregate score: every claim testable by some grid point, against
	// the union of movement the grid produced, through the exported
	// analysis scoring hooks.
	var perCause [analysis.NumCauses]analysis.Score
	var total analysis.Score
	for si := range scopes {
		pa := scopes[si].pa
		per, s := analysis.ScoreClaims(testable(scopes[si].claimed, targeted), analysis.Sites(truth[si]),
			func(k analysis.Key) string { return pa.Why(k, minMove) })
		total.Add(s)
		for c := range per {
			perCause[c].Add(per[c])
		}
	}

	for c, s := range perCause {
		if s.TP+s.FP+s.FN == 0 {
			continue // in neither the claims nor the movements
		}
		sort.Strings(s.FPRules)
		sort.Strings(s.FNRules)
		rep.PerCause = append(rep.PerCause, CauseScore{
			Cause: analysis.Cause(c).String(), TP: s.TP, FP: s.FP, FN: s.FN,
			Precision: s.Precision(), Recall: s.Recall(),
			FPRules: s.FPRules, FNRules: s.FNRules,
		})
	}
	rep.TotalTP, rep.TotalFP, rep.TotalFN = total.TP, total.FP, total.FN
	rep.TotalPrecision = total.Precision()
	rep.TotalRecall = total.Recall()
	rep.TotalCycleRecall = total.CycleRecall()

	var untested []string
	for c := analysis.Cause(0); c < analysis.NumCauses; c++ {
		if claimedCauses[c] && !targeted[c] {
			untested = append(untested, c.String())
		}
	}
	sort.Strings(untested)
	rep.Untested = untested
	return rep, nil
}

// analyzeTop runs the §6 analysis over the baseline's hottest procedures
// and extracts their culprit claims.
func analyzeTop(res *dcpi.Result, topProcs int, minMove float64) ([]procScope, error) {
	var scopes []procScope
	for _, row := range res.ProcRows() {
		if len(scopes) >= topProcs {
			break
		}
		if row.Procedure == "<unknown>" || row.Counts[sim.EvCycles] == 0 {
			continue
		}
		pa, err := res.AnalyzeProc(row.ImagePath, row.Procedure)
		if err != nil {
			return nil, fmt.Errorf("whatif: analyzing %s!%s: %w", row.ImagePath, row.Procedure, err)
		}
		scopes = append(scopes, procScope{row.ImagePath, pa, analysis.Sites(analysis.CulpritClaims(pa, minMove))})
	}
	return scopes, nil
}

// testable returns the claims whose cause some grid point targets: only
// those are causally testable.
func testable(claimed map[analysis.Key]float64, targeted map[analysis.Cause]bool) map[analysis.Key]float64 {
	out := map[analysis.Key]float64{}
	for k, cyc := range claimed {
		if targeted[k.Cause] {
			out[k] = cyc
		}
	}
	return out
}

// movedOffsets computes the per-instruction cycle movement one grid point
// produced in one procedure: cycle deltas between baseline and perturbed
// run, signed by the point's predicted direction, thresholded against
// sampling noise.
func movedOffsets(baseRes, res *dcpi.Result, sc *procScope, pt Point, minMove float64) map[uint64]float64 {
	period0 := baseRes.AvgCyclesPeriod()
	period1 := res.AvgCyclesPeriod()
	var c0, c1 map[uint64]uint64
	if p := baseRes.Profile(sc.image, sim.EvCycles); p != nil {
		c0 = p.Counts
	}
	if p := res.Profile(sc.image, sim.EvCycles); p != nil {
		c1 = p.Counts
	}
	out := map[uint64]float64{}
	hi := sc.pa.BaseOffset + uint64(len(sc.pa.Insts))*alpha.InstBytes
	for off := sc.pa.BaseOffset; off < hi; off += alpha.InstBytes {
		n0, n1 := c0[off], c1[off]
		if n0 == 0 && n1 == 0 {
			continue
		}
		moved := float64(n1)*period1 - float64(n0)*period0
		if pt.Relief {
			moved = -moved
		}
		// Poisson-ish noise floor: ~3 standard deviations of the larger
		// sample count, but never below the configured absolute floor.
		nmax := n0
		if n1 > nmax {
			nmax = n1
		}
		noise := 3 * math.Sqrt(float64(nmax)) * math.Max(period0, period1)
		if moved < math.Max(minMove, noise) {
			continue
		}
		out[off] = moved
	}
	return out
}

// FormatReport renders the sweep as a fixed-width table.
func FormatReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "what-if sweep: %s (scale %g, seed %d)\n", rep.Workload, rep.Scale, rep.Seed)
	fmt.Fprintf(w, "baseline wall %d cycles; procedures analyzed: %s; %d culprit claims\n\n",
		rep.BaseWall, joinOr(rep.Procs, "none"), rep.Claims)
	fmt.Fprintf(w, "%-10s %-22s %9s %12s %6s %7s %5s %5s\n",
		"point", "hw", "wall Δ%", "moved cyc", "sites", "tested", "conf", "miss")
	for _, p := range rep.Points {
		if len(p.Targets) == 0 {
			fmt.Fprintf(w, "%-10s %-22s %+9.2f %12s %6s %7s %5s %5s\n",
				p.Name, p.Spec, p.WallDeltaPct, "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-10s %-22s %+9.2f %12.0f %6d %7d %5d %5d\n",
			p.Name, p.Spec, p.WallDeltaPct, p.MovedCycles, p.MovedSites,
			p.ClaimsTested, p.Confirmed, p.Missed)
	}
	fmt.Fprintf(w, "\nper-cause culprit score (claims vs. cycles the whole grid moved):\n")
	for _, cs := range rep.PerCause {
		fmt.Fprintf(w, "  %-18s TP %3d  FP %3d  FN %3d  precision %.2f  recall %.2f\n",
			cs.Cause, cs.TP, cs.FP, cs.FN, cs.Precision, cs.Recall)
		formatRules(w, "FP", cs.FPRules)
		formatRules(w, "FN", cs.FNRules)
	}
	fmt.Fprintf(w, "aggregate: TP %d FP %d FN %d  precision %.2f  recall %.2f  cycle recall %.2f\n",
		rep.TotalTP, rep.TotalFP, rep.TotalFN, rep.TotalPrecision, rep.TotalRecall, rep.TotalCycleRecall)
	if len(rep.Untested) > 0 {
		fmt.Fprintf(w, "untested causes (claimed, but no grid point targets them): %s\n",
			joinOr(rep.Untested, ""))
	}
}

// formatRules prints the rules behind a cause's false positives or
// negatives, each with its count.
func formatRules(w io.Writer, what string, rules []string) {
	var counted []string
	for i := 0; i < len(rules); {
		j := i + 1
		for j < len(rules) && rules[j] == rules[i] {
			j++
		}
		counted = append(counted, fmt.Sprintf("%s %d", rules[i], j-i))
		i = j
	}
	if len(counted) > 0 {
		fmt.Fprintf(w, "    %s by rule: %s\n", what, joinOr(counted, ""))
	}
}

func joinOr(list []string, empty string) string {
	if len(list) == 0 {
		return empty
	}
	out := list[0]
	for _, s := range list[1:] {
		out += ", " + s
	}
	return out
}
