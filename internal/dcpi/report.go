package dcpi

import (
	"fmt"
	"io"
	"math"
	"strings"

	"dcpi/internal/analysis"
	"dcpi/internal/daemon"
	"dcpi/internal/pipeline"
	"dcpi/internal/sim"
)

// FormatProcList writes the dcpiprof view (the paper's Figure 1): samples
// per procedure sorted by decreasing cycles, with cumulative percentages and
// a second event column when present.
func FormatProcList(w io.Writer, r *Result, maxRows int) {
	rows := r.ProcRows()
	totalCycles := r.TotalSamples(sim.EvCycles)
	totalIMiss := r.TotalSamples(sim.EvIMiss)

	if totalIMiss > 0 {
		fmt.Fprintf(w, "Total samples for event type cycles = %d, imiss = %d\n\n", totalCycles, totalIMiss)
	} else {
		fmt.Fprintf(w, "Total samples for event type cycles = %d\n\n", totalCycles)
	}
	fmt.Fprintf(w, "The counts given below are the number of samples for each listed event type.\n\n")
	if totalIMiss > 0 {
		fmt.Fprintf(w, "%9s %7s %7s  %8s %6s  %-24s %s\n", "cycles", "%", "cum%", "imiss", "%", "procedure", "image")
	} else {
		fmt.Fprintf(w, "%9s %7s %7s  %-24s %s\n", "cycles", "%", "cum%", "procedure", "image")
	}
	var cum float64
	for i, row := range rows {
		if maxRows > 0 && i >= maxRows {
			break
		}
		cyc := row.Counts[sim.EvCycles]
		pct := 0.0
		if totalCycles > 0 {
			pct = 100 * float64(cyc) / float64(totalCycles)
		}
		if _, pid := daemon.ParseProfileName(row.ImagePath); pid == 0 {
			cum += pct // a per-process row repeats samples already counted
		}
		if totalIMiss > 0 {
			ipct := 0.0
			if totalIMiss > 0 {
				ipct = 100 * float64(row.Counts[sim.EvIMiss]) / float64(totalIMiss)
			}
			fmt.Fprintf(w, "%9d %6.2f%% %6.2f%%  %8d %5.2f%%  %-24s %s\n",
				cyc, pct, cum, row.Counts[sim.EvIMiss], ipct, row.Procedure, row.ImagePath)
		} else {
			fmt.Fprintf(w, "%9d %6.2f%% %6.2f%%  %-24s %s\n", cyc, pct, cum, row.Procedure, row.ImagePath)
		}
	}
}

// legendName returns the parenthetical legend for a culprit letter, as in
// Figure 2 ("d = D-cache miss").
func legendName(c analysis.Cause) string {
	switch c {
	case analysis.CauseICache:
		return "I-cache miss"
	case analysis.CauseITB:
		return "ITB miss"
	case analysis.CauseDCache:
		return "D-cache miss"
	case analysis.CauseDTB:
		return "DTB miss"
	case analysis.CauseWB:
		return "write-buffer overflow"
	case analysis.CauseBranchMP:
		return "branch mispredict"
	case analysis.CauseSync:
		return "sync"
	case analysis.CauseFUMul:
		return "multiplier busy"
	case analysis.CauseFUDiv:
		return "divider busy"
	}
	return "unexplained"
}

// FormatCalc writes the dcpicalc instruction listing (Figure 2): best-case
// vs actual CPI, then each instruction with samples, average cycles, and
// stall bubbles naming possible culprits.
func FormatCalc(w io.Writer, pa *analysis.ProcAnalysis) {
	var totalSamples uint64
	var bestCycles float64
	var execWeight float64
	for i := range pa.Insts {
		ia := &pa.Insts[i]
		totalSamples += ia.Samples
		weight := ia.Freq / pa.Period
		bestCycles += weight * float64(ia.M)
		execWeight += weight
	}
	fmt.Fprintf(w, "*** Best-case %6.0f/%d = %.2fCPI\n", bestCycles, len(pa.Insts), pa.BestCaseCPI)
	fmt.Fprintf(w, "*** Actual    %6d/%d = %.2fCPI\n\n", totalSamples, len(pa.Insts), pa.ActualCPI)
	fmt.Fprintf(w, "%8s %-28s %9s %8s  %s\n\n", "Addr", "Instruction", "Samples", "CPI", "Culprit")

	legendShown := map[byte]bool{}
	for i := range pa.Insts {
		ia := &pa.Insts[i]

		// Bubble lines before a stalled instruction.
		if ia.DynStall > 0.5 && len(ia.Culprits) > 0 {
			var letters []byte
			for _, c := range ia.Culprits {
				letters = append(letters, c.Cause.Letter())
			}
			for _, c := range ia.Culprits {
				l := c.Cause.Letter()
				if !legendShown[l] {
					legendShown[l] = true
					fmt.Fprintf(w, "%48s  %s (%c = %s)\n", "", string(letters), l, legendName(c.Cause))
				}
			}
			fmt.Fprintf(w, "%48s  %s %.1fcy\n", "", string(letters), ia.DynStall)
		}
		if ia.SlotHazard {
			if !legendShown['s'] {
				legendShown['s'] = true
				fmt.Fprintf(w, "%48s  s (s = slotting hazard)\n", "")
			} else {
				fmt.Fprintf(w, "%48s  s\n", "")
			}
		}

		cpiStr := "(dual issue)"
		if ia.M > 0 || ia.Samples > 0 {
			if math.IsInf(ia.CPI, 1) {
				cpiStr = "   ?cy"
			} else if ia.CPI > 0 {
				cpiStr = fmt.Sprintf("%5.1fcy", ia.CPI)
			} else {
				cpiStr = "  0.0cy"
			}
		}
		var culpritAddrs []string
		for _, c := range ia.Culprits {
			if c.CulpritIndex >= 0 {
				culpritAddrs = append(culpritAddrs,
					fmt.Sprintf("%06x", pa.Insts[c.CulpritIndex].Offset))
			}
		}
		lineCol := ""
		if pa.SourceLines != nil {
			lineCol = fmt.Sprintf("  line %d", pa.SourceLines[i])
		}
		fmt.Fprintf(w, "%08x %-28s %9d %8s  %s%s\n",
			ia.Offset, ia.Inst.DisasmAt(ia.Offset), ia.Samples, cpiStr,
			strings.Join(culpritAddrs, " "), lineCol)
	}
}

// FormatSummary writes the dcpicalc procedure summary (Figure 4): dynamic
// stall ranges per cause, static stalls per kind, execution, and totals.
func FormatSummary(w io.Writer, pa *analysis.ProcAnalysis) {
	s := pa.Summary
	fmt.Fprintf(w, "*** Best-case %.2fCPI, Actual %.2fCPI\n***\n", pa.BestCaseCPI, pa.ActualCPI)
	pct := func(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }

	dynCauses := []analysis.Cause{
		analysis.CauseICache, analysis.CauseITB, analysis.CauseDCache,
		analysis.CauseDTB, analysis.CauseWB, analysis.CauseSync,
		analysis.CauseBranchMP, analysis.CauseFUMul, analysis.CauseFUDiv,
	}
	for _, c := range dynCauses {
		fmt.Fprintf(w, "***   %-22s %s to %s\n", c.String(), pct(s.DynMin[c]), pct(s.DynMax[c]))
	}
	fmt.Fprintf(w, "***   %-22s %s to %s\n", "Unexplained stall", pct(s.UnexplainedStall), pct(s.UnexplainedStall))
	fmt.Fprintf(w, "***   %-22s %s to %s\n", "Unexplained gain", pct(-s.UnexplainedGain), pct(-s.UnexplainedGain))
	fmt.Fprintf(w, "*** %s\n", strings.Repeat("-", 42))
	fmt.Fprintf(w, "***   %-22s %s\n", "Subtotal dynamic", pct(s.DynTotal))
	fmt.Fprintf(w, "***\n")

	staticKinds := []pipeline.StallKind{
		pipeline.StallSlotting, pipeline.StallRaDep, pipeline.StallRbDep,
		pipeline.StallRcDep, pipeline.StallFUDep,
	}
	for _, k := range staticKinds {
		fmt.Fprintf(w, "***   %-22s %s\n", k.String(), pct(s.Static[k]))
	}
	fmt.Fprintf(w, "*** %s\n", strings.Repeat("-", 42))
	fmt.Fprintf(w, "***   %-22s %s\n", "Subtotal static", pct(s.SubtotalStatic()))
	fmt.Fprintf(w, "*** %s\n", strings.Repeat("-", 42))
	fmt.Fprintf(w, "***   %-22s %s\n", "Total stall", pct(s.DynTotal+s.SubtotalStatic()))
	fmt.Fprintf(w, "***   %-22s %s\n", "Execution", pct(s.Execution))
	err := 1 - (s.DynTotal + s.SubtotalStatic() + s.Execution)
	fmt.Fprintf(w, "***   %-22s %s\n", "Net sampling error", pct(err))
	fmt.Fprintf(w, "*** %s\n", strings.Repeat("-", 42))
	fmt.Fprintf(w, "***   %-22s %s\n", "Total tallied", pct(1.0))
	fmt.Fprintf(w, "***   (%d samples)\n", s.TotalSamples)
}

// FormatStats writes the dcpistats view (Figure 3): per-procedure variation
// across sample sets, sorted by range%.
func FormatStats(w io.Writer, rows []StatRow, setTotals []uint64, maxRows int) {
	fmt.Fprintf(w, "Number of samples of type cycles\n")
	var grand uint64
	for i, t := range setTotals {
		fmt.Fprintf(w, "set %2d = %8d  ", i+1, t)
		grand += t
		if (i+1)%4 == 0 {
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nTOTAL %d\n\n", grand)
	fmt.Fprintf(w, "Statistics calculated using the sample counts for each procedure from %d different sample set(s)\n\n", len(setTotals))
	fmt.Fprintf(w, "%7s %12s %7s %3s %11s %11s %9s %9s  %s\n",
		"range%", "sum", "sum%", "N", "mean", "std-dev", "min", "max", "procedure")
	printed := 0
	for _, row := range rows {
		if maxRows > 0 && printed >= maxRows {
			break
		}
		// Procedures with a negligible share have statistically meaningless
		// range%; keep the table to rows a user can act on.
		if row.SumPct(grand) < 0.0005 {
			continue
		}
		printed++
		fmt.Fprintf(w, "%6.2f%% %12d %6.2f%% %3d %11.2f %11.2f %9d %9d  %s\n",
			100*row.RangePct(), row.Sum, 100*row.SumPct(grand), row.N,
			row.Mean, row.StdDev, row.Min, row.Max, row.Procedure)
	}
}

// FormatFreqTable writes the paper's Figure 7 view: per-instruction sample
// counts, static Mᵢ, the Sᵢ/Mᵢ issue-point ratios, and a '*' marking the
// ratios the cluster heuristic averaged to estimate the frequency.
func FormatFreqTable(w io.Writer, pa *analysis.ProcAnalysis) {
	fmt.Fprintf(w, "%8s %-28s %8s %4s %10s\n", "Addr", "Instruction", "Si", "Mi", "Si/Mi")
	for i := range pa.Insts {
		ia := &pa.Insts[i]
		ratio := ""
		if ia.M > 0 {
			r := float64(ia.Samples) / float64(ia.M)
			mark := ""
			class := pa.Graph.BlockClass[pa.Graph.BlockOfInst(i)]
			if lo, hi := pa.ClusterLo[class], pa.ClusterHi[class]; hi > 0 && r >= lo && r <= hi {
				mark = " *"
			}
			ratio = fmt.Sprintf("%.0f%s", r, mark)
		}
		fmt.Fprintf(w, "%08x %-28s %8d %4d %10s\n",
			ia.Offset, ia.Inst.DisasmAt(ia.Offset), ia.Samples, ia.M, ratio)
	}
	// Per-class estimates, like the "frequency of 1527" note under Fig 7.
	seen := map[int]bool{}
	for bi := range pa.Graph.Blocks {
		c := pa.Graph.BlockClass[bi]
		if seen[c] || pa.ClassFreq[c] <= 0 {
			continue
		}
		seen[c] = true
		fmt.Fprintf(w, "class %d: estimated frequency %.0f (%s confidence)\n",
			c, pa.ClassFreq[c], pa.ClassConf[c])
	}
}
