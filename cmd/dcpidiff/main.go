// Command dcpidiff highlights the differences between two sets of profiles
// for the same program — one of the auxiliary analysis tools the paper's §3
// describes. Procedures are sorted by the magnitude of their share change.
//
// Usage:
//
//	dcpidiff [-workload wave5] [-n 15] dbBefore dbAfter
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/analysis"
	"dcpi/internal/dcpi"
	"dcpi/internal/sim"
)

func main() {
	var (
		wl = flag.String("workload", "", "workload name (defaults to database metadata)")
		n  = flag.Int("n", 15, "maximum rows")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "dcpidiff: need exactly two profile databases")
		os.Exit(2)
	}

	load := func(dir string) (map[string]uint64, uint64) {
		r, err := dcpi.OpenView(dir, *wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpidiff: %s: %v\n", dir, err)
			os.Exit(1)
		}
		return r.ProcSampleMap(), r.TotalSamples(sim.EvCycles)
	}
	before, beforeTotal := load(flag.Arg(0))
	after, afterTotal := load(flag.Arg(1))
	if beforeTotal == 0 || afterTotal == 0 {
		fmt.Fprintln(os.Stderr, "dcpidiff: a database has no cycles samples")
		os.Exit(1)
	}

	// The ranking itself lives in internal/analysis so the fleet top-delta
	// query (dcpicollect) and this tool agree on what "changed most" means.
	rows := analysis.ShareDeltasTotals(before, after, beforeTotal, afterTotal)

	fmt.Printf("Profile comparison: %s (%d samples) vs %s (%d samples)\n\n",
		flag.Arg(0), beforeTotal, flag.Arg(1), afterTotal)
	fmt.Printf("%8s %8s %8s  %s\n", "before", "after", "delta", "procedure")
	for i, r := range rows {
		if *n > 0 && i >= *n {
			break
		}
		fmt.Printf("%7.2f%% %7.2f%% %+7.2f%%  %s\n", r.BeforePct, r.AfterPct, r.Delta(), r.Name)
	}
}
