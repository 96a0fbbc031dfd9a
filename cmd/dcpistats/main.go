// Command dcpistats analyzes the variation in profile data across multiple
// sample sets, isolating the procedures whose behaviour differs from run to
// run — the paper's Figure 3 tool (the wave5 variance study).
//
// Usage:
//
//	dcpistats [-workload wave5] [-n 15] db1 db2 db3 ...
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/dcpi"
	"dcpi/internal/sim"
)

func main() {
	var (
		wl = flag.String("workload", "", "workload name (defaults to database metadata)")
		n  = flag.Int("n", 15, "maximum rows")
	)
	flag.Parse()
	dbs := flag.Args()
	if len(dbs) < 2 {
		fmt.Fprintln(os.Stderr, "dcpistats: need at least two profile databases")
		os.Exit(2)
	}

	var (
		runs   []map[string]uint64
		totals []uint64
	)
	for _, dir := range dbs {
		r, err := dcpi.OpenView(dir, *wl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpistats: %s: %v\n", dir, err)
			os.Exit(1)
		}
		m := r.ProcSampleMap()
		runs = append(runs, m)
		totals = append(totals, r.TotalSamples(sim.EvCycles))
	}
	rows := dcpi.StatsAcrossRuns(runs)
	dcpi.FormatStats(os.Stdout, rows, totals, *n)
}
