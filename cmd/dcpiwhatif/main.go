// Command dcpiwhatif runs hardware sensitivity sweeps and scores the §6
// culprit analysis against causal ground truth (internal/whatif, see
// docs/WHATIF.md).
//
// Usage:
//
//	dcpiwhatif                                # default grid, compress + li
//	dcpiwhatif -workloads gcc -scale 0.25     # one workload, bigger run
//	dcpiwhatif -grid dcache2x,memlat2x        # a subset of the grid
//	dcpiwhatif -list                          # show the available grid points
//	dcpiwhatif -json report.json              # machine-readable reports
//	dcpiwhatif -cache-dir ~/.cache/dcpi       # reruns decode instead of simulating
//
// Every grid point is a full machine simulation; -j bounds how many run
// concurrently and -cache-dir persists results across invocations (the
// same cache dcpieval uses — a sweep re-run after an unrelated evaluation
// is free). A final "dcpiwhatif-cache-stats {...}" line on stderr reports
// how runs were resolved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dcpi/internal/cli"
	"dcpi/internal/dcpi"
	"dcpi/internal/whatif"
)

func main() {
	app := cli.New("dcpiwhatif")
	var (
		workloads = flag.String("workloads", "compress,li", "comma-separated workloads to sweep")
		scale     = flag.Float64("scale", 0.1, "workload scale (1.0 = full size)")
		seed      = flag.Uint64("seed", 1, "baseline seed (page placement and sampling)")
		grid      = flag.String("grid", "", "comma-separated grid points (default: all; see -list)")
		list      = flag.Bool("list", false, "list the grid points and exit")
		procs     = flag.Int("procs", 0, "hottest procedures analyzed per workload (default 3)")
		minMove   = flag.Float64("min-move", 0, "noise floor in cycles for counting movement (default: a few sampling periods)")
		jsonOut   = flag.String("json", "", "write the reports as a JSON array to this file")
	)
	app.RunnerFlags()
	flag.Parse()
	app.Start()

	if *list {
		for _, p := range whatif.DefaultGrid() {
			tgt := "wall-clock only"
			if len(p.Targets) > 0 {
				var names []string
				for _, c := range p.Targets {
					names = append(names, c.String())
				}
				tgt = "tests " + strings.Join(names, ", ")
			}
			fmt.Printf("%-10s %-22s %s (%s)\n", p.Name, p.Spec, p.Desc, tgt)
		}
		app.Exit(0)
	}

	points := whatif.DefaultGrid()
	if *grid != "" {
		var err error
		points, err = whatif.GridByNames(strings.Split(*grid, ","))
		if err != nil {
			app.Fatalf(2, "%v", err)
		}
	}

	sched := app.Runner()
	var reports []*whatif.Report
	for i, w := range strings.Split(*workloads, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		rep, err := whatif.Sweep(whatif.Options{
			Base:          dcpi.Config{Workload: w, Scale: *scale, Seed: *seed},
			Grid:          points,
			Runner:        sched,
			TopProcs:      *procs,
			MinMoveCycles: *minMove,
		})
		if err != nil {
			app.Fatalf(1, "%v", err)
		}
		if i > 0 {
			fmt.Println()
		}
		whatif.FormatReport(os.Stdout, rep)
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		app.Fatalf(2, "no workloads given")
	}

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			app.Fatalf(1, "writing %s: %v", *jsonOut, err)
		}
	}

	// TestCLIWhatif asserts a warm rerun reports "simulated":0 here.
	app.CacheStats(sched, false)
	app.Exit(0)
}
