// Command dcpiprof displays the number of samples per procedure (or per
// image), sorted by decreasing sample count — the paper's Figure 1 tool.
//
// Usage:
//
//	dcpiprof -db ./dcpidb [-workload x11perf] [-n 20] [-images]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dcpi/internal/cli"
	"dcpi/internal/dcpi"
	"dcpi/internal/sim"
)

func main() {
	openView := cli.ViewFlags("dcpiprof")
	var (
		n     = flag.Int("n", 20, "maximum rows")
		byImg = flag.Bool("images", false, "aggregate by image instead of procedure")
	)
	flag.Parse()

	r := openView()

	if !*byImg {
		dcpi.FormatProcList(os.Stdout, r, *n)
		return
	}

	// Per-image aggregation.
	type row struct {
		img    string
		cycles uint64
	}
	agg := map[string]uint64{}
	for _, p := range r.Profiles() {
		if p.Event == sim.EvCycles {
			agg[p.ImagePath] += p.Total()
		}
	}
	var rows []row
	for img, c := range agg {
		rows = append(rows, row{img, c})
	}
	total := r.TotalSamples(sim.EvCycles) // a per-process row's samples are its image's too
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].img < rows[j].img
	})
	fmt.Printf("Total samples for event type cycles = %d\n\n", total)
	fmt.Printf("%9s %7s  %s\n", "cycles", "%", "image")
	for i, rw := range rows {
		if *n > 0 && i >= *n {
			break
		}
		fmt.Printf("%9d %6.2f%%  %s\n", rw.cycles, 100*float64(rw.cycles)/float64(total), rw.img)
	}
}
