// Command dcpicalc calculates the cycles-per-instruction and execution
// frequency of a procedure and annotates every stall with its possible
// causes — the paper's Figure 2 listing and Figure 4 summary.
//
// Usage:
//
//	dcpicalc -db ./dcpidb -image /bin/mccalpin -proc copyloop [-summary]
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/cli"
	"dcpi/internal/dcpi"
	"dcpi/internal/sim"
)

func main() {
	openView := cli.ViewFlags("dcpicalc")
	var (
		img     = flag.String("image", "", "image path (e.g. /bin/mccalpin)")
		proc    = flag.String("proc", "", "procedure name (empty lists procedures)")
		summary = flag.Bool("summary", false, "print the stall summary instead of the listing")
	)
	flag.Parse()

	r := openView()

	if *img == "" {
		fmt.Fprintln(os.Stderr, "dcpicalc: -image required; images with samples:")
		for _, p := range r.Profiles() {
			if p.Event == sim.EvCycles {
				fmt.Fprintf(os.Stderr, "  %s (%d samples)\n", p.ImagePath, p.Total())
			}
		}
		os.Exit(2)
	}
	if *proc == "" {
		im, ok := r.Loader.ImageByPath(*img)
		if !ok {
			fmt.Fprintf(os.Stderr, "dcpicalc: image %q not known\n", *img)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dcpicalc: -proc required; procedures in %s:\n", *img)
		for _, s := range im.Symbols {
			fmt.Fprintf(os.Stderr, "  %s\n", s.Name)
		}
		os.Exit(2)
	}

	pa, err := r.AnalyzeProc(*img, *proc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicalc: %v\n", err)
		os.Exit(1)
	}
	if *summary {
		dcpi.FormatSummary(os.Stdout, pa)
	} else {
		dcpi.FormatCalc(os.Stdout, pa)
	}
}
