// Command dcpilayout rewrites a procedure's basic-block layout using its
// profile (hot-path straightening with branch-sense inversion) and prints
// the optimized assembly — the §7 "continuous optimization" consumer as a
// standalone tool (the Spike/OM role).
//
// Usage:
//
//	dcpilayout -db ./dcpidb -image /usr/bin/compress -proc main
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/alpha"
	"dcpi/internal/cli"
	"dcpi/internal/optimize"
)

func main() {
	openView := cli.ViewFlags("dcpilayout")
	var (
		img   = flag.String("image", "", "image path")
		proc  = flag.String("proc", "", "procedure name")
		quiet = flag.Bool("q", false, "print only the rewrite statistics")
	)
	flag.Parse()
	if *img == "" || *proc == "" {
		fmt.Fprintln(os.Stderr, "dcpilayout: -image and -proc are required")
		os.Exit(2)
	}

	pa, err := openView().AnalyzeProc(*img, *proc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpilayout: %v\n", err)
		os.Exit(1)
	}
	res, err := optimize.ReorderProcedure(pa)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpilayout: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d blocks re-laid as %v\n", *proc, len(res.Order), res.Order)
	fmt.Printf("branches inverted: %d, br removed: %d, br added: %d (%d -> %d instructions)\n",
		res.Inverted, res.RemovedBranches, res.AddedBranches, len(pa.Graph.Code), len(res.Code))
	if *quiet {
		return
	}
	fmt.Println("\noptimized layout:")
	fmt.Print(alpha.Listing(res.Code, pa.BaseOffset))
}
