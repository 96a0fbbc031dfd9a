// Command dcpicfg emits a procedure's annotated control-flow graph in
// Graphviz DOT form: block execution estimates, CPIs, and edge frequencies
// from the profile — the modern form of the paper's "formatted Postscript
// output of annotated control-flow graphs" (§3).
//
// Usage:
//
//	dcpicfg -db ./dcpidb -image /bin/mccalpin -proc copyloop | dot -Tsvg > cfg.svg
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/cli"
	"dcpi/internal/dcpi"
)

func main() {
	openView := cli.ViewFlags("dcpicfg")
	var (
		img  = flag.String("image", "", "image path")
		proc = flag.String("proc", "", "procedure name")
	)
	flag.Parse()
	if *img == "" || *proc == "" {
		fmt.Fprintln(os.Stderr, "dcpicfg: -image and -proc are required")
		os.Exit(2)
	}

	pa, err := openView().AnalyzeProc(*img, *proc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicfg: %v\n", err)
		os.Exit(1)
	}
	dcpi.FormatDOT(os.Stdout, pa)
}
