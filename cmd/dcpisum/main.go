// Command dcpisum summarizes where time is spent across an entire run — the
// percentage of cycles lost to D-cache misses, branch mispredicts, static
// slotting, and so on (the paper's §3 whole-program summary tool).
//
// Usage:
//
//	dcpisum -db ./dcpidb [-workload x11perf]
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/cli"
	"dcpi/internal/dcpi"
)

func main() {
	openView := cli.ViewFlags("dcpisum")
	flag.Parse()

	ps, err := openView().Summarize()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpisum: %v\n", err)
		os.Exit(1)
	}
	dcpi.FormatProgramSummary(os.Stdout, ps)
}
