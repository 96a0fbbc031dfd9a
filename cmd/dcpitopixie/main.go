// Command dcpitopixie translates profile data into pixie-style basic-block
// execution counts — the paper's §3 mentions this exact converter, which
// lets profile-driven optimizers built for instrumentation-based counts
// consume DCPI's statistically estimated ones instead.
//
// Output: one line per basic block, "imagePath procName blockStartOffset
// estimatedExecutions confidence".
//
// Usage:
//
//	dcpitopixie -db ./dcpidb [-workload x11perf]
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/cli"
	"dcpi/internal/image"
)

func main() {
	openView := cli.ViewFlags("dcpitopixie")
	flag.Parse()

	r := openView()

	err := r.AnalyzeSampled(func(im *image.Image, s int, pa *analysis.ProcAnalysis) {
		sym := im.Symbols[s]
		for bi, b := range pa.Graph.Blocks {
			off := sym.Offset + uint64(b.Start)*alpha.InstBytes
			conf := pa.ClassConf[pa.Graph.BlockClass[bi]]
			fmt.Printf("%s %s %#x %.0f %s\n",
				im.Path, sym.Name, off, pa.BlockFreq[bi]*pa.Period, conf)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpitopixie: %v\n", err)
		os.Exit(1)
	}
}
