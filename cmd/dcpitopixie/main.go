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
	"dcpi/internal/cli"
	"dcpi/internal/sim"
)

func main() {
	openView := cli.ViewFlags("dcpitopixie")
	flag.Parse()

	r := openView()

	for _, prof := range r.Profiles() {
		if prof.Event != sim.EvCycles || prof.ImagePath == "unknown" {
			continue
		}
		im, ok := r.Loader.ImageByPath(prof.ImagePath)
		if !ok {
			continue
		}
		for _, sym := range im.Symbols {
			var procSamples uint64
			for off, c := range prof.Counts {
				if off >= sym.Offset && off < sym.Offset+sym.Size {
					procSamples += c
				}
			}
			if procSamples == 0 {
				continue
			}
			pa, err := r.AnalyzeProc(prof.ImagePath, sym.Name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcpitopixie: %s/%s: %v\n", prof.ImagePath, sym.Name, err)
				os.Exit(1)
			}
			for bi, b := range pa.Graph.Blocks {
				off := sym.Offset + uint64(b.Start)*alpha.InstBytes
				conf := pa.ClassConf[pa.Graph.BlockClass[bi]]
				fmt.Printf("%s %s %#x %.0f %s\n",
					prof.ImagePath, sym.Name, off, pa.BlockFreq[bi]*pa.Period, conf)
			}
		}
	}
}
