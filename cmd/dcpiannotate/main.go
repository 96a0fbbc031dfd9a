// Command dcpiannotate prints a whole image's assembly annotated with
// per-instruction samples and estimated CPIs — the paper's §3 "annotate
// source and assembly code with samples" tool, over every procedure of an
// image at once.
//
// Usage:
//
//	dcpiannotate -db ./dcpidb -image /bin/mccalpin [-event cycles]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"dcpi/internal/alpha"
	"dcpi/internal/cli"
	"dcpi/internal/sim"
)

func main() {
	openView := cli.ViewFlags("dcpiannotate")
	var (
		img   = flag.String("image", "", "image path")
		evStr = flag.String("event", "cycles", "event to annotate with")
	)
	flag.Parse()
	if *img == "" {
		fmt.Fprintln(os.Stderr, "dcpiannotate: -image is required")
		os.Exit(2)
	}
	ev, err := sim.ParseEvent(*evStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpiannotate: %v\n", err)
		os.Exit(2)
	}

	r := openView()
	im, ok := r.Loader.ImageByPath(*img)
	if !ok {
		fmt.Fprintf(os.Stderr, "dcpiannotate: image %q not known\n", *img)
		os.Exit(1)
	}
	var counts map[uint64]uint64
	var total uint64
	if prof := r.Profile(*img, ev); prof != nil {
		counts, total = prof.Counts, prof.Total()
	}
	perProc, _, _ := im.SplitCounts(counts)

	fmt.Printf("image %s, event %s, %d samples\n\n", *img, ev, total)
	for s, sym := range im.Symbols {
		fmt.Printf("%s:  (%d samples)\n", sym.Name, perProc[s])
		if perProc[s] == 0 {
			fmt.Printf("    ... %d instructions, never sampled\n\n", sym.Size/alpha.InstBytes)
			continue
		}
		pa, err := r.AnalyzeProc(*img, sym.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpiannotate: %s: %v\n", sym.Name, err)
			os.Exit(1)
		}
		for i := range pa.Insts {
			ia := &pa.Insts[i]
			cpi := ""
			switch {
			case ia.Paired:
				cpi = "(dual issue)"
			case math.IsInf(ia.CPI, 1):
				cpi = "?"
			case ia.CPI > 0:
				cpi = fmt.Sprintf("%.1fcy", ia.CPI)
			}
			fmt.Printf("  %06x %8d %12s  %s\n", ia.Offset, ia.Samples, cpi, ia.Inst.DisasmAt(ia.Offset))
		}
		fmt.Println()
	}
}
