package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/tsdb"
)

// compactMain runs one offline compaction pass over an existing store,
// merging raw segments into blocks. Safe against a concurrent reader; the
// scraping collector should be stopped (or use its own -compact-after)
// since the store has a single-writer design.
func compactMain(args []string) int {
	fs := flag.NewFlagSet("dcpicollect compact", flag.ExitOnError)
	var (
		dbDir        = fs.String("tsdb", "fleetdb", "time-series store directory (must exist)")
		compactAfter = fs.Int("compact-after", 1, "merge a machine's raw segments once it has this many")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		// flag stops at the first positional argument, so every flag after
		// it would be ignored too.
		fmt.Fprintf(os.Stderr, "dcpicollect compact: unexpected argument %q (name the store with -tsdb DIR)\n", fs.Arg(0))
		return 2
	}
	if _, err := os.Stat(*dbDir); err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect compact: %v\n", err)
		return 1
	}
	store, err := tsdb.Open(*dbDir, tsdb.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect compact: %v\n", err)
		return 1
	}
	st, err := store.Compact(tsdb.CompactOptions{CompactAfter: *compactAfter})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect compact: %v\n", err)
		return 1
	}
	fmt.Printf("compacted %d segments into %d blocks, %d -> %d bytes\n",
		st.SegmentsCompacted, st.BlocksWritten, st.BytesBefore, st.BytesAfter)
	return 0
}
