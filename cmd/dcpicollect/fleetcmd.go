package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"reflect"
	"strings"
	"time"

	"dcpi/internal/collect"
	"dcpi/internal/fleet"
	"dcpi/internal/obs"
	"dcpi/internal/tsdb"
)

// topN is the row limit of the demo's rankings.
const topN = 10

// fleetMain runs the end-to-end fleet demo: simulate a fleet of profiled
// machines, scrape them into one store (with one fault-injected target),
// answer the fleet queries, and hold the store and every answer to the
// per-machine profile databases (fleet.Check) — the ground truth the
// scrape pipeline must reproduce exactly.
func fleetMain(args []string) int {
	fs := flag.NewFlagSet("dcpicollect fleet", flag.ExitOnError)
	var (
		machines  = fs.Int("machines", 16, "fleet size")
		epochs    = fs.Int("epochs", 200, "sealed epochs per machine")
		workloads = fs.String("workloads", "timeshare,x11perf", "comma-separated workloads, assigned round-robin")
		seed      = fs.Uint64("seed", 1, "fleet seed")
		scale     = fs.Float64("scale", 0.05, "base-run workload scale")
		dir       = fs.String("dir", "", "working directory (default: a temp dir, removed on exit)")
		rounds    = fs.Int("rounds", 8, "scrape rounds interleaved with epoch production")
		faultIdx  = fs.Int("fault-machine", 3, "index of the fault-injected machine (-1 = none)")
	)
	fs.Parse(args)
	// Epochs are dealt out over the rounds (*epochs / *rounds each), so a
	// round count of zero divides by zero and one above -epochs scrapes
	// rounds in which no machine sealed anything. The delta query compares
	// the first half of the epochs with the second: both must be non-empty.
	if *machines < 1 || *epochs < 2 || *rounds < 1 || *rounds > *epochs {
		fmt.Fprintf(os.Stderr, "dcpicollect fleet: want -machines >= 1, -epochs >= 2 and 1 <= -rounds <= -epochs, got -machines %d -epochs %d -rounds %d\n",
			*machines, *epochs, *rounds)
		return 2
	}

	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "dcpi-fleet-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcpicollect fleet: %v\n", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	wls := strings.FieldsFunc(*workloads, func(r rune) bool { return r == ',' || r == ' ' })
	fmt.Printf("fleet: %d machines x %d epochs, workloads %v, seed %d\n",
		*machines, *epochs, wls, *seed)

	start := time.Now()
	f, err := fleet.Start(fleet.Options{
		Dir:          root + "/machines",
		Machines:     *machines,
		Workloads:    wls,
		Seed:         *seed,
		Scale:        *scale,
		AnomalyAfter: *epochs / 2,
		FaultMachine: *faultIdx,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect fleet: %v\n", err)
		return 1
	}
	defer f.Close()

	reg := obs.NewRegistry()
	store, err := tsdb.Open(root+"/fleetdb", tsdb.Options{Obs: obs.Hooks{Registry: reg}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect fleet: %v\n", err)
		return 1
	}
	var targets []collect.Target
	for _, m := range f.Machines {
		targets = append(targets, collect.Target{Name: m.Name, URL: m.URL})
	}
	c := collect.New(collect.Config{
		Targets:  targets,
		Timeout:  10 * time.Second,
		Retries:  2,
		Backoff:  5 * time.Millisecond,
		Parallel: 8,
		DB:       store,
		Procs:    true,
		Obs:      obs.Hooks{Registry: reg},
	})

	// Produce epochs and scrape them in interleaved rounds, the way a real
	// deployment overlaps collection with the fleet's work.
	perRound := *epochs / *rounds
	produced := 0
	for r := 0; r < *rounds; r++ {
		n := perRound
		if r == *rounds-1 {
			n = *epochs - produced
		}
		if err := f.AdvanceEpochs(n); err != nil {
			fmt.Fprintf(os.Stderr, "dcpicollect fleet: %v\n", err)
			return 1
		}
		produced += n
		sum := c.ScrapeOnce(context.Background())
		fmt.Printf("round %2d: +%d epochs/machine; scraped %d epochs, %d points, %d failed targets\n",
			r+1, n, sum.EpochsIngested, sum.PointsIngested, sum.Failed)
	}
	// Catch-up rounds: the fault-injected target misses early rounds and
	// must backfill every sealed epoch it skipped.
	for extra := 0; extra < 10 && !allCaughtUp(store, f, uint64(*epochs)); extra++ {
		sum := c.ScrapeOnce(context.Background())
		fmt.Printf("catch-up: scraped %d epochs, %d points, %d failed targets\n",
			sum.EpochsIngested, sum.PointsIngested, sum.Failed)
	}
	fmt.Printf("scrape pipeline done in %.1fs\n", time.Since(start).Seconds())

	var totalFailures uint64
	for _, st := range c.Statuses() {
		totalFailures += st.Failures
		if st.Failures > 0 {
			fmt.Printf("target %s: %d scrapes, %d failures (fault-injected), last epoch %d\n",
				st.Name, st.Scrapes, st.Failures, st.LastEpoch)
		}
	}
	stats := store.Stats()
	fmt.Printf("store: %d segments, %d blocks, %d points, %d bytes\n",
		stats.Segments, stats.Blocks, stats.Points, stats.SizeBytes)

	// The fleet queries, rendered once: to stdout, and as the answers
	// compaction must leave unchanged.
	image := f.AnomalyImage()
	var before bytes.Buffer
	rng, delta, err := answerFleet(&before, store, image, *epochs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect fleet: %v\n", err)
		return 1
	}
	os.Stdout.Write(before.Bytes())

	pass := true
	check := func(name string, err error) {
		if err != nil {
			fmt.Printf("FAIL %-28s %v\n", name, err)
			pass = false
		} else {
			fmt.Printf("PASS %s\n", name)
		}
	}
	truth, err := f.Check(store, fleet.Query{
		Image: image, RangeFrom: rng.FromEpoch, RangeTo: rng.ToEpoch,
		AFrom: delta.AFrom, ATo: delta.ATo, BFrom: delta.BFrom, BTo: delta.BTo,
	})
	if err != nil {
		check("store vs machine databases", err)
	} else {
		check(fmt.Sprintf("store vs machine databases (%d sealed machine-epochs, each read once)", truth.Epochs), nil)
		check("range query vs ground truth", truth.MatchRange(rng.Rows))
		want := collect.ToDeltaRows(truth.Delta[:min(topN, len(truth.Delta))])
		var mismatch error
		if !reflect.DeepEqual(delta.Rows, want) {
			mismatch = fmt.Errorf("answer %+v, ground truth %+v", delta.Rows, want)
		}
		check("top-delta vs ground truth", mismatch)
	}
	check("compaction byte-identity", verifyCompaction(store, before.String(), image, *epochs))
	if totalFailures == 0 && *faultIdx >= 0 && *faultIdx < *machines {
		fmt.Printf("FAIL %-28s fault-injected target never failed a scrape\n", "fault/retry exercised")
		pass = false
	} else if *faultIdx >= 0 && *faultIdx < *machines {
		fmt.Printf("PASS fault/retry exercised (%d scrape failures, then full catch-up)\n", totalFailures)
	}
	if !pass {
		return 1
	}
	fmt.Println("fleet demo: all checks passed")
	return 0
}

// answerFleet answers the demo's four queries through the functions behind
// /query and `dcpicollect query` — image's range over the newest
// max(1, epochs/8) epochs, the top images and image's top procedures over
// every epoch, and the share delta of the first half of the epochs against
// the second — and renders them to w.
func answerFleet(w io.Writer, store *tsdb.DB, image string, epochs int) (collect.RangeResponse, collect.DeltaResponse, error) {
	all := url.Values{"from": {"1"}, "to": {fmt.Sprint(epochs)}, "n": {fmt.Sprint(topN)}}
	rng, err1 := collect.AnswerRange(store, url.Values{"image": {image}, "last": {fmt.Sprint(max(1, epochs/8))}})
	top, err2 := collect.AnswerTop(store, all)
	all.Set("image", image)
	procs, err3 := collect.AnswerTopProcs(store, all)
	delta, err4 := collect.AnswerDelta(store, url.Values{
		"a": {fmt.Sprintf("1-%d", epochs/2)}, "b": {fmt.Sprintf("%d-%d", epochs/2+1, epochs)}, "n": {fmt.Sprint(topN)}})
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return rng, delta, err
	}
	fmt.Fprintln(w)
	renderRange(w, rng)
	fmt.Fprintln(w)
	renderTop(w, top)
	fmt.Fprintln(w)
	renderTopProcs(w, procs)
	fmt.Fprintln(w)
	renderDelta(w, delta)
	fmt.Fprintln(w)
	return rng, delta, nil
}

// verifyCompaction compacts every raw segment into blocks and requires the
// fleet queries to render exactly what they rendered before — the store's
// core contract: compaction is invisible to queries.
func verifyCompaction(store *tsdb.DB, before, image string, epochs int) error {
	st, err := store.Compact(tsdb.CompactOptions{CompactAfter: 1})
	if err != nil {
		return err
	}
	if st.BlocksWritten == 0 {
		return fmt.Errorf("compaction wrote no blocks")
	}
	var after bytes.Buffer
	if _, _, err := answerFleet(&after, store, image, epochs); err != nil {
		return err
	}
	if after.String() != before {
		return fmt.Errorf("query answers changed after compacting %d segments into %d blocks",
			st.SegmentsCompacted, st.BlocksWritten)
	}
	fmt.Printf("compacted: %d segments -> %d blocks, store now %d bytes\n",
		st.SegmentsCompacted, st.BlocksWritten, store.Stats().SizeBytes)
	return nil
}

func allCaughtUp(store *tsdb.DB, f *fleet.Fleet, epochs uint64) bool {
	for _, m := range f.Machines {
		if store.MaxEpoch(m.Name) < epochs {
			return false
		}
	}
	return true
}
