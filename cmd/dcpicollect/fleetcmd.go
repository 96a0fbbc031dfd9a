package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"dcpi/internal/analysis"
	"dcpi/internal/collect"
	"dcpi/internal/fleet"
	"dcpi/internal/obs"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// fleetMain runs the end-to-end fleet demo: simulate a fleet of profiled
// machines, scrape them into one store (with one fault-injected target),
// answer the fleet queries, and verify every answer against the
// per-machine profile databases — the ground truth the scrape pipeline
// must reproduce exactly.
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
	// rounds in which no machine sealed anything.
	if *machines < 1 || *epochs < 1 || *rounds < 1 || *rounds > *epochs {
		fmt.Fprintf(os.Stderr, "dcpicollect fleet: want -machines >= 1 and 1 <= -rounds <= -epochs, got -machines %d -epochs %d -rounds %d\n",
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

	var wls []string
	for _, w := range splitComma(*workloads) {
		wls = append(wls, w)
	}
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

	// The fleet queries.
	image := f.AnomalyImage()
	lastK := uint64(*epochs / 8)
	rFrom, rTo := collect.LastWindow(store, lastK)
	rangeResp := collect.RangeResponse{
		Image: image, Event: sim.EvCycles.String(), FromEpoch: rFrom, ToEpoch: rTo,
		Rows: tsdb.RangeQuery(store, image, sim.EvCycles, rFrom, rTo),
	}
	fmt.Println()
	renderRange(os.Stdout, rangeResp)

	topResp := collect.TopResponse{
		Event: sim.EvCycles.String(), FromEpoch: 1, ToEpoch: uint64(*epochs),
		Rows: tsdb.TopImages(store, sim.EvCycles, 1, uint64(*epochs), 10),
	}
	fmt.Println()
	renderTop(os.Stdout, topResp)

	procsResp := collect.TopProcsResponse{
		Image: image, Event: sim.EvCycles.String(), FromEpoch: 1, ToEpoch: uint64(*epochs),
		Rows: tsdb.TopProcs(store, image, sim.EvCycles, 1, uint64(*epochs), 10),
	}
	fmt.Println()
	renderTopProcs(os.Stdout, procsResp)

	half := uint64(*epochs / 2)
	deltaRows := tsdb.TopDeltas(store, sim.EvCycles, 1, half, half+1, uint64(*epochs), 10)
	deltaResp := collect.DeltaResponse{
		Event: sim.EvCycles.String(), AFrom: 1, ATo: half, BFrom: half + 1, BTo: uint64(*epochs),
		Rows: collect.ToDeltaRows(deltaRows),
	}
	fmt.Println()
	renderDelta(os.Stdout, deltaResp)
	fmt.Println()

	// Ground-truth verification.
	pass := true
	check := func(name string, err error) {
		if err != nil {
			fmt.Printf("FAIL %-28s %v\n", name, err)
			pass = false
		} else {
			fmt.Printf("PASS %s\n", name)
		}
	}
	check("exactly-once ingestion", verifyExactlyOnce(store, f, uint64(*epochs)))
	check("per-machine point labels", verifyLabels(store, f, *epochs))
	check("per-procedure breakdowns", verifyProcs(store, f, *epochs))
	check("range query vs ground truth", verifyRange(store, f, rangeResp))
	check("top-delta vs ground truth", verifyDelta(f, deltaRows, 1, half, half+1, uint64(*epochs), 10))
	check("compaction byte-identity", verifyCompaction(store, image, rFrom, rTo, uint64(*epochs)))
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

func splitComma(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func allCaughtUp(store *tsdb.DB, f *fleet.Fleet, epochs uint64) bool {
	for _, m := range f.Machines {
		if store.MaxEpoch(m.Name) < epochs {
			return false
		}
	}
	return true
}

// verifyExactlyOnce checks every machine contributed each epoch exactly
// once: per (machine, epoch, image, proc, event) there must be exactly one
// point, across both image-level and per-procedure series.
func verifyExactlyOnce(store *tsdb.DB, f *fleet.Fleet, epochs uint64) error {
	for _, m := range f.Machines {
		pts := store.Select(tsdb.Matcher{Machine: m.Name, AnyEvent: true, AnyProc: true})
		seen := map[tsdb.Labels]map[uint64]int{}
		for _, pt := range pts {
			key := pt.Labels
			if seen[key] == nil {
				seen[key] = map[uint64]int{}
			}
			seen[key][pt.Epoch]++
			if seen[key][pt.Epoch] > 1 {
				return fmt.Errorf("%s epoch %d %s:%s/%s ingested twice",
					m.Name, pt.Epoch, pt.Image, pt.Proc, pt.Event)
			}
		}
		if got := store.MaxEpoch(m.Name); got != epochs {
			return fmt.Errorf("%s: max epoch %d, want %d", m.Name, got, epochs)
		}
	}
	return nil
}

// verifyProcs checks the per-procedure breakdown is complete: at three
// probe epochs, each (machine, image, event)'s procedure samples must sum
// to exactly the image-level samples (the exposition side buckets
// unsymbolized samples under "(unknown)" to keep this an identity).
func verifyProcs(store *tsdb.DB, f *fleet.Fleet, epochs int) error {
	probes := []uint64{1, uint64(epochs / 2), uint64(epochs)}
	sawProc := false
	for _, m := range f.Machines {
		for _, e := range probes {
			pts := store.Select(tsdb.Matcher{
				Machine: m.Name, AnyEvent: true, AnyProc: true,
				FromEpoch: e, ToEpoch: e,
			})
			imageSamples := map[tsdb.Labels]uint64{}
			procSamples := map[tsdb.Labels]uint64{}
			for _, pt := range pts {
				key := tsdb.Labels{Image: pt.Image, Event: pt.Event}
				if pt.Proc == "" {
					imageSamples[key] += pt.Samples
				} else {
					procSamples[key] += pt.Samples
					sawProc = true
				}
			}
			for key, want := range imageSamples {
				if got := procSamples[key]; got != want {
					return fmt.Errorf("%s epoch %d %s/%s: procedure samples sum to %d, image total %d",
						m.Name, e, key.Image, key.Event, got, want)
				}
			}
		}
	}
	if !sawProc {
		return fmt.Errorf("no per-procedure points ingested")
	}
	return nil
}

// verifyCompaction renders every fleet query, compacts all raw segments
// into blocks, and requires the re-rendered answers to be byte-identical —
// the store's core contract: compaction is invisible to queries.
func verifyCompaction(store *tsdb.DB, image string, rFrom, rTo, epochs uint64) error {
	render := func() string {
		var buf bytes.Buffer
		renderRange(&buf, collect.RangeResponse{
			Image: image, Event: sim.EvCycles.String(), FromEpoch: rFrom, ToEpoch: rTo,
			Rows: tsdb.RangeQuery(store, image, sim.EvCycles, rFrom, rTo),
		})
		renderTop(&buf, collect.TopResponse{
			Event: sim.EvCycles.String(), FromEpoch: 1, ToEpoch: epochs,
			Rows: tsdb.TopImages(store, sim.EvCycles, 1, epochs, 10),
		})
		renderTopProcs(&buf, collect.TopProcsResponse{
			Image: image, Event: sim.EvCycles.String(), FromEpoch: 1, ToEpoch: epochs,
			Rows: tsdb.TopProcs(store, image, sim.EvCycles, 1, epochs, 10),
		})
		half := epochs / 2
		renderDelta(&buf, collect.DeltaResponse{
			Event: sim.EvCycles.String(), AFrom: 1, ATo: half, BFrom: half + 1, BTo: epochs,
			Rows: collect.ToDeltaRows(tsdb.TopDeltas(store, sim.EvCycles, 1, half, half+1, epochs, 10)),
		})
		return buf.String()
	}
	before := render()
	st, err := store.Compact(tsdb.CompactOptions{CompactAfter: 1})
	if err != nil {
		return err
	}
	if st.BlocksWritten == 0 {
		return fmt.Errorf("compaction wrote no blocks")
	}
	after := render()
	if before != after {
		return fmt.Errorf("query answers changed after compacting %d segments into %d blocks",
			st.SegmentsCompacted, st.BlocksWritten)
	}
	stats := store.Stats()
	fmt.Printf("compacted: %d segments -> %d blocks, store now %d bytes\n",
		st.SegmentsCompacted, st.BlocksWritten, stats.SizeBytes)
	return nil
}

// verifyLabels spot-checks that points carry the right machine label by
// comparing each machine's stored samples against its own database at
// three epochs.
func verifyLabels(store *tsdb.DB, f *fleet.Fleet, epochs int) error {
	probes := []int{1, epochs / 2, epochs}
	for _, m := range f.Machines {
		db, err := profiledb.OpenReader(m.DBDir)
		if err != nil {
			return fmt.Errorf("%s: %v", m.Name, err)
		}
		for _, e := range probes {
			profiles, err := db.ProfilesAt(e)
			if err != nil {
				return fmt.Errorf("%s epoch %d: %v", m.Name, e, err)
			}
			want := map[tsdb.Labels]uint64{}
			for _, p := range profiles {
				want[tsdb.Labels{Image: p.ImagePath, Event: p.Event}] += p.Total()
			}
			pts := store.Select(tsdb.Matcher{
				Machine: m.Name, AnyEvent: true,
				FromEpoch: uint64(e), ToEpoch: uint64(e),
			})
			got := map[tsdb.Labels]uint64{}
			for _, pt := range pts {
				got[tsdb.Labels{Image: pt.Image, Event: pt.Event}] += pt.Samples
			}
			if len(got) != len(want) {
				return fmt.Errorf("%s epoch %d: %d series in store, %d in database", m.Name, e, len(got), len(want))
			}
			for k, w := range want {
				if got[k] != w {
					return fmt.Errorf("%s epoch %d %s/%s: store %d, database %d",
						m.Name, e, k.Image, k.Event, got[k], w)
				}
			}
		}
	}
	return nil
}

// verifyRange recomputes every range row straight from the per-machine
// databases and requires the store's answer to match.
func verifyRange(store *tsdb.DB, f *fleet.Fleet, resp collect.RangeResponse) error {
	ev, err := sim.ParseEvent(resp.Event)
	if err != nil {
		return err
	}
	rows := map[uint64]*tsdb.RangeRow{}
	totalCycles := map[uint64]float64{}
	for _, m := range f.Machines {
		db, err := profiledb.OpenReader(m.DBDir)
		if err != nil {
			return err
		}
		for e := resp.FromEpoch; e <= resp.ToEpoch; e++ {
			profiles, err := db.ProfilesAt(int(e))
			if err != nil {
				return fmt.Errorf("%s epoch %d: %v", m.Name, e, err)
			}
			meta, ok, err := db.MetaAt(int(e))
			if err != nil || !ok {
				return fmt.Errorf("%s epoch %d: unsealed or unreadable meta (%v)", m.Name, e, err)
			}
			matched := false
			for _, p := range profiles {
				if p.Event == ev {
					totalCycles[e] += float64(p.Total()) * meta.CyclesPeriod
				}
				if p.ImagePath != resp.Image || p.Event != ev {
					continue
				}
				matched = true
				row := rows[e]
				if row == nil {
					row = &tsdb.RangeRow{Epoch: e}
					rows[e] = row
				}
				row.Samples += p.Total()
				row.Cycles += float64(p.Total()) * meta.CyclesPeriod
				row.Insts += meta.ImageInsts[resp.Image]
			}
			if matched {
				rows[e].Machines++
			}
		}
	}
	if len(rows) != len(resp.Rows) {
		return fmt.Errorf("%d epochs with data in databases, %d rows in answer", len(rows), len(resp.Rows))
	}
	for _, got := range resp.Rows {
		want := rows[got.Epoch]
		if want == nil {
			return fmt.Errorf("epoch %d in answer but not in databases", got.Epoch)
		}
		if got.Samples != want.Samples || got.Insts != want.Insts || got.Machines != want.Machines {
			return fmt.Errorf("epoch %d: store (samples %d, insts %d, machines %d) vs ground truth (%d, %d, %d)",
				got.Epoch, got.Samples, got.Insts, got.Machines, want.Samples, want.Insts, want.Machines)
		}
		if !closeEnough(got.Cycles, want.Cycles) {
			return fmt.Errorf("epoch %d: cycles %.2f vs ground truth %.2f", got.Epoch, got.Cycles, want.Cycles)
		}
		wantCPI := 0.0
		if want.Insts > 0 {
			wantCPI = want.Cycles / float64(want.Insts)
		}
		if !closeEnough(got.CPI, wantCPI) {
			return fmt.Errorf("epoch %d: CPI %.4f vs ground truth %.4f", got.Epoch, got.CPI, wantCPI)
		}
		wantShare := 0.0
		if totalCycles[got.Epoch] > 0 {
			wantShare = 100 * want.Cycles / totalCycles[got.Epoch]
		}
		if !closeEnough(got.SharePct, wantShare) {
			return fmt.Errorf("epoch %d: share %.4f%% vs ground truth %.4f%%", got.Epoch, got.SharePct, wantShare)
		}
	}
	return nil
}

// verifyDelta recomputes the two windows' per-image sample totals from the
// databases, runs the same share-delta analysis, and requires identical
// rankings.
func verifyDelta(f *fleet.Fleet, got []analysis.DeltaRow, aFrom, aTo, bFrom, bTo uint64, n int) error {
	window := func(from, to uint64) (map[string]uint64, error) {
		out := map[string]uint64{}
		for _, m := range f.Machines {
			db, err := profiledb.OpenReader(m.DBDir)
			if err != nil {
				return nil, err
			}
			for e := from; e <= to; e++ {
				profiles, err := db.ProfilesAt(int(e))
				if err != nil {
					return nil, fmt.Errorf("%s epoch %d: %v", m.Name, e, err)
				}
				for _, p := range profiles {
					if p.Event == sim.EvCycles {
						out[p.ImagePath] += p.Total()
					}
				}
			}
		}
		return out, nil
	}
	before, err := window(aFrom, aTo)
	if err != nil {
		return err
	}
	after, err := window(bFrom, bTo)
	if err != nil {
		return err
	}
	want := analysis.ShareDeltas(before, after)
	if n < len(want) {
		want = want[:n]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows vs ground truth %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name ||
			!closeEnough(got[i].BeforePct, want[i].BeforePct) ||
			!closeEnough(got[i].AfterPct, want[i].AfterPct) {
			return fmt.Errorf("row %d: %+v vs ground truth %+v", i, got[i], want[i])
		}
	}
	return nil
}

// closeEnough absorbs float summation-order differences between the store
// aggregation and the ground-truth recomputation.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
