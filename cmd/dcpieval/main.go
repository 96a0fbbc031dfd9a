// Command dcpieval regenerates the paper's tables and figures on the
// simulated machine (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	dcpieval -table 3            # Tables: 2, 3, 4, 5
//	dcpieval -fig 2              # Figures: 1-4, 6-10
//	dcpieval -ablation ht        # §5.4 hash-table design sweep
//	dcpieval -all                # everything
//	dcpieval -all -j 8           # ... with eight simulation workers
//	dcpieval -all -metrics-out m.json -trace-out t.json
//	                             # ... plus self-observability artifacts
//	dcpieval -all -cache-dir ~/.cache/dcpi
//	                             # persistent run cache: the second
//	                             # invocation skips every simulation
//	dcpieval -all -shard 1/4     # simulate only shard 1 of 4, archiving
//	                             # results to dcpieval-shard-1-of-4.shard
//	dcpieval -all -merge-shards 'dcpieval-shard-*.shard'
//	                             # fold shard archives into full output
//
// Flags -runs and -scale trade time for confidence. All experiments share
// one simulation runner (internal/runner): sections run concurrently, -j
// bounds how many machine simulations execute at once (default GOMAXPROCS),
// and identical run configurations across sections are simulated exactly
// once. Sections stream to stdout in their fixed order as they complete, so
// long sweeps show progress; output is byte-identical for every -j value —
// and for cold, warm-cache, and merged-shard invocations alike.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dcpi/internal/cli"
	"dcpi/internal/dcpi"
	"dcpi/internal/eval"
	"dcpi/internal/obs"
	"dcpi/internal/pipeline"
	"dcpi/internal/runcache"
)

// section is one independently runnable report: it renders into w and all
// its simulations go through the shared runner inside eval.Options.
type section struct {
	name string
	fn   func(w io.Writer) error
}

func main() {
	app := cli.New("dcpieval")
	var (
		table    = flag.Int("table", 0, "regenerate a table (2-5)")
		fig      = flag.Int("fig", 0, "regenerate a figure (1-4, 6-10)")
		ablation = flag.String("ablation", "", "run an ablation: ht, loss")
		all      = flag.Bool("all", false, "regenerate everything")
		runs     = flag.Int("runs", 0, "runs per configuration (default 5)")
		scale    = flag.Float64("scale", 0, "workload scale (default 0.25)")
		shard    = flag.String("shard", "", "simulate only shard i of N (format \"i/N\", 1-based) and archive results instead of printing output")
		shardOut = flag.String("shard-out", "", "shard archive path (default dcpieval-shard-<i>-of-<N>.shard)")
		merge    = flag.String("merge-shards", "", "comma-separated shard archives (globs allowed) to merge into full output")
	)
	app.ProfileFlags()
	app.ObsFlags()
	app.RunnerFlags()
	flag.Parse()
	app.Start()
	app.Obs.Tracer.NameProcess(obs.PIDRunner, "runner (simulation scheduler)")
	app.Obs.Tracer.NameProcess(obs.PIDEval, "eval (experiment sections)")

	if *shard != "" && *merge != "" {
		app.Fatalf(2, "-shard and -merge-shards are mutually exclusive")
	}
	shardIdx, shardN, err := parseShard(*shard)
	if err != nil {
		app.Fatalf(2, "%v", err)
	}
	shardMode := shardN > 0
	sched := app.Runner()
	app.BeforeMetrics = func() {
		sched.PublishMetrics()
		// How well the block-schedule memo worked (docs/PERFORMANCE.md).
		hits, misses, entries := pipeline.SchedCacheStats()
		app.Obs.Registry.Gauge("pipeline.schedcache.hits").Set(float64(hits))
		app.Obs.Registry.Gauge("pipeline.schedcache.misses").Set(float64(misses))
		app.Obs.Registry.Gauge("pipeline.schedcache.entries").Set(float64(entries))
	}
	// Shard archives carry the run cache's version stamp: they are invalid
	// the moment the simulator's semantics or the snapshot layout change.
	stamp := dcpi.CacheStamp()
	var shardEntries []runcache.Entry
	if shardMode {
		sched.Shard, sched.NumShards = shardIdx, shardN
		sched.ShardSink = func(key string, blob []byte) {
			shardEntries = append(shardEntries, runcache.Entry{Key: key, Blob: blob})
		}
	}
	if *merge != "" {
		preload, nfiles, err := loadShards(*merge, stamp)
		if err != nil {
			app.Fatalf(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "dcpieval: merging %d runs from %d shard archives\n", len(preload), nfiles)
		sched.Preload = preload
	}
	o := eval.Options{Runs: *runs, Scale: *scale, Runner: sched, Obs: app.Obs}

	want := func(t, f int, abl string) bool {
		if *all {
			return true
		}
		if t != 0 && t == *table {
			return true
		}
		if f != 0 && f == *fig {
			return true
		}
		return abl != "" && abl == *ablation
	}

	var sections []section
	add := func(name string, fn func(io.Writer) error) {
		sections = append(sections, section{name, fn})
	}

	if want(2, 0, "") {
		add("Table 2: workloads and base runtimes", func(w io.Writer) error {
			rows, err := eval.Table2(o)
			if err != nil {
				return err
			}
			eval.FormatTable2(w, rows)
			return nil
		})
	}
	if want(3, 0, "") {
		add("Table 3: overall slowdown", func(w io.Writer) error {
			rows, err := eval.Table3(o)
			if err != nil {
				return err
			}
			eval.FormatTable3(w, rows)
			return nil
		})
	}
	if want(4, 0, "") {
		add("Table 4: time overhead components", func(w io.Writer) error {
			rows, err := eval.Table4(o)
			if err != nil {
				return err
			}
			eval.FormatTable4(w, rows)
			return nil
		})
	}
	if want(5, 0, "") {
		add("Table 5: space overhead", func(w io.Writer) error {
			rows, err := eval.Table5(o)
			if err != nil {
				return err
			}
			eval.FormatTable5(w, rows)
			return nil
		})
	}
	if want(0, 1, "") {
		add("Figure 1: dcpiprof on x11perf", func(w io.Writer) error { return eval.Fig1(o, w) })
	}
	if want(0, 2, "") {
		add("Figure 2: dcpicalc on the copy loop", func(w io.Writer) error { return eval.Fig2(o, w) })
	}
	if want(0, 3, "") || want(0, 4, "") {
		add("Figures 3 & 4: dcpistats and the smooth_ summary", func(w io.Writer) error {
			results, err := eval.Fig3(o, figWriter(w, 3, *fig, *all))
			if err != nil {
				return err
			}
			return eval.Fig4(o, figWriter(w, 4, *fig, *all), results)
		})
	}
	if want(0, 7, "") {
		add("Figure 7: frequency estimation for the copy loop", func(w io.Writer) error {
			return eval.Fig7(o, w)
		})
	}
	if want(0, 6, "") {
		add("Figure 6: running-time distributions", func(w io.Writer) error {
			series, err := eval.Fig6(o)
			if err != nil {
				return err
			}
			eval.FormatFig6(w, series)
			return nil
		})
	}
	if want(0, 8, "") {
		add("Figure 8: instruction-frequency accuracy", func(w io.Writer) error {
			res, err := eval.Fig8(o)
			if err != nil {
				return err
			}
			eval.FormatAccuracy(w, "Figure 8: distribution of errors in instruction frequencies", res)
			mr, err := eval.Fig8MultiRun(o, 4)
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			eval.FormatMultiRun(w, mr)
			return nil
		})
	}
	if want(0, 9, "") {
		add("Figure 9: edge-frequency accuracy", func(w io.Writer) error {
			res, err := eval.Fig9(o)
			if err != nil {
				return err
			}
			eval.FormatAccuracy(w, "Figure 9: distribution of errors in edge frequencies", res)
			ds, err := eval.Fig9DoubleSampling(o)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nwith par.7 double sampling:       within 5%% %.1f%%, within 10%% %.1f%%\n",
				100*ds.Within5, 100*ds.Within10)
			interp, err := eval.Fig9Interpretation(o)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "with par.7 branch interpretation: within 5%% %.1f%%, within 10%% %.1f%%\n",
				100*interp.Within5, 100*interp.Within10)
			return nil
		})
	}
	if want(0, 10, "") {
		add("Figure 10: I-cache stalls vs IMISS events", func(w io.Writer) error {
			res, err := eval.Fig10(o)
			if err != nil {
				return err
			}
			eval.FormatFig10(w, res)
			return nil
		})
	}
	if want(0, 0, "ht") {
		add("Ablation: hash-table design space (§5.4)", func(w io.Writer) error {
			res, err := eval.AblationHT(o)
			if err != nil {
				return err
			}
			eval.FormatAblation(w, res)
			return nil
		})
	}
	if want(0, 0, "loss") {
		add("Ablation: daemon lag vs. sample loss (§4.2.3)", func(w io.Writer) error {
			res, err := eval.LossSweep(o)
			if err != nil {
				return err
			}
			eval.FormatLossSweep(w, res)
			return nil
		})
	}

	if len(sections) == 0 {
		flag.Usage()
		app.Exit(2)
	}

	// Run every section concurrently — simulations are bounded by the
	// runner's -j workers and deduplicated across sections — and stream
	// each section's rendering to stdout in order as soon as it (and all
	// sections before it) complete. This keeps output byte-identical for
	// any -j while long sweeps still show progress section by section.
	type done struct {
		buf bytes.Buffer
		err error
		ch  chan struct{}
	}
	states := make([]*done, len(sections))
	for i, s := range sections {
		st := &done{ch: make(chan struct{})}
		states[i] = st
		go func(s section, st *done) {
			defer close(st.ch)
			fmt.Fprintf(&st.buf, "==== %s ====\n\n", s.name)
			if err := s.fn(&st.buf); err != nil {
				st.err = err
				return
			}
			fmt.Fprintln(&st.buf)
		}(s, st)
	}
	for i, st := range states {
		<-st.ch
		if shardMode {
			// Shard output is rendered from placeholder results for every
			// out-of-shard run, so it is meaningless: discard it, and treat
			// section errors as warnings (the merge pass re-simulates any
			// runs a section failed to reach).
			if st.err != nil {
				fmt.Fprintf(os.Stderr, "dcpieval: shard %d/%d: %s: %v (merge will re-simulate missing runs)\n",
					shardIdx, shardN, sections[i].name, st.err)
			}
			continue
		}
		os.Stdout.Write(st.buf.Bytes())
		if st.err != nil {
			app.Fatalf(1, "%s: %v", sections[i].name, st.err)
		}
	}
	st := sched.Stats()
	if shardMode {
		out := *shardOut
		if out == "" {
			out = fmt.Sprintf("dcpieval-shard-%d-of-%d.shard", shardIdx, shardN)
		}
		if err := runcache.WriteArchive(out, stamp, shardEntries); err != nil {
			app.Fatalf(1, "writing shard archive: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dcpieval: shard %d/%d: simulated %d of %d runs (%d skipped for other shards), wrote %d results to %s\n",
			shardIdx, shardN, st.Simulated, st.Requests(), st.ShardSkipped, len(shardEntries), out)
	}
	if st.MemHits > 0 || st.DiskHits > 0 {
		fmt.Fprintf(os.Stderr, "dcpieval: %d simulations run, %d duplicate requests served from memory, %d runs rehydrated from disk\n",
			st.Simulated, st.MemHits, st.DiskHits)
	}
	if app.Obs.Registry != nil {
		app.CacheStats(sched, true)
	}
	app.Exit(0)
}

// parseShard parses "i/N" into (i, N); an empty spec returns (0, 0).
func parseShard(spec string) (idx, n int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(spec, "%d/%d", &idx, &n); err != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q (want \"i/N\", e.g. 2/4)", spec)
	}
	if n < 1 || idx < 1 || idx > n {
		return 0, 0, fmt.Errorf("invalid -shard %q: need 1 <= i <= N", spec)
	}
	return idx, n, nil
}

// loadShards reads every archive named by the comma-separated list (each
// element may be a glob) and returns the union of their entries keyed by
// content key. Archives must carry this binary's version stamp; later
// archives win on duplicate keys (the blobs are identical by construction
// — simulation is deterministic in the key).
func loadShards(list, stamp string) (map[string][]byte, int, error) {
	preload := make(map[string][]byte)
	nfiles := 0
	for _, pat := range strings.Split(list, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		paths, err := filepath.Glob(pat)
		if err != nil {
			return nil, 0, fmt.Errorf("bad -merge-shards pattern %q: %v", pat, err)
		}
		if len(paths) == 0 {
			return nil, 0, fmt.Errorf("-merge-shards: no files match %q", pat)
		}
		for _, path := range paths {
			_, entries, err := runcache.ReadArchive(path, stamp)
			if err != nil {
				return nil, 0, err
			}
			for _, e := range entries {
				preload[e.Key] = e.Blob
			}
			nfiles++
		}
	}
	return preload, nfiles, nil
}

// figWriter suppresses one of the two combined figures when only the other
// was requested.
func figWriter(w io.Writer, figNo, requested int, all bool) io.Writer {
	if all || requested == figNo {
		return w
	}
	return io.Discard
}
