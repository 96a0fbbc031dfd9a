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
//	dcpieval -all -shard 1/4 -cache-dir d
//	                             # simulate only shard 1 of 4 into d; once
//	                             # d holds every shard's entries, the plain
//	                             # command over it prints the full output
//
// Flags -runs and -scale trade time for confidence. All experiments share
// one simulation runner (internal/runner): sections run concurrently, -j
// bounds how many machine simulations execute at once (default GOMAXPROCS),
// and identical run configurations across sections are simulated exactly
// once. Sections stream to stdout in their fixed order as they complete, so
// long sweeps show progress; output is byte-identical for every -j value —
// and for cold, warm-cache, and sharded-then-warm invocations alike.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"dcpi/internal/cli"
	"dcpi/internal/eval"
	"dcpi/internal/obs"
	"dcpi/internal/pipeline"
)

// section is one independently runnable report: it renders into w and all
// its simulations go through the shared runner inside eval.Options. A
// section is selected by -all or by the one of table, fig and ablation it
// sets.
type section struct {
	table, fig int
	ablation   string
	name       string
	run        func(o eval.Options, w io.Writer) error
}

// report is the common section shape: compute the rows, then render them.
func report[T any](run func(eval.Options) (T, error), format func(io.Writer, T)) func(eval.Options, io.Writer) error {
	return func(o eval.Options, w io.Writer) error {
		rows, err := run(o)
		if err != nil {
			return err
		}
		format(w, rows)
		return nil
	}
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
		shard    = flag.String("shard", "", "simulate only shard i of N (format \"i/N\", 1-based) into -cache-dir instead of printing output")
	)
	app.ProfileFlags()
	app.ObsFlags()
	app.RunnerFlags()
	flag.Parse()
	app.Start()
	app.Obs.Tracer.NameProcess(obs.PIDRunner, "runner (simulation scheduler)")
	app.Obs.Tracer.NameProcess(obs.PIDEval, "eval (experiment sections)")

	shardIdx, shardN, err := parseShard(*shard)
	if err != nil {
		app.Fatalf(2, "%v", err)
	}
	shardMode := shardN > 0
	sched := app.Runner()
	if shardMode && sched.Disk == nil {
		app.Fatalf(2, "-shard needs -cache-dir (or $DCPI_CACHE_DIR): a shard's results are the cache entries it writes")
	}
	sched.Shard, sched.NumShards = shardIdx, shardN
	app.BeforeMetrics = func() {
		sched.PublishMetrics()
		// How well the block-schedule memo worked (docs/PERFORMANCE.md).
		hits, misses, entries := pipeline.SchedCacheStats()
		app.Obs.Registry.Gauge("pipeline.schedcache.hits").Set(float64(hits))
		app.Obs.Registry.Gauge("pipeline.schedcache.misses").Set(float64(misses))
		app.Obs.Registry.Gauge("pipeline.schedcache.entries").Set(float64(entries))
	}
	o := eval.Options{Runs: *runs, Scale: *scale, Runner: sched, Obs: app.Obs}

	// Every section, in output order. Figures 3 and 4 are one section (Figure
	// 4 summarizes Figure 3's runs), listed under 3; figWriter hides the half
	// that was not asked for.
	list := []section{
		{table: 2, name: "Table 2: workloads and base runtimes", run: report(eval.Table2, eval.FormatTable2)},
		{table: 3, name: "Table 3: overall slowdown", run: report(eval.Table3, eval.FormatTable3)},
		{table: 4, name: "Table 4: time overhead components", run: report(eval.Table4, eval.FormatTable4)},
		{table: 5, name: "Table 5: space overhead", run: report(eval.Table5, eval.FormatTable5)},
		{fig: 1, name: "Figure 1: dcpiprof on x11perf", run: eval.Fig1},
		{fig: 2, name: "Figure 2: dcpicalc on the copy loop", run: eval.Fig2},
		{fig: 3, name: "Figures 3 & 4: dcpistats and the smooth_ summary", run: func(o eval.Options, w io.Writer) error {
			results, err := eval.Fig3(o, figWriter(w, 3, *fig, *all))
			if err != nil {
				return err
			}
			return eval.Fig4(o, figWriter(w, 4, *fig, *all), results)
		}},
		{fig: 7, name: "Figure 7: frequency estimation for the copy loop", run: eval.Fig7},
		{fig: 6, name: "Figure 6: running-time distributions", run: report(eval.Fig6, eval.FormatFig6)},
		{fig: 8, name: "Figure 8: instruction-frequency accuracy", run: fig8},
		{fig: 9, name: "Figure 9: edge-frequency accuracy", run: fig9},
		{fig: 10, name: "Figure 10: I-cache stalls vs IMISS events", run: report(eval.Fig10, eval.FormatFig10)},
		{ablation: "ht", name: "Ablation: hash-table design space (§5.4)", run: report(eval.AblationHT, eval.FormatAblation)},
		{ablation: "loss", name: "Ablation: daemon lag vs. sample loss (§4.2.3)", run: report(eval.LossSweep, eval.FormatLossSweep)},
	}
	wantFig := *fig
	if wantFig == 4 {
		wantFig = 3
	}
	var sections []section
	for _, s := range list {
		if *all || s.table != 0 && s.table == *table ||
			s.fig != 0 && s.fig == wantFig ||
			s.ablation != "" && s.ablation == *ablation {
			sections = append(sections, s)
		}
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
			if err := s.run(o, &st.buf); err != nil {
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
			// section errors as warnings (the unsharded command over the
			// same cache directory simulates any run a section failed to
			// reach).
			if st.err != nil {
				fmt.Fprintf(os.Stderr, "dcpieval: shard %d/%d: %s: %v (the unsharded command will simulate missing runs)\n",
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
		fmt.Fprintf(os.Stderr, "dcpieval: shard %d/%d: simulated %d of %d runs (%d skipped for other shards) into %s\n",
			shardIdx, shardN, st.Simulated, st.Requests(), st.ShardSkipped, sched.Disk.Path())
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

// fig8 is Figure 8 and the multi-run convergence table under it.
func fig8(o eval.Options, w io.Writer) error {
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
}

// fig9 is Figure 9 and its two §7 variants.
func fig9(o eval.Options, w io.Writer) error {
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
}

// figWriter suppresses one of the two combined figures when only the other
// was requested.
func figWriter(w io.Writer, figNo, requested int, all bool) io.Writer {
	if all || requested == figNo {
		return w
	}
	return io.Discard
}
