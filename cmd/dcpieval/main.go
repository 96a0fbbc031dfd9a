// Command dcpieval regenerates the paper's tables and figures on the
// simulated machine (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	dcpieval -table 3            # one table (-h lists the keys)
//	dcpieval -fig 2              # one figure
//	dcpieval -ablation ht        # one ablation
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
// Flags -runs and -scale trade time for confidence. The sections and the
// loop that runs them are internal/eval's (eval.Sections, eval.Run): they
// run concurrently on one simulation runner (internal/runner), -j bounds how
// many machine simulations execute at once (default GOMAXPROCS), and
// identical run configurations across sections are simulated exactly once.
// Sections stream to stdout in their fixed order as they complete, so long
// sweeps show progress; output is byte-identical for every -j value — and
// for cold, warm-cache, and sharded-then-warm invocations alike.
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpi/internal/cli"
	"dcpi/internal/eval"
	"dcpi/internal/obs"
	"dcpi/internal/pipeline"
)

func main() {
	app := cli.New("dcpieval")
	tables, figs, ablations := eval.Keys()
	var (
		table    = flag.Int("table", 0, "regenerate a table ("+tables+")")
		fig      = flag.Int("fig", 0, "regenerate a figure ("+figs+")")
		ablation = flag.String("ablation", "", "run an ablation: "+ablations)
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

	sections := eval.Select(*all, *table, *fig, *ablation)
	if len(sections) == 0 {
		flag.Usage()
		app.Exit(2)
	}
	eval.Run(o, sections, func(s eval.Section, out []byte, err error) {
		if shardMode {
			// Shard output is rendered from placeholder results for every
			// out-of-shard run, so it is meaningless: discard it, and treat
			// section errors as warnings (the unsharded command over the
			// same cache directory simulates any run a section failed to
			// reach).
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcpieval: shard %d/%d: %s: %v (the unsharded command will simulate missing runs)\n",
					shardIdx, shardN, s.Header, err)
			}
			return
		}
		os.Stdout.Write(out)
		if err != nil {
			app.Fatalf(1, "%s: %v", s.Header, err)
		}
	})
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
