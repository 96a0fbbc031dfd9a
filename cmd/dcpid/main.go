// Command dcpid runs a workload on the simulated machine under continuous
// profiling and stores the collected profiles in an on-disk database — the
// role of the DCPI driver+daemon pair on a production system.
//
// Usage:
//
//	dcpid -workload x11perf -mode default -db ./dcpidb [-seed 1] [-scale 1]
//	dcpid -workload x11perf -metrics-out metrics.json -trace-out trace.json
//	dcpid -workload x11perf -epochs 20 -listen 127.0.0.1:9111 -machine m00
//
// -metrics-out writes the collection stack's self-measurements (the paper's
// Table 3-5 numbers: handler-cycle histogram, hash miss rate, evictions,
// daemon cycles/sample, database bytes) as a metrics JSON artifact;
// -trace-out writes a Chrome-trace-format JSON of the collection pipeline
// (openable in Perfetto). Both are written on every way out, a failed run
// included. See docs/OBSERVABILITY.md.
//
// -epochs runs the workload repeatedly (seed+i per run), sealing one
// database epoch per run; -listen serves the database, live stats, and
// self-metrics over HTTP (internal/expo) during and after the runs, until
// SIGINT/SIGTERM triggers a graceful shutdown. A dcpicollect scraper
// pointed at -listen pulls each sealed epoch exactly once.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dcpi/internal/cli"
	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/expo"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

func main() {
	app := cli.New("dcpid")
	var (
		wl       = flag.String("workload", "", "workload to run ("+strings.Join(workload.Names(), ", ")+")")
		mode     = flag.String("mode", "default", "profiling mode: cycles, default, mux")
		dbDir    = flag.String("db", "dcpidb", "profile database directory")
		seed     = flag.Uint64("seed", 1, "run seed (page placement + sampling)")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		period   = flag.Int64("period", 0, "cycles sampling period base (0 = paper default 60K-64K)")
		verbose  = flag.Bool("v", false, "print per-CPU driver statistics (to stderr)")
		perPID   = flag.String("perpid", "", "comma-separated PIDs to keep separate per-process profiles for (paper §4.3; workload PIDs start at 100)")
		fault    = flag.String("fault", "", "inject daemon faults, e.g. 'stall=1M-3M,drain-latency=500K,crash-merge=1' (see docs/ROBUSTNESS.md)")
		buckets  = flag.Int("buckets", 0, "driver hash-table buckets (0 = default 4096)")
		overflow = flag.Int("overflow", 0, "driver overflow-buffer capacity in entries (0 = default 8192)")
		drainInt = flag.Int64("drain-interval", 0, "daemon drain interval in cycles (0 = default 2M)")
		mergeInt = flag.Int64("merge-interval", 0, "daemon disk-merge interval in cycles (0 = default 4M)")
		epochs   = flag.Int("epochs", 1, "number of profiled runs (one sealed database epoch each, seed+i per run)")
		listen   = flag.String("listen", "", "serve the profile database, live stats, and metrics over HTTP on this address (e.g. 127.0.0.1:9111); keeps serving after the runs until SIGINT/SIGTERM")
		machine  = flag.String("machine", "local", "machine label reported on the exposition endpoints")
		exact    = flag.Bool("exact", false, "collect exact per-image instruction counts (stored in epoch metadata; enables fleet CPI queries)")
	)
	app.ProfileFlags()
	app.ObsFlags()
	flag.Parse()
	app.Start()
	if *wl == "" {
		flag.Usage()
		app.Exit(2)
	}

	var m sim.Mode
	switch *mode {
	case "cycles":
		m = sim.ModeCycles
	case "default":
		m = sim.ModeDefault
	case "mux":
		m = sim.ModeMux
	default:
		app.Fatalf(2, "unknown mode %q", *mode)
	}

	cfg := dcpi.Config{
		Workload:       *wl,
		Mode:           m,
		DBDir:          *dbDir,
		Seed:           *seed,
		Scale:          *scale,
		CollectExact:   *exact,
		DriverBuckets:  *buckets,
		DriverOverflow: *overflow,
		DrainInterval:  *drainInt,
		MergeInterval:  *mergeInt,
		// Simulated CPUs fan out over whatever the host worker budget has
		// free (internal/par); GOMAXPROCS=1 is the sequential reference.
		SimCPUs: -1,
		Obs:     app.Obs,
	}
	if *fault != "" {
		plan, err := daemon.ParseFaultPlan(*fault)
		if err != nil {
			app.Fatalf(2, "%v", err)
		}
		cfg.Fault = plan
	}
	if *perPID != "" {
		for _, f := range strings.Split(*perPID, ",") {
			var pid uint32
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &pid); err != nil {
				app.Fatalf(2, "bad -perpid entry %q", f)
			}
			cfg.PerProcessPIDs = append(cfg.PerProcessPIDs, pid)
		}
	}
	if *period > 0 {
		cfg.CyclesPeriod = sim.PeriodSpec{Base: *period, Spread: *period / 16}
	}
	if *epochs < 1 {
		app.Fatalf(2, "-epochs must be >= 1")
	}
	if *buckets < 0 || *overflow < 0 {
		app.Fatalf(2, "-buckets and -overflow must be >= 0")
	}

	// -listen exposes the profile database, live stats, and self-metrics
	// while the runs proceed (and afterwards, until interrupted). The stats
	// snapshot is swapped atomically at epoch boundaries so the handlers
	// never race the simulation loop.
	var (
		snap  atomic.Pointer[expo.StatsSnapshot]
		srv   *http.Server
		sigCh chan os.Signal
	)
	snap.Store(&expo.StatsSnapshot{Machine: *machine, Workload: *wl, Running: true})
	if *listen != "" {
		if cfg.Obs.Registry == nil {
			cfg.Obs.Registry = obs.NewRegistry()
		}
		src := &expo.Source{
			Machine:  *machine,
			Workload: *wl,
			DBDir:    *dbDir,
			Registry: cfg.Obs.Registry,
			Stats:    func() expo.StatsSnapshot { return *snap.Load() },
		}
		// Symbolize against the workload's own images so scrapers can ask
		// for per-procedure breakdowns (?procs=1). Best-effort: a workload
		// that cannot be staged offline just serves image-level data.
		if ld, err := dcpi.SetupImages(*wl); err == nil {
			src.Image = ld.ImageByPath
		} else {
			fmt.Fprintf(os.Stderr, "dcpid: no symbols for %s: %v\n", *wl, err)
		}
		lis, err := net.Listen("tcp", *listen)
		if err != nil {
			app.Fatalf(1, "%v", err)
		}
		srv = &http.Server{Handler: expo.Handler(src)}
		go srv.Serve(lis)
		fmt.Fprintf(os.Stderr, "dcpid: serving on http://%s\n", lis.Addr())
		sigCh = make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	}
	stopped := false
	interrupted := func() bool {
		if stopped || sigCh == nil {
			return stopped
		}
		select {
		case <-sigCh:
			stopped = true
		default:
		}
		return stopped
	}

	var (
		r            *dcpi.Result
		wallTotal    int64
		samplesTotal uint64
	)
	for i := 0; i < *epochs; i++ {
		runCfg := cfg
		runCfg.Seed = *seed + uint64(i)
		rr, err := dcpi.Run(runCfg)
		if err != nil {
			app.Fatalf(1, "%v", err)
		}
		r = rr
		wallTotal += rr.Wall
		samplesTotal += rr.DriverStats.Samples
		s := expo.StatsSnapshot{
			Machine:      *machine,
			Workload:     *wl,
			Epoch:        rr.DB.Epoch(),
			EpochsDone:   i + 1,
			Running:      i+1 < *epochs,
			WallCycles:   wallTotal,
			Driver:       rr.DriverStats,
			Daemon:       rr.DaemonStats,
			LossRate:     rr.DriverStats.LossRate(),
			SamplesTotal: samplesTotal,
		}
		snap.Store(&s)
		if *epochs > 1 {
			fmt.Printf("dcpid: epoch %d/%d sealed (%d samples, %d cycles)\n",
				i+1, *epochs, rr.DriverStats.Samples, rr.Wall)
		}
		if i < *epochs-1 {
			if interrupted() {
				fmt.Fprintln(os.Stderr, "dcpid: interrupted; stopping after sealed epoch")
				break
			}
			if err := rr.DB.NewEpoch(); err != nil {
				app.Fatalf(1, "%v", err)
			}
		}
	}

	st := r.Machine.Stats()
	ds := r.Driver.TotalStats()
	dm := r.Daemon.Stats()
	fmt.Printf("dcpid: %s finished in %d cycles (%d instructions)\n", *wl, r.Wall, st.Instructions)
	fmt.Printf("  samples       %d (%s)\n", ds.Samples, *mode)
	fmt.Printf("  hash table    %.1f%% miss, %d evictions, avg handler %.0f cycles\n",
		100*ds.MissRate(), ds.Evictions, ds.AvgCost())
	fmt.Printf("  daemon        %d entries, %.2f%% unknown, %.1f cycles/sample\n",
		dm.Entries, 100*dm.UnknownRate(), dm.CostPerSample())
	if disk, err := r.DB.DiskUsage(); err == nil {
		fmt.Printf("  database      %s (epoch %d, %d bytes)\n", *dbDir, r.DB.Epoch(), disk)
	}
	// Loss and fault reporting only appears when there is something to
	// report, keeping the fault-free summary block byte-identical to
	// earlier releases.
	if ds.Lost > 0 || !cfg.Fault.Empty() {
		fmt.Printf("  loss          %d samples lost (%.4f%% of recorded), %d deliveries deferred\n",
			ds.Lost, 100*ds.LossRate(), ds.Deferred)
	}
	if !cfg.Fault.Empty() {
		// Sample conservation: everything the driver recorded is either in
		// the merged profiles or counted in a loss bucket. Per-process
		// profiles duplicate aggregate samples, so only aggregates count.
		// (Assumes a fresh -db directory; a reused epoch carries prior
		// samples that inflate the merged side.)
		var merged uint64
		for _, p := range r.Profiles() {
			if _, pid := daemon.ParseProfileName(p.ImagePath); pid == 0 {
				merged += p.Total()
			}
		}
		verdict := "ok"
		if ds.Samples != merged+ds.Lost+dm.CrashDropped {
			verdict = "VIOLATED"
		}
		fmt.Printf("  faults        plan %q: %d crashes, %d restarts, %d samples dropped by crashes\n",
			cfg.Fault, dm.Crashes, dm.Restarts, dm.CrashDropped)
		fmt.Printf("  conservation  recorded %d = merged %d + lost %d + crash-dropped %d: %s\n",
			ds.Samples, merged, ds.Lost, dm.CrashDropped, verdict)
	}
	if *verbose {
		// Verbose diagnostics go to stderr so the summary block on stdout
		// stays machine-parseable.
		for cpu := 0; cpu < r.Driver.NumCPUs(); cpu++ {
			fmt.Fprintf(os.Stderr, "  cpu%d: %s\n", cpu, r.Driver.Stats(cpu))
		}
	}
	if srv != nil {
		// Every sealed epoch is already fsynced (atomicio's write-meta-last
		// protocol), so shutdown only has to stop accepting requests and
		// let in-flight scrapes finish.
		final := *snap.Load()
		final.Running = false
		snap.Store(&final)
		if !interrupted() {
			fmt.Fprintln(os.Stderr, "dcpid: runs complete; serving until interrupted")
			<-sigCh
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			app.Fatalf(1, "shutdown: %v", err)
		}
		fmt.Fprintln(os.Stderr, "dcpid: shutdown complete")
	}
	app.Exit(0)
}
