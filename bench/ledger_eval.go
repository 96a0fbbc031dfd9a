package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"dcpi/internal/cfg"
	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/driver"
	"dcpi/internal/loader"
	"dcpi/internal/mem"
	"dcpi/internal/optimize"
	"dcpi/internal/pipeline"
	"dcpi/internal/profiledb"
	"dcpi/internal/runcache"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
	"dcpi/internal/whatif"
	"dcpi/internal/workload"
)

// timingSink is the collection stack wired as dcpi.Run wires it, with a
// clock around the two calls the simulator makes into it, so that host time
// in the driver and the daemon can be told from host time in the simulator.
type timingSink struct {
	drv              *driver.Driver
	dmn              *daemon.Daemon
	sampleNS, pollNS time.Duration
	samples          int
}

func (s *timingSink) Sample(x sim.Sample) int64 {
	t := time.Now()
	c := s.drv.RecordAt(x.CPU, x.PID, x.PC, x.Event, x.Clock)
	s.sampleNS += time.Since(t)
	s.samples++
	return c
}

func (s *timingSink) Poll(cpu int, clock int64) int64 {
	t := time.Now()
	c := s.dmn.Poll(cpu, clock)
	s.pollNS += time.Since(t)
	return c
}

// wiredRun simulates one configuration from the exported pieces, the way
// dcpi.Run does for an in-memory run, and returns the machine's statistics,
// the host time of the simulation proper and the sink (nil when unprofiled).
func wiredRun(c dcpi.Config) (sim.Stats, time.Duration, *timingSink, error) {
	spec, ok := workload.Get(c.Workload)
	if !ok {
		return sim.Stats{}, 0, nil, fmt.Errorf("unknown workload %q", c.Workload)
	}
	kernel, abi := workload.Kernel()
	l := loader.New(kernel)
	var sink sim.Sink
	var ts *timingSink
	if c.Mode != sim.ModeOff {
		drv := driver.New(driver.Config{NumCPUs: spec.NumCPUs})
		dmn := daemon.New(daemon.Config{}, drv)
		l.Notify, l.NotifyExit = dmn.HandleNotification, dmn.NoteExit
		ts = &timingSink{drv: drv, dmn: dmn}
		sink = ts
	}
	m := sim.NewMachine(sim.Options{
		NumCPUs: spec.NumCPUs, ABI: abi, Loader: l, Seed: c.Seed,
		Profile: sim.ProfileConfig{Mode: c.Mode, Sink: sink, Seed: uint32(c.Seed)},
	})
	if err := spec.Setup(&workload.Ctx{Loader: l, Machine: m, Scale: c.Scale}); err != nil {
		return sim.Stats{}, 0, nil, err
	}
	t := time.Now()
	m.Run(spec.MaxCycles)
	wall := time.Since(t)
	if ts != nil {
		wall -= ts.sampleNS + ts.pollNS
		// The final flush is daemon work too, after the simulator stopped.
		t = time.Now()
		if err := ts.dmn.Flush(); err != nil {
			return sim.Stats{}, 0, nil, err
		}
		ts.pollNS += time.Since(t)
	}
	return m.Stats(), wall, ts, nil
}

// ledgerConfigs is the set of runs the eval sections measure: every
// overhead workload unprofiled and under the default profiling mode. The
// seeds are fixed, not drawn from -seed, so that the simulated counts are
// the same in every traced run and can be pinned.
func (e *env) ledgerConfigs() []dcpi.Config {
	var cfgs []dcpi.Config
	for i, wl := range e.size.ledgerWorkloads {
		for _, mode := range []sim.Mode{sim.ModeOff, sim.ModeDefault} {
			cfgs = append(cfgs, dcpi.Config{Workload: wl, Scale: e.size.ledgerScale, Mode: mode, Seed: uint64(101 + i)})
		}
	}
	return cfgs
}

// ledgerCold is the traced counterpart of eval-cold: the simulations, then
// the write side of everything a cold dcpieval pass stores. It returns the
// reference results for the warm section.
func (e *env) ledgerCold(o *outcome, parent int, cfgs []dcpi.Config, cacheDir string) ([]*dcpi.Result, error) {
	root := e.rec.begin(parent, "bench.eval_cold")
	defer e.rec.end(root)

	// The timed simulations.
	stats := make([]sim.Stats, len(cfgs))
	var total sim.Stats
	var base, profiled, sampleNS, pollNS time.Duration
	var baseInsts, profInsts, entries uint64
	var drv driver.Stats
	samples := 0
	for i, c := range cfgs {
		var err error
		var wall time.Duration
		var ts *timingSink
		e.rec.do(root, "sim.run", func(int) { stats[i], wall, ts, err = wiredRun(c) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Workload, err)
		}
		total.Instructions += stats[i].Instructions
		total.Cycles += stats[i].Cycles
		total.Samples += stats[i].Samples
		if ts == nil {
			base += wall
			baseInsts += stats[i].Instructions
			continue
		}
		profiled += wall
		profInsts += stats[i].Instructions
		sampleNS += ts.sampleNS
		pollNS += ts.pollNS
		samples += ts.samples
		d := ts.drv.TotalStats()
		drv.Samples += d.Samples
		drv.Misses += d.Misses
		entries += ts.dmn.Stats().Entries
	}
	o.set("sim.ns_per_inst", float64(base)/float64(baseInsts))
	o.set("sim.ns_per_inst_profiled", float64(profiled)/float64(profInsts))
	o.set("sim.insts", float64(total.Instructions))
	o.set("sim.cycles", float64(total.Cycles))
	o.set("sim.samples", float64(total.Samples))
	o.set("driver.ns_per_sample", float64(sampleNS)/float64(samples))
	o.set("driver.miss_ratio", float64(drv.Misses)/float64(drv.Samples))
	o.set("daemon.ns_per_entry", float64(pollNS)/float64(entries))
	o.attempted++
	if p := e.pinned; total.Instructions != p.SimInsts || uint64(total.Cycles) != p.SimCycles || total.Samples != p.SimSamples {
		o.fail(1, "simulated %d instructions, %d cycles, %d samples; pinned %d, %d, %d",
			total.Instructions, total.Cycles, total.Samples, p.SimInsts, p.SimCycles, p.SimSamples)
	}

	// The reference pass: dcpi.Run through the runner, every configuration
	// requested twice, into an empty run cache. Its machine statistics are
	// the oracle of the wired runs above.
	disk, err := runcache.Open(cacheDir, runcache.Options{Stamp: dcpi.CacheStamp()})
	if err != nil {
		return nil, err
	}
	sched := runner.New(e.procs)
	sched.Disk = disk
	var pending []*runner.Pending
	e.rec.do(root, "runner.submit", func(int) {
		for _, c := range cfgs {
			pending = append(pending, sched.Submit(c), sched.Submit(c))
		}
	})
	refs := make([]*dcpi.Result, len(cfgs))
	id := e.rec.begin(root, "runner.wait")
	for i := range cfgs {
		if refs[i], err = pending[2*i].Wait(); err != nil {
			return nil, err
		}
		if _, err = pending[2*i+1].Wait(); err != nil {
			return nil, err
		}
		o.attempted++
		if refs[i].MachineStats != stats[i] {
			o.fail(1, "%s %s: wired run and dcpi.Run disagree on the machine statistics", cfgs[i].Workload, cfgs[i].Mode)
		}
	}
	e.rec.end(id)
	st := sched.Stats()
	o.set("runner.sims", float64(st.Simulated))
	o.set("runner.mem_hits", float64(st.MemHits))

	if err := e.ledgerStoreWrites(o, root, cfgs, refs, cacheDir+"-probe"); err != nil {
		return nil, err
	}
	if err := e.ledgerProfileDB(o, root, refs); err != nil {
		return nil, err
	}
	return refs, nil
}

// ledgerStoreWrites times, per run, the snapshot encoding and the run-cache
// write that a cold pass pays, into a cache of its own.
func (e *env) ledgerStoreWrites(o *outcome, parent int, cfgs []dcpi.Config, refs []*dcpi.Result, cacheDir string) error {
	probe, err := runcache.Open(cacheDir, runcache.Options{Stamp: dcpi.CacheStamp()})
	if err != nil {
		return err
	}
	var enc, put time.Duration
	var blobBytes int
	for i, res := range refs {
		var blob []byte
		enc += e.rec.do(parent, "snapshot.encode", func(int) { blob, err = dcpi.EncodeSnapshot(res) })
		if err != nil {
			return err
		}
		blobBytes += len(blob)
		put += e.rec.do(parent, "runcache.put", func(int) { err = probe.Put(runner.Key(cfgs[i]), blob) })
		if err != nil {
			return err
		}
	}
	n := float64(len(refs))
	o.set("snapshot.encode_us", us(enc)/n)
	o.set("snapshot.bytes", float64(blobBytes)/n)
	o.set("runcache.put_us", us(put)/n)
	return nil
}

// ledgerProfileDB merges every profile of the profiled runs into one
// database on disk, then loads each back.
func (e *env) ledgerProfileDB(o *outcome, parent int, refs []*dcpi.Result) error {
	db, err := profiledb.Open(filepath.Join(e.work, "ledger-pdb"))
	if err != nil {
		return err
	}
	var update, load time.Duration
	profiles := 0
	for _, res := range refs {
		for _, p := range res.Profiles() {
			update += e.rec.do(parent, "profiledb.update", func(int) { err = db.Update(p) })
			if err != nil {
				return err
			}
			profiles++
		}
	}
	for _, res := range refs {
		for _, p := range res.Profiles() {
			load += e.rec.do(parent, "profiledb.load", func(int) { _, err = db.Load(p.ImagePath, p.Event) })
			if err != nil {
				return err
			}
		}
	}
	bytes, err := db.DiskUsage()
	if err != nil {
		return err
	}
	stored, err := db.Profiles()
	if err != nil {
		return err
	}
	o.set("profiledb.update_us", us(update)/float64(profiles))
	o.set("profiledb.load_us", us(load)/float64(profiles))
	o.set("profiledb.bytes_per_profile", float64(bytes)/float64(len(stored)))
	return nil
}

// ledgerWarm is the traced counterpart of eval-warm: every run of the cold
// section read back from the cache it filled.
func (e *env) ledgerWarm(o *outcome, parent int, cfgs []dcpi.Config, refs []*dcpi.Result, cacheDir string) error {
	root := e.rec.begin(parent, "bench.eval_warm")
	defer e.rec.end(root)

	disk, err := runcache.Open(cacheDir, runcache.Options{Stamp: dcpi.CacheStamp()})
	if err != nil {
		return err
	}
	sched := runner.New(e.procs)
	sched.Disk = disk
	e.rec.do(root, "runner.rehydrate", func(int) {
		for _, c := range cfgs {
			if _, rerr := sched.Run(c); rerr != nil {
				err = rerr
			}
		}
	})
	if err != nil {
		return err
	}
	o.set("runner.disk_hits", float64(sched.Stats().DiskHits))

	var get, decode, images time.Duration
	for i, c := range cfgs {
		var blob []byte
		var ok bool
		get += e.rec.do(root, "runcache.get", func(int) { blob, ok = disk.Get(runner.Key(c)) })
		o.attempted++
		if !ok {
			o.fail(1, "%s %s: not in the run cache after the cold section", c.Workload, c.Mode)
			continue
		}
		var res *dcpi.Result
		decode += e.rec.do(root, "snapshot.decode", func(id int) {
			res, err = dcpi.DecodeSnapshot(blob, c)
		})
		if err != nil {
			return err
		}
		if res.MachineStats != refs[i].MachineStats || res.Wall != refs[i].Wall {
			o.fail(1, "%s %s: the rehydrated run differs from the simulated one", c.Workload, c.Mode)
		}
		images += e.rec.do(root, "dcpi.setup_images", func(int) { _, err = dcpi.SetupImages(c.Workload) })
		if err != nil {
			return err
		}
	}
	n := float64(len(cfgs))
	st := disk.Stats()
	bytes, files := dirBytes(cacheDir)
	o.set("runcache.get_us", us(get)/n)
	o.set("runcache.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	o.set("snapshot.decode_us", us(decode)/n)
	o.set("dcpi.setup_images_us", us(images)/n)
	o.set("runcache.bytes_per_run", float64(bytes)/float64(files))
	return nil
}

// ledgerAnalysis runs the analysis over every sampled procedure of
// dense-period runs, as the accuracy figures do, and schedules every basic
// block of the same images with the memo table bypassed.
func (e *env) ledgerAnalysis(o *outcome, parent int) error {
	root := e.rec.begin(parent, "bench.analysis")
	defer e.rec.end(root)
	hits0, misses0, _ := pipeline.SchedCacheStats()
	var analyse, sched time.Duration
	procs, insts, blocks := 0, 0, 0
	for i, wl := range e.size.analysisWorkloads {
		res, err := dcpi.Run(dcpi.Config{
			Workload: wl, Scale: e.size.ledgerScale, Mode: sim.ModeDefault, Seed: uint64(201 + i),
			CyclesPeriod: sim.PeriodSpec{Base: 768, Spread: 192},
			EventPeriod:  sim.PeriodSpec{Base: 384, Spread: 128},
			CollectExact: true, ZeroCostCollection: true,
		})
		if err != nil {
			return err
		}
		for _, prof := range res.Profiles() {
			im, ok := res.Loader.ImageByPath(prof.ImagePath)
			if !ok || prof.Event != sim.EvCycles {
				continue
			}
			for _, sym := range im.Symbols {
				code, off, err := im.ProcCode(sym.Name)
				if err != nil {
					continue
				}
				g := cfg.Build(code, off)
				for b := range g.Blocks {
					sched += e.rec.do(root, "pipeline.schedule", func(int) { res.Model().ScheduleBlock(g.BlockCode(b)) })
					blocks++
				}
				// Twice: the second analysis finds every block schedule in
				// the memo table, as repeated runs of a sweep do.
				for pass := 0; pass < 2; pass++ {
					analyse += e.rec.do(root, "analysis.proc", func(int) {
						pa, aerr := res.AnalyzeProc(prof.ImagePath, sym.Name)
						if aerr == nil {
							insts += len(pa.Insts)
							procs++
						}
					})
				}
			}
		}
	}
	hits, misses, _ := pipeline.SchedCacheStats()
	o.attempted++
	if procs == 0 || blocks == 0 {
		o.fail(1, "no procedure was analysed")
		procs, blocks, insts = 1, 1, 1
	}
	o.set("analysis.us_per_proc", us(analyse)/float64(procs))
	o.set("analysis.ns_per_inst", float64(analyse)/float64(insts))
	o.set("pipeline.sched_us", us(sched)/float64(blocks))
	o.set("pipeline.schedcache_hit_ratio", float64(hits-hits0)/float64(hits-hits0+misses-misses0))
	return nil
}

// ledgerSweeps times the two engines built on top of whole runs: a what-if
// sweep (cold, then again with every run already in the runner's memory,
// which leaves only the scoring) and the optimisation loop.
func (e *env) ledgerSweeps(o *outcome, parent int) error {
	root := e.rec.begin(parent, "bench.sweeps")
	defer e.rec.end(root)
	opts := whatif.Options{
		Base:   dcpi.Config{Workload: "compress", Scale: 2 * e.size.ledgerScale, Seed: 301},
		Runner: runner.New(e.procs),
	}
	if e.size.whatifGrid != nil {
		grid, err := whatif.GridByNames(e.size.whatifGrid)
		if err != nil {
			return err
		}
		opts.Grid = grid
	}
	var err error
	var cold, again *whatif.Report
	sweep := e.rec.do(root, "whatif.sweep", func(int) { cold, err = whatif.Sweep(opts) })
	if err != nil {
		return err
	}
	rescore := e.rec.do(root, "whatif.rescore", func(int) { again, err = whatif.Sweep(opts) })
	if err != nil {
		return err
	}
	o.attempted++
	if cold.BaseWall != again.BaseWall || cold.TotalTP != again.TotalTP || cold.TotalFP != again.TotalFP || len(cold.Points) == 0 {
		o.fail(1, "the what-if sweep scored differently on its second pass")
	}
	o.set("whatif.sweep_s", sweep.Seconds())
	o.set("whatif.rescore_ms", ms(rescore))
	o.set("whatif.sim_share", 1-rescore.Seconds()/sweep.Seconds())

	var loop *optimize.LoopResult
	d := e.rec.do(root, "optimize.loop", func(int) {
		loop, err = optimize.RunLoop(optimize.LoopConfig{
			Base:     dcpi.Config{Workload: "compress", Scale: 2 * e.size.ledgerScale, Seed: 3},
			MaxIters: e.size.optimizeIters,
		})
	})
	if err != nil {
		return err
	}
	o.attempted++
	if loop.Baseline.Instructions == 0 || len(loop.Iters) == 0 {
		o.fail(1, "the optimisation loop measured nothing")
	}
	o.set("optimize.loop_ms", ms(d))
	return nil
}

// ledgerMemory drives the four structures on the simulator's memory path,
// and the loader's address lookup, with one seeded stream each: nine
// accesses in ten go to 8 hot pages, the rest spread over 4096 pages, in
// two address spaces.
func (e *env) ledgerMemory(o *outcome, parent int) error {
	root := e.rec.begin(parent, "bench.memory")
	defer e.rec.end(root)
	rng := rand.New(rand.NewSource(int64(e.seed) + 2))
	n := e.size.memAccesses
	addrs := make([]uint64, n)
	asns := make([]uint32, n)
	for i := range addrs {
		page := uint64(rng.Intn(4096))
		if rng.Intn(10) != 0 {
			page = uint64(rng.Intn(8))
		}
		addrs[i] = 0x1_0000_0000 + page<<mem.PageShift + uint64(rng.Intn(mem.PageSize/8))*8
		asns[i] = uint32(1 + rng.Intn(2))
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(n) }

	tlb := mem.NewTLB(64)
	o.set("mem.tlb_ns", per(e.rec.do(root, "mem.tlb", func(int) {
		for i, a := range addrs {
			tlb.Lookup(asns[i], mem.PageOf(a))
		}
	})))
	mapper := mem.NewPageMapper(1<<16, e.seed)
	phys := make([]uint64, n)
	o.set("mem.translate_ns", per(e.rec.do(root, "mem.translate", func(int) {
		for i, a := range addrs {
			phys[i] = mapper.Translate(asns[i], a)
		}
	})))
	sparse := mem.NewSparse()
	var sum uint64
	o.set("mem.sparse_ns", per(e.rec.do(root, "mem.sparse", func(int) {
		for i, a := range addrs {
			if i%4 == 0 {
				sparse.Store(a, 8, uint64(i))
			} else {
				sum += sparse.Load(a, 8)
			}
		}
	})))
	cache := mem.NewCache(mem.CacheConfig{Name: "probe", Size: 8 << 10, LineSize: 32, Assoc: 1})
	o.set("mem.cache_ns", per(e.rec.do(root, "mem.cache", func(int) {
		for _, p := range phys {
			cache.Access(p)
		}
	})))
	o.attempted++
	if tlb.Hits+tlb.Misses != uint64(n) || cache.Accesses() != uint64(n) || mapper.MappedPages() == 0 || sum == 0 {
		o.fail(1, "the memory-path drivers lost accesses")
	}

	// loader.Process.Lookup: the same skew over the mappings of a process.
	l, err := dcpi.SetupImages("x11perf")
	if err != nil {
		return err
	}
	p := l.Processes()[0]
	maps := p.Mappings()
	look := make([]uint64, n)
	for i := range look {
		m := maps[0]
		if rng.Intn(10) == 0 {
			m = maps[rng.Intn(len(maps))]
		}
		look[i] = m.Base + uint64(rng.Int63n(int64(m.Image.Size())))
	}
	found := 0
	o.set("loader.lookup_ns", per(e.rec.do(root, "loader.lookup", func(int) {
		for _, a := range look {
			if _, _, ok := p.Lookup(a); ok {
				found++
			}
		}
	})))
	o.attempted++
	if found != n {
		o.fail(1, "loader.Lookup resolved %d of %d mapped addresses", found, n)
	}
	return nil
}
