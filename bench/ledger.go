package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcpi/internal/atomicio"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// runLedger is the traced run. It walks every layer once, whatever the
// workload named on the command line: the result line of a traced run holds
// every per-layer metric, so every traced run measures every layer. Each
// section is the in-process counterpart of one workload, at the workload's
// own size, with a span around every call into a layer. The work is a fixed
// amount, not a time, so that the counts repeat exactly.
func runLedger(e *env) (*outcome, error) {
	o := &outcome{}
	root := e.rec.begin(0, "bench.ledger")
	defer e.rec.end(root)

	cfgs := e.ledgerConfigs()
	cacheDir := filepath.Join(e.work, "ledger-cache")
	refs, err := e.ledgerCold(o, root, cfgs, cacheDir)
	if err != nil {
		return nil, err
	}
	if err := e.ledgerWarm(o, root, cfgs, refs, cacheDir); err != nil {
		return nil, err
	}
	if err := e.ledgerAnalysis(o, root); err != nil {
		return nil, err
	}
	if err := e.ledgerSweeps(o, root); err != nil {
		return nil, err
	}
	if err := e.ledgerMemory(o, root); err != nil {
		return nil, err
	}
	if err := e.ledgerIngest(o, root); err != nil {
		return nil, err
	}
	if err := e.ledgerQuery(o, root); err != nil {
		return nil, err
	}
	return o, nil
}

// childrenOf returns the spans called name whose parent is id.
func childrenOf(spans []span, id int, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent == id && s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// ledgerIngest is the traced counterpart of fleet-ingest: one untraced
// unit for the overhead ratio, one traced unit for the spans, then the
// probes that need the store the unit left behind.
func (e *env) ledgerIngest(o *outcome, parent int) error {
	root := e.rec.begin(parent, "bench.fleet_ingest")
	defer e.rec.end(root)

	untraced := *e
	untraced.rec = nil
	plain, err := untraced.ingestOnce(filepath.Join(e.work, "ledger-ingest-plain"), o, 0)
	if err != nil {
		return err
	}
	mark := len(e.rec.snapshot())
	rig, err := e.ingestSetup(filepath.Join(e.work, "ledger-ingest"))
	if err != nil {
		return err
	}
	defer rig.fleet.Close()
	u, err := e.ingestRounds(rig, o, root)
	if err != nil {
		return err
	}
	if _, err := e.ingestVerify(rig, o, root); err != nil {
		return err
	}
	spans := e.rec.snapshot()[mark:]
	self := selfByName(spans)
	rounds := float64(e.size.rounds)

	var scrapes []span
	for _, s := range spans {
		if s.Name == "collect.scrape" {
			scrapes = append(scrapes, s)
		}
	}
	var failures uint64
	for _, st := range rig.coll.Statuses() {
		failures += st.Failures
	}
	o.set("fleet.advance_ms", ms(self["fleet.advance"])/rounds)
	o.set("collect.scrape_ms_p50", percentile(durations(spans, "collect.scrape"), 50))
	o.set("collect.us_per_epoch", us(self["collect.scrape"])/float64(u.epochs))
	o.set("collect.failures", float64(failures))
	o.set("collect.fresh_ms_p50", percentile(u.fresh, 50))
	o.set("collect.fresh_ms_p90", percentile(u.fresh, 90))
	o.set("expo.epochs_ms_start", median(childrenOf(spans, scrapes[0].ID, "expo.epochs")))
	o.set("expo.epochs_ms_end", median(childrenOf(spans, scrapes[len(scrapes)-1].ID, "expo.epochs")))
	o.set("expo.profiles_ms", percentile(durations(spans, "expo.profiles"), 50))
	o.set("expo.payload_bytes", float64(rig.tap.bytes.Load())/float64(u.epochs))
	o.set("tsdb.compact_ms", median(durations(spans, "tsdb.compact")))
	o.set("trace.ingest_overhead_ratio", u.wall.Seconds()/plain.wall.Seconds())
	o.set("trace.ingest_root_self_share", ms(self["bench.rounds"])/durations(spans, "bench.rounds")[0])

	// tsdb.Append alone: the batches the collector stored for the first
	// machine, replayed into a scratch store, which then also gives the
	// bytes an epoch takes raw and compacted.
	byEpoch := map[uint64]*tsdb.Batch{}
	for _, pt := range rig.store.Select(tsdb.Matcher{Machine: rig.fleet.Machines[0].Name, AnyEvent: true, AnyProc: true}) {
		b := byEpoch[pt.Epoch]
		if b == nil {
			b = &tsdb.Batch{Machine: pt.Machine, Workload: pt.Workload, Epoch: pt.Epoch, Wall: pt.Wall, Period: pt.Period}
			byEpoch[pt.Epoch] = b
		}
		b.Records = append(b.Records, tsdb.Record{Image: pt.Image, Proc: pt.Proc, Event: pt.Event, Samples: pt.Samples, Insts: pt.Insts})
	}
	scratch, err := tsdb.Open(filepath.Join(e.work, "ledger-scratch"), tsdb.Options{})
	if err != nil {
		return err
	}
	var appends []float64
	for ep := uint64(1); ep <= uint64(len(byEpoch)); ep++ {
		appends = append(appends, us(e.rec.do(root, "tsdb.append", func(int) { err = scratch.Append(*byEpoch[ep]) })))
		if err != nil {
			return err
		}
	}
	raw := scratch.Stats().SizeBytes
	if _, err := scratch.Compact(tsdb.CompactOptions{CompactAfter: 1}); err != nil {
		return err
	}
	block := scratch.Stats().SizeBytes
	o.set("tsdb.append_us", median(appends))
	o.set("tsdb.raw_bytes_per_epoch", float64(raw)/float64(len(byEpoch)))
	o.set("tsdb.block_bytes_per_epoch", float64(block)/float64(len(byEpoch)))
	o.set("tsdb.compact_ratio", float64(raw)/float64(block))

	// What one durable write costs on the device under the work directory.
	buf := make([]byte, 1024)
	var writes []float64
	for i := 0; i < 200; i++ {
		writes = append(writes, us(e.rec.do(root, "atomicio.write", func(int) {
			err = atomicio.WriteFile(filepath.Join(e.work, "probe.bin"), func(w io.Writer) error {
				_, werr := w.Write(buf)
				return werr
			})
		})))
		if err != nil {
			return err
		}
	}
	o.set("atomicio.write_us", median(writes))
	return os.RemoveAll(filepath.Join(e.work, "ledger-ingest"))
}

// ledgerQuery is the traced counterpart of fleet-query: the same passes
// untraced and traced, the same questions put to tsdb directly, and the
// two scan modes on their own.
func (e *env) ledgerQuery(o *outcome, parent int) error {
	root := e.rec.begin(parent, "bench.fleet_query")
	defer e.rec.end(root)
	rig, err := e.querySetup()
	if err != nil {
		return err
	}
	defer rig.close()

	// Three passes each way, the same queries: enough recent queries for a
	// 99th percentile to be a measured value.
	const passes = 3
	var plainWall, tracedWall time.Duration
	lat := map[string][]float64{}
	direct := map[string][]float64{}
	var bytes int64
	queries := 0
	mark := len(e.rec.snapshot())
	for _, traced := range []bool{false, true} {
		rng := rand.New(rand.NewSource(int64(e.seed) + 1))
		rig.rec.Store(nil)
		if traced {
			rig.rec.Store(e.rec)
		}
		for n := 0; n < passes; n++ {
			qs := e.passQueries(rig, rng)
			res, err := rig.queryPass(qs, o, root)
			if err != nil {
				return err
			}
			if !traced {
				plainWall += res.wall
				continue
			}
			if n == 0 {
				e.checkPinned(o, res.sums)
			}
			tracedWall += res.wall
			bytes += res.bytes
			queries += len(qs)
			for class, l := range res.lat {
				lat[class] = append(lat[class], l...)
			}
			// The same questions without HTTP, JSON or the handler.
			for _, q := range qs {
				var rows int
				d := e.rec.do(root, "tsdb."+q.class, func(int) { rows = q.direct(rig.store) })
				direct[q.class] = append(direct[q.class], ms(d))
				o.attempted++
				if rows != q.rows {
					o.fail(1, "%s answered directly: %d rows, want %d", q.url, rows, q.rows)
				}
			}
		}
	}
	spans := e.rec.snapshot()[mark:]
	var passMS float64
	for _, d := range durations(spans, "bench.pass") {
		passMS += d
	}
	o.set("collect.recent_ms_p50", percentile(lat["recent"], 50))
	o.set("collect.recent_ms_p90", percentile(lat["recent"], 90))
	o.set("collect.recent_ms_p99", percentile(lat["recent"], 99))
	o.set("collect.full_ms_p50", percentile(lat["full"], 50))
	o.set("collect.full_ms_p90", percentile(lat["full"], 90))
	o.set("collect.top_ms_p50", percentile(lat["top"], 50))
	o.set("collect.delta_ms_p50", percentile(lat["delta"], 50))
	o.set("collect.api_us", 1000*(percentile(lat["recent"], 50)-percentile(direct["recent"], 50)))
	o.set("collect.api_resp_bytes", float64(bytes)/float64(queries))
	o.set("tsdb.range_full_ms", percentile(direct["full"], 50))
	o.set("tsdb.top_ms", percentile(direct["top"], 50))
	o.set("tsdb.delta_ms", percentile(direct["delta"], 50))
	o.set("trace.query_overhead_ratio", tracedWall.Seconds()/plainWall.Seconds())
	o.set("trace.query_root_self_share", ms(selfByName(spans)["bench.pass"])/passMS)

	// The two scan modes: the same window width in the raw tail and inside
	// the blocks, for images the seed picks.
	s := e.size
	rng := rand.New(rand.NewSource(int64(e.seed) + 3))
	window := func(name string, from uint64) (float64, int) {
		var ds []float64
		points := 0
		for i := 0; i < 50; i++ {
			m := tsdb.Matcher{Image: queryImages[rng.Intn(len(queryImages))], FromEpoch: from, ToEpoch: from + s.recentWindow - 1}
			ds = append(ds, us(e.rec.do(root, name, func(int) { points = len(rig.store.Select(m)) })))
		}
		return median(ds), points
	}
	rawUS, rawPoints := window("tsdb.select_raw", rig.maxEpoch-s.recentWindow+1)
	blockUS, blockPoints := window("tsdb.select_block", uint64(s.qEpochs)/2)
	o.set("tsdb.select_raw_us", rawUS)
	o.set("tsdb.select_block_us", blockUS)
	o.attempted++
	if want := s.qMachines * int(s.recentWindow); rawPoints != want || blockPoints != want {
		o.fail(1, "a %d-epoch window selected %d raw and %d block points, want %d", s.recentWindow, rawPoints, blockPoints, want)
	}
	// Points a recent query reads for each row it returns: its own series
	// and the denominator over every image.
	from := rig.maxEpoch - s.recentWindow + 1
	all := len(rig.store.Select(tsdb.Matcher{Event: sim.EvCycles, FromEpoch: from, ToEpoch: rig.maxEpoch}))
	o.set("tsdb.points_per_row", float64(rawPoints+all)/float64(s.recentWindow))

	// Heap allocations per query, by class.
	allocs := func(fn func()) float64 {
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / n
	}
	image := queryImages[1]
	o.set("tsdb.recent_allocs", allocs(func() { tsdb.RangeQuery(rig.store, image, sim.EvCycles, from, rig.maxEpoch) }))
	o.set("tsdb.full_allocs", allocs(func() { tsdb.RangeQuery(rig.store, image, sim.EvCycles, 1, rig.maxEpoch) }))

	var reopened *tsdb.DB
	open := e.rec.do(root, "tsdb.open", func(int) { reopened, err = tsdb.Open(rig.dir, tsdb.Options{ReadOnly: true}) })
	if err != nil {
		return err
	}
	o.attempted++
	if reopened.Stats().Points != rig.store.Stats().Points {
		o.fail(1, "the reopened store holds %d points, the live one %d", reopened.Stats().Points, rig.store.Stats().Points)
	}
	o.set("tsdb.open_ms", ms(open))
	return nil
}
