package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"dcpi/internal/collect"
	"dcpi/internal/fleet"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// ingestRig is one fleet with the collector and the store that scrape it.
type ingestRig struct {
	fleet  *fleet.Fleet
	store  *tsdb.DB
	coll   *collect.Collector
	tap    *tapTransport
	points int // points the collector reported as ingested
}

// ingestUnit is what one rig measured: its set-up, its timed rounds, and
// the size of the store once the check has compacted it for the last time.
type ingestUnit struct {
	setup             time.Duration
	wall, cpu, scrape time.Duration
	fresh             []float64 // per round, ms from sealed to queryable
	epochs            int       // machine-epochs the collector ingested
	storeBytes        int64
}

// tapTransport sits between the collector and the machines' endpoints. It
// opens a span per request under the scrape in progress (named after the
// endpoint's layer: expo.epochs, expo.profiles) and counts the payload.
type tapTransport struct {
	rec    *recorder
	parent atomic.Int64 // span id of the scrape in progress
	bytes  atomic.Int64 // /profiles payload bytes
}

func (t *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "expo" + strings.ReplaceAll(req.URL.Path, "/", ".")
	id := t.rec.begin(int(t.parent.Load()), name)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, tap: t, id: id, count: req.URL.Path == "/profiles"}
	return resp, nil
}

// tapBody ends the request's span when the caller is done with the body.
type tapBody struct {
	io.ReadCloser
	tap   *tapTransport
	id    int
	count bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.count {
		b.tap.bytes.Add(int64(n))
	}
	return n, err
}

func (b *tapBody) Close() error {
	err := b.ReadCloser.Close()
	b.tap.rec.end(b.id)
	return err
}

// ingestSetup starts a fleet (its base simulations run here, not in the
// timed rounds), opens an empty store and builds the collector.
func (e *env) ingestSetup(dir string) (*ingestRig, error) {
	f, err := fleet.Start(fleet.Options{
		Dir:          filepath.Join(dir, "machines"),
		Machines:     e.size.machines,
		Workloads:    []string{"timeshare", "x11perf"},
		Seed:         e.seed,
		Scale:        e.size.fleetScale,
		FaultMachine: -1,
	})
	if err != nil {
		return nil, err
	}
	store, err := tsdb.Open(filepath.Join(dir, "fleetdb"), tsdb.Options{})
	if err != nil {
		f.Close()
		return nil, err
	}
	rig := &ingestRig{fleet: f, store: store}
	cfg := collect.Config{
		Timeout:  10 * time.Second,
		Parallel: e.procs,
		DB:       store,
		Procs:    true,
	}
	for _, m := range f.Machines {
		cfg.Targets = append(cfg.Targets, collect.Target{Name: m.Name, URL: m.URL})
	}
	if e.rec != nil {
		rig.tap = &tapTransport{rec: e.rec}
		cfg.Client = &http.Client{Transport: rig.tap}
	}
	rig.coll = collect.New(cfg)
	return rig, nil
}

// ingestRounds is the timed part: a closed loop of rounds, each sealing
// one epoch on every machine, scraping, and confirming with one tsdb query
// per machine that the epoch can be read back. A machine-epoch that cannot
// is a failed operation.
func (e *env) ingestRounds(rig *ingestRig, o *outcome, parent int) (ingestUnit, error) {
	var u ingestUnit
	root := e.rec.begin(parent, "bench.rounds")
	cpu0, start := selfCPU(), time.Now()
	for r := 1; r <= e.size.rounds; r++ {
		var err error
		e.rec.do(root, "fleet.advance", func(int) { err = rig.fleet.AdvanceEpoch() })
		if err != nil {
			return u, err
		}
		sealed := time.Now()
		u.scrape += e.rec.do(root, "collect.scrape", func(id int) {
			if rig.tap != nil {
				rig.tap.parent.Store(int64(id))
			}
			sum := rig.coll.ScrapeOnce(context.Background())
			u.epochs += sum.EpochsIngested
			rig.points += sum.PointsIngested
		})
		e.rec.do(root, "tsdb.select_fresh", func(int) {
			for _, m := range rig.fleet.Machines {
				o.attempted++
				pts := rig.store.Select(tsdb.Matcher{
					Machine: m.Name, AnyEvent: true,
					FromEpoch: uint64(r), ToEpoch: uint64(r),
				})
				if len(pts) == 0 {
					o.fail(1, "%s epoch %d not queryable after its scrape", m.Name, r)
				}
			}
		})
		u.fresh = append(u.fresh, ms(time.Since(sealed)))
		if r%e.size.compactEvery == 0 && r != e.size.rounds {
			e.rec.do(root, "tsdb.compact", func(int) {
				_, err = rig.store.Compact(tsdb.CompactOptions{CompactAfter: 1})
			})
			if err != nil {
				return u, err
			}
		}
	}
	u.wall, u.cpu = time.Since(start), selfCPU()-cpu0
	e.rec.end(root)
	return u, nil
}

// storeRows is every fleet query over the whole store; compaction must not
// change a byte of it.
func storeRows(store *tsdb.DB, image string, epochs uint64) []any {
	half := epochs / 2
	return []any{
		tsdb.RangeQuery(store, image, sim.EvCycles, 1, epochs),
		tsdb.TopImages(store, sim.EvCycles, 1, epochs, 10),
		tsdb.TopProcs(store, image, sim.EvCycles, 1, epochs, 10),
		tsdb.TopDeltas(store, sim.EvCycles, 1, half, half+1, epochs, 10),
	}
}

// ingestVerify is the correctness oracle of fleet-ingest, run after the
// timed rounds: exactly-once ingestion with the exact point count, sample
// sums against each machine's own profile database, and query answers that
// the final compaction leaves identical. It returns the store's size after
// that compaction.
func (e *env) ingestVerify(rig *ingestRig, o *outcome, parent int) (storeBytes int64, err error) {
	epochs := uint64(rig.fleet.Epoch())
	for _, m := range rig.fleet.Machines {
		seen := map[tsdb.Labels]map[uint64]bool{}
		for _, pt := range rig.store.Select(tsdb.Matcher{Machine: m.Name, AnyEvent: true, AnyProc: true}) {
			if seen[pt.Labels] == nil {
				seen[pt.Labels] = map[uint64]bool{}
			}
			if seen[pt.Labels][pt.Epoch] {
				o.fail(1, "%s epoch %d %s/%s ingested twice", m.Name, pt.Epoch, pt.Image, pt.Event)
			}
			seen[pt.Labels][pt.Epoch] = true
		}
		for ep := uint64(1); ep <= epochs; ep++ {
			if !rig.store.HasEpoch(m.Name, ep) {
				o.fail(1, "%s epoch %d was sealed but never ingested", m.Name, ep)
			}
		}
		if err := verifyGroundTruth(rig.store, m, epochs, o); err != nil {
			return 0, err
		}
	}
	if got := rig.store.Stats().Points; got != rig.points {
		o.fail(1, "store holds %d points, the collector ingested %d", got, rig.points)
	}

	image := rig.fleet.AnomalyImage()
	before := storeRows(rig.store, image, epochs)
	var st tsdb.CompactStats
	e.rec.do(parent, "tsdb.compact", func(int) {
		st, err = rig.store.Compact(tsdb.CompactOptions{CompactAfter: 1})
	})
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(before, storeRows(rig.store, image, epochs)) {
		o.fail(1, "query answers changed across the final compaction")
	}
	if len(before[0].([]tsdb.RangeRow)) != int(epochs) {
		o.fail(1, "range query over %d epochs returned %d rows", epochs, len(before[0].([]tsdb.RangeRow)))
	}
	return st.BytesAfter, nil
}

// verifyGroundTruth compares, at the first, middle and last epoch, the
// store's samples per (image, event) of one machine with the totals in
// that machine's profile database.
func verifyGroundTruth(store *tsdb.DB, m *fleet.Machine, epochs uint64, o *outcome) error {
	db, err := profiledb.OpenReader(m.DBDir)
	if err != nil {
		return fmt.Errorf("%s: %w", m.Name, err)
	}
	for _, ep := range []uint64{1, (epochs + 1) / 2, epochs} {
		profiles, err := db.ProfilesAt(int(ep))
		if err != nil {
			return fmt.Errorf("%s epoch %d: %w", m.Name, ep, err)
		}
		want := map[tsdb.Labels]uint64{}
		for _, p := range profiles {
			want[tsdb.Labels{Image: p.ImagePath, Event: p.Event}] += p.Total()
		}
		got := map[tsdb.Labels]uint64{}
		for _, pt := range store.Select(tsdb.Matcher{Machine: m.Name, AnyEvent: true, FromEpoch: ep, ToEpoch: ep}) {
			got[tsdb.Labels{Image: pt.Image, Event: pt.Event}] += pt.Samples
		}
		if !reflect.DeepEqual(got, want) {
			o.fail(1, "%s epoch %d: store samples differ from the machine's profile database", m.Name, ep)
		}
	}
	return nil
}

// ingestOnce sets one rig up, runs its rounds and verifies them.
func (e *env) ingestOnce(dir string, o *outcome, parent int) (ingestUnit, error) {
	t := time.Now()
	rig, err := e.ingestSetup(dir)
	if err != nil {
		return ingestUnit{}, err
	}
	defer os.RemoveAll(dir)
	defer rig.fleet.Close()
	setup := time.Since(t)
	u, err := e.ingestRounds(rig, o, parent)
	if err != nil {
		return u, err
	}
	u.setup = setup
	u.storeBytes, err = e.ingestVerify(rig, o, parent)
	return u, err
}

// runFleetIngest repeats whole units (a fresh fleet, its rounds, the
// check) until the measuring time is used. The rounds of a unit are a
// fixed count because the cost of a scrape grows with the epochs a target
// already holds: a loop that ran "as many rounds as fit" would measure a
// different store on a faster machine.
func runFleetIngest(e *env) (*outcome, error) {
	o := &outcome{}
	var m endToEnd
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || fits(start, last, e.seconds); n++ {
		t := time.Now()
		u, err := e.ingestOnce(filepath.Join(e.work, fmt.Sprintf("ingest-%d", n)), o, 0)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		m.setup = append(m.setup, u.setup.Seconds())
		m.unit(u.wall, u.cpu)
		m.lat = append(m.lat, u.fresh...)
		m.opTime += u.scrape
		m.ops += u.epochs
		m.bytesPerOp = float64(u.storeBytes) / float64(e.size.machines*e.size.rounds)
	}
	m.peakRSSMB = selfPeakRSSMB()
	m.report(o)
	return o, nil
}
