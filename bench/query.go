package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dcpi/internal/collect"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// The four query classes, in the order their metrics are reported.
var queryClasses = []string{"recent", "full", "top", "delta"}

// queryImages are the images every generated machine reports.
var queryImages = []string{"/vmunix", "/usr/bin/app0", "/usr/bin/app1", "/usr/bin/app2", "/usr/lib/libc.so", "/usr/lib/libm.so"}

var queryEvents = []sim.Event{sim.EvCycles, sim.EvIMiss}

// query is one request of a pass.
type query struct {
	class string
	url   string // path and query string
	rows  int    // rows a correct answer holds
	// direct answers the same question by calling tsdb without HTTP.
	direct func(*tsdb.DB) int
}

// queryRig is the store of fleet-query behind the collector's HTTP API.
type queryRig struct {
	store    *tsdb.DB
	dir      string
	srv      *httptest.Server
	client   *http.Client
	maxEpoch uint64
	rec      atomic.Pointer[recorder] // nil pointer: an untraced pass
	parent   atomic.Int64             // span id of the request in flight
	first    map[string]uint32        // url -> checksum of its first answer
}

// buildQueryStore appends the store a long-running collector holds:
// qEpochs epochs of every machine compacted in blocks of qBlockEpochs,
// then qTail newer epochs still in raw segments, so that queries meet both
// scan modes. Every count derives from the seed.
func (e *env) buildQueryStore(dir string) (*tsdb.DB, error) {
	store, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	base := make([][]uint64, len(queryImages)) // [image][event] mean samples
	for i := range base {
		base[i] = []uint64{uint64(2000 + rng.Intn(60000)), uint64(50 + rng.Intn(2000))}
	}
	s := e.size
	for ep := 1; ep <= s.qEpochs+s.qTail; ep++ {
		for m := 0; m < s.qMachines; m++ {
			b := tsdb.Batch{
				Machine:  fmt.Sprintf("m%02d", m),
				Workload: []string{"timeshare", "x11perf"}[m%2],
				Epoch:    uint64(ep),
				Wall:     int64(40_000_000 + rng.Intn(4_000_000)),
				Period:   62000,
			}
			for i, image := range queryImages {
				for j, ev := range queryEvents {
					samples := base[i][j] * uint64(85+rng.Intn(30)) / 100
					rec := tsdb.Record{Image: image, Event: ev, Samples: samples}
					if ev == sim.EvCycles {
						rec.Insts = samples * uint64(30000+rng.Intn(20000))
					}
					b.Records = append(b.Records, rec)
				}
			}
			if err := store.Append(b); err != nil {
				return nil, err
			}
		}
		if ep <= s.qEpochs && ep%s.qBlockEpochs == 0 {
			if _, err := store.Compact(tsdb.CompactOptions{CompactAfter: 1}); err != nil {
				return nil, err
			}
		}
	}
	return store, nil
}

// querySetup builds the store and serves it.
func (e *env) querySetup() (*queryRig, error) {
	dir := filepath.Join(e.work, "querydb")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := e.buildQueryStore(dir)
	if err != nil {
		return nil, err
	}
	rig := &queryRig{store: store, dir: dir, maxEpoch: store.FleetMaxEpoch(), first: map[string]uint32{}}
	rig.rec.Store(e.rec)
	api := collect.APIHandler(store, nil, nil)
	rig.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The handler runs on the server's goroutine; the span it opens is
		// a child of the one client request in flight.
		rec := rig.rec.Load()
		id := rec.begin(int(rig.parent.Load()), "collect.handler")
		api.ServeHTTP(w, r)
		rec.end(id)
	}))
	rig.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return rig, nil
}

func (rig *queryRig) close() {
	rig.client.CloseIdleConnections()
	rig.srv.Close()
}

// passQueries generates one pass: the four classes in the counts of the
// size table, their images, events and windows drawn from rng, shuffled.
func (e *env) passQueries(rig *queryRig, rng *rand.Rand) []query {
	s, max := e.size, rig.maxEpoch
	var qs []query
	for i := 0; i < s.qRecent; i++ {
		image := queryImages[rng.Intn(len(queryImages))]
		from, to := collect.LastWindow(rig.store, s.recentWindow)
		qs = append(qs, query{
			class: "recent", rows: int(s.recentWindow),
			url:    fmt.Sprintf("/query/range?image=%s&last=%d", image, s.recentWindow),
			direct: func(db *tsdb.DB) int { return len(tsdb.RangeQuery(db, image, sim.EvCycles, from, to)) },
		})
	}
	for i := 0; i < s.qFull; i++ {
		image := queryImages[rng.Intn(len(queryImages))]
		qs = append(qs, query{
			class: "full", rows: int(max),
			url:    fmt.Sprintf("/query/range?image=%s&from=1&to=%d", image, max),
			direct: func(db *tsdb.DB) int { return len(tsdb.RangeQuery(db, image, sim.EvCycles, 1, max)) },
		})
	}
	for i := 0; i < s.qTop; i++ {
		ev := queryEvents[rng.Intn(len(queryEvents))]
		from, to := collect.LastWindow(rig.store, s.topWindow)
		qs = append(qs, query{
			class: "top", rows: len(queryImages),
			url:    fmt.Sprintf("/query/top?event=%s&last=%d", ev, s.topWindow),
			direct: func(db *tsdb.DB) int { return len(tsdb.TopImages(db, ev, from, to, 10)) },
		})
	}
	for i := 0; i < s.qDelta; i++ {
		half := max/2 - max/20 + uint64(rng.Intn(int(max/10)+1))
		qs = append(qs, query{
			class: "delta", rows: len(queryImages),
			url:    fmt.Sprintf("/query/delta?a=1-%d&b=%d-%d", half, half+1, max),
			direct: func(db *tsdb.DB) int { return len(tsdb.TopDeltas(db, sim.EvCycles, 1, half, half+1, max, 10)) },
		})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// rowKey is the JSON key that every row of a class's answer carries and
// nothing else in the answer does.
var rowKey = map[string][]byte{
	"recent": []byte(`"epoch":`), "full": []byte(`"epoch":`),
	"top": []byte(`"samples":`), "delta": []byte(`"delta_pct":`),
}

// passResult is what one pass measured.
type passResult struct {
	wall, cpu time.Duration
	lat       map[string][]float64 // class -> ms per query
	bytes     int64
	sums      map[string]uint32 // class -> checksum over its answers, in pass order
}

// queryPass sends the queries one after another over one connection. An
// answer fails when its status is not 200, its row count is wrong, or it
// differs from the first answer the same URL got.
func (rig *queryRig) queryPass(qs []query, o *outcome, parent int) (passResult, error) {
	res := passResult{lat: map[string][]float64{}, sums: map[string]uint32{}}
	rec := rig.rec.Load()
	root := rec.begin(parent, "bench.pass")
	cpu0, start := selfCPU(), time.Now()
	for _, q := range qs {
		o.attempted++
		id := rec.begin(root, "collect.api_"+q.class)
		rig.parent.Store(int64(id))
		t := time.Now()
		resp, err := rig.client.Get(rig.srv.URL + q.url)
		if err != nil {
			return res, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.lat[q.class] = append(res.lat[q.class], ms(time.Since(t)))
		rec.end(id)
		if err != nil {
			return res, err
		}
		res.bytes += int64(len(body))
		sum := crc32.ChecksumIEEE(body)
		res.sums[q.class] = crc32.Update(res.sums[q.class], crc32.IEEETable, body)
		first, seen := rig.first[q.url]
		if !seen {
			rig.first[q.url] = sum
		}
		switch rows := bytes.Count(body, rowKey[q.class]); {
		case resp.StatusCode != http.StatusOK:
			o.fail(1, "%s: HTTP %d", q.url, resp.StatusCode)
		case rows != q.rows:
			o.fail(1, "%s: %d rows, want %d", q.url, rows, q.rows)
		case seen && first != sum:
			o.fail(1, "%s: answer changed between two requests", q.url)
		}
	}
	res.wall, res.cpu = time.Since(start), selfCPU()-cpu0
	rec.end(root)
	return res, nil
}

// checkPinned compares the checksums of the first pass, whose query order
// the seed fixes, with the ones pinned for the default seed.
func (e *env) checkPinned(o *outcome, sums map[string]uint32) {
	if e.seed != 1 {
		return
	}
	for _, class := range queryClasses {
		o.attempted++
		if got, want := fmt.Sprintf("%08x", sums[class]), e.pinned.QueryChecksums[class]; got != want {
			o.fail(1, "%s answers have checksum %s, pinned %s", class, got, want)
		}
	}
}

// runFleetQuery builds the store once, then sends passes until the
// measuring time is used; every pass draws fresh queries.
func runFleetQuery(e *env) (*outcome, error) {
	o := &outcome{}
	// Three times over, so that setup_s is a median of several; the last
	// store is the one queried.
	var rig *queryRig
	var setup []float64
	for i := 0; i < 3; i++ {
		if rig != nil {
			rig.close()
		}
		t := time.Now()
		var err error
		if rig, err = e.querySetup(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer rig.close()

	rng := rand.New(rand.NewSource(int64(e.seed) + 1))
	m := endToEnd{setup: setup}
	var bytes int64
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || fits(start, last, e.seconds); n++ {
		qs := e.passQueries(rig, rng)
		res, err := rig.queryPass(qs, o, 0)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			e.checkPinned(o, res.sums)
		}
		last = res.wall
		m.unit(res.wall, res.cpu)
		for _, class := range queryClasses {
			m.lat = append(m.lat, res.lat[class]...)
		}
		m.opTime += res.wall
		m.ops += len(qs)
		bytes += res.bytes
	}
	m.peakRSSMB = selfPeakRSSMB()
	m.bytesPerOp = float64(bytes) / float64(m.ops)
	m.report(o)
	return o, nil
}
