package collect

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcpi/internal/fleet"
	"dcpi/internal/obs"
	"dcpi/internal/tsdb"
)

func openStore(t *testing.T) *tsdb.DB {
	t.Helper()
	db, err := tsdb.Open(filepath.Join(t.TempDir(), "tsdb"), tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func targetsOf(f *fleet.Fleet) []Target {
	var ts []Target
	for _, m := range f.Machines {
		ts = append(ts, Target{Name: m.Name, URL: m.URL})
	}
	return ts
}

func TestScrapeFleetExactlyOnce(t *testing.T) {
	f, err := fleet.Start(fleet.Options{
		Dir:          t.TempDir(),
		Machines:     3,
		Seed:         42,
		Scale:        0.05,
		FaultMachine: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AdvanceEpochs(3); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "tsdb")
	store, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := New(Config{
		Targets: targetsOf(f),
		Timeout: 5 * time.Second,
		Backoff: time.Millisecond,
		DB:      store,
		Obs:     obs.Hooks{Registry: reg},
	})

	sum := c.ScrapeOnce(context.Background())
	if sum.Failed != 0 {
		t.Fatalf("round 1 failures: %+v %+v", sum, c.Statuses())
	}
	if sum.EpochsIngested != 9 {
		t.Fatalf("round 1 ingested %d epochs, want 9 (3 machines x 3 epochs)", sum.EpochsIngested)
	}

	// Nothing new: exactly-once means a repeat scrape ingests zero.
	sum = c.ScrapeOnce(context.Background())
	if sum.EpochsIngested != 0 || sum.PointsIngested != 0 {
		t.Fatalf("repeat scrape re-ingested: %+v", sum)
	}

	// One more epoch per machine appears on the next round.
	if err := f.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	sum = c.ScrapeOnce(context.Background())
	if sum.EpochsIngested != 3 {
		t.Fatalf("incremental scrape ingested %d epochs, want 3", sum.EpochsIngested)
	}

	// Exactly-once must survive the process boundary: a brand-new
	// collector over a freshly reopened store (what a second
	// `dcpicollect -once` invocation is) resumes from the stored
	// high-water mark and re-ingests nothing.
	reopened, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{
		Targets: targetsOf(f),
		Timeout: 5 * time.Second,
		Backoff: time.Millisecond,
		DB:      reopened,
	})
	sum = fresh.ScrapeOnce(context.Background())
	if sum.EpochsIngested != 0 || sum.PointsIngested != 0 {
		t.Fatalf("restarted collector re-ingested: %+v", sum)
	}

	// The store holds every sealed epoch of every machine's database once,
	// with its samples and metadata.
	truth, err := f.Check(store, fleet.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Epochs != 12 {
		t.Errorf("checker read %d sealed machine-epochs, want 12", truth.Epochs)
	}

	snap := reg.Snapshot()
	if snap.Counters["collect.epochs_ingested"] != 12 {
		t.Errorf("epochs_ingested metric: %v", snap.Counters["collect.epochs_ingested"])
	}
	// Each round lists only what lies above the high-water mark, per
	// machine: 1-4, then 4, then 4-5. A full listing every round would be
	// 12 + 12 + 15.
	if got := snap.Counters["collect.epochs_listed"]; got != 12+3+6 {
		t.Errorf("epochs_listed metric: %d, want 21", got)
	}
	if snap.Counters["collect.scrape_failures"] != 0 {
		t.Errorf("unexpected failures: %v", snap.Counters)
	}
	if h, ok := snap.Histograms["collect.scrape_latency_ms"]; !ok || h.Count != 9 {
		t.Errorf("latency histogram: %+v", snap.Histograms)
	}
}

func TestScrapeFaultRetryAndCatchUp(t *testing.T) {
	// Machine 0's endpoint hard-fails its first 6 requests, then fails every
	// 3rd. With 2 retries a scrape makes 3 attempts on /epochs, so rounds 1
	// and 2 fail outright on requests 1-3 and 4-6. Round 3 lists on request
	// 7 and fetches epoch 1 on request 8; request 9 fails and its retry, 10,
	// fetches epoch 2. Five retries in all.
	f, err := fleet.Start(fleet.Options{
		Dir:          t.TempDir(),
		Machines:     2,
		Seed:         7,
		Scale:        0.05,
		FaultMachine: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AdvanceEpochs(2); err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	reg := obs.NewRegistry()
	c := New(Config{
		Targets: targetsOf(f),
		Timeout: 5 * time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
		DB:      store,
		Obs:     obs.Hooks{Registry: reg},
	})

	for round := 1; round <= 2; round++ {
		sum := c.ScrapeOnce(context.Background())
		if sum.Failed != 1 {
			t.Fatalf("round %d: want 1 failed target, got %+v %+v", round, sum, c.Statuses())
		}
		faulty := c.Statuses()[0]
		if faulty.Name != "m00" || faulty.Failures != uint64(round) || faulty.StaleRounds != round || faulty.LastError == "" {
			t.Errorf("round %d: faulty target status: %+v", round, faulty)
		}
		snap := reg.Snapshot()
		if snap.Counters["collect.scrape_failures"] != uint64(round) || snap.Counters["collect.http_retries"] != uint64(2*round) {
			t.Errorf("round %d: fault metrics: %+v", round, snap.Counters)
		}
		if snap.Gauges["collect.stale_targets"] != 1 || snap.Gauges["collect.max_stale_rounds"] != float64(round) {
			t.Errorf("round %d: staleness gauges: %+v", round, snap.Gauges)
		}
	}

	// The hard window is spent: one retry absorbs the every-3rd failure and
	// the collector catches up on both epochs it missed.
	if sum := c.ScrapeOnce(context.Background()); sum.Failed != 0 || sum.EpochsIngested != 2 {
		t.Fatalf("round 3: want m00's 2 epochs and no failure, got %+v %+v", sum, c.Statuses())
	}
	if !store.HasEpoch("m00", 1) || store.MaxEpoch("m00") != 2 {
		t.Errorf("m00 after catch-up: epoch 1 stored %v, max epoch %d", store.HasEpoch("m00", 1), store.MaxEpoch("m00"))
	}
	snap := reg.Snapshot()
	if snap.Counters["collect.http_retries"] != 5 || snap.Gauges["collect.stale_targets"] != 0 {
		t.Errorf("after recovery: retries %d, stale targets %v; want 5 and 0",
			snap.Counters["collect.http_retries"], snap.Gauges["collect.stale_targets"])
	}
}

func TestAPIHandler(t *testing.T) {
	f, err := fleet.Start(fleet.Options{
		Dir:      t.TempDir(),
		Machines: 2,
		// timeshare is multi-image, so share-delta queries have signal.
		Workloads:    []string{"timeshare"},
		Seed:         11,
		Scale:        0.05,
		FaultMachine: -1,
		AnomalyAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AdvanceEpochs(4); err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	reg := obs.NewRegistry()
	c := New(Config{
		Targets: targetsOf(f),
		Backoff: time.Millisecond,
		DB:      store,
		Obs:     obs.Hooks{Registry: reg},
	})
	if sum := c.ScrapeOnce(context.Background()); sum.Failed != 0 {
		t.Fatalf("scrape: %+v", sum)
	}

	srv := httptest.NewServer(APIHandler(store, c, reg))
	defer srv.Close()
	getJSON := func(path string, v any) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
		return resp
	}

	image := f.AnomalyImage()
	var rr RangeResponse
	getJSON("/query/range?image="+image+"&last=3", &rr)
	if rr.FromEpoch != 2 || rr.ToEpoch != 4 || len(rr.Rows) != 3 {
		t.Fatalf("range last=3: %+v", rr)
	}
	for _, row := range rr.Rows {
		if row.Machines != 2 || row.Samples == 0 || row.CPI <= 0 {
			t.Errorf("range row: %+v", row)
		}
	}
	// The anomaly (machine m01, epochs > 2) inflates samples but not
	// instructions, so the fleet CPI for the image must rise.
	if rr.Rows[2].CPI <= rr.Rows[0].CPI {
		t.Errorf("anomaly not visible in CPI: epoch2 %.4f vs epoch4 %.4f",
			rr.Rows[0].CPI, rr.Rows[2].CPI)
	}

	var tr TopResponse
	getJSON("/query/top?from=1&to=4&n=3", &tr)
	if len(tr.Rows) == 0 || tr.Rows[0].Cycles == 0 {
		t.Fatalf("top: %+v", tr)
	}

	var dr DeltaResponse
	getJSON("/query/delta?a=1-2&b=3-4", &dr)
	if len(dr.Rows) == 0 {
		t.Fatalf("delta: %+v", dr)
	}
	// The anomalous image must be the top mover, gaining share.
	if dr.Rows[0].Image != image || dr.Rows[0].DeltaPct <= 0 {
		t.Errorf("delta top row: %+v (want %s gaining)", dr.Rows[0], image)
	}

	var sts []TargetStatus
	getJSON("/targets", &sts)
	if len(sts) != 2 || sts[0].LastEpoch != 4 {
		t.Errorf("targets: %+v", sts)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "collect.scrapes") {
		t.Errorf("metrics body: %q", body[:n])
	}

	// Bad requests answer 400, not 500.
	for _, path := range []string{
		"/query/range", "/query/range?image=x&last=zero",
		"/query/delta?a=5-2&b=1-2", "/query/top?event=nosuch",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
