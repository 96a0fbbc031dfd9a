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
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
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

// groundTruthSamples reads a machine's profile database directly and sums
// one image's samples for an event at an epoch.
func groundTruthSamples(t *testing.T, dbDir, image string, ev sim.Event, epoch int) uint64 {
	t.Helper()
	db, err := profiledb.OpenReader(dbDir)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := db.ProfilesAt(epoch)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, p := range profiles {
		if p.ImagePath == image && p.Event == ev {
			total += p.Total()
		}
	}
	return total
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

	store := openStore(t)
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
	reopened, err := tsdb.Open(store.Dir(), tsdb.Options{})
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

	// Every scraped point matches the per-machine database ground truth.
	for _, m := range f.Machines {
		for epoch := 1; epoch <= 4; epoch++ {
			pts := store.Select(tsdb.Matcher{
				Machine: m.Name, Event: sim.EvCycles,
				FromEpoch: uint64(epoch), ToEpoch: uint64(epoch),
			})
			if len(pts) == 0 {
				t.Fatalf("%s epoch %d: no points in store", m.Name, epoch)
			}
			for _, pt := range pts {
				want := groundTruthSamples(t, m.DBDir, pt.Image, sim.EvCycles, epoch)
				if pt.Samples != want {
					t.Errorf("%s epoch %d %s: store %d, ground truth %d",
						m.Name, epoch, pt.Image, pt.Samples, want)
				}
			}
		}
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
	f, err := fleet.Start(fleet.Options{
		Dir:      t.TempDir(),
		Machines: 2,
		Seed:     7,
		Scale:    0.05,
		// Machine 0's endpoint hard-fails its first 4 requests — more than
		// round 1's attempts (1 try + 2 retries on /epochs) — then fails
		// every 3rd request, which retries absorb.
		FaultMachine:   0,
		FaultHardFails: 4,
		FaultEvery:     3,
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

	sum := c.ScrapeOnce(context.Background())
	if sum.Failed != 1 {
		t.Fatalf("round 1: want 1 failed target, got %+v %+v", sum, c.Statuses())
	}
	var faulty TargetStatus
	for _, st := range c.Statuses() {
		if st.Name == "m00" {
			faulty = st
		}
	}
	if faulty.Failures != 1 || faulty.StaleRounds != 1 || faulty.LastError == "" {
		t.Errorf("faulty target status: %+v", faulty)
	}
	snap := reg.Snapshot()
	if snap.Counters["collect.scrape_failures"] != 1 || snap.Counters["collect.http_retries"] == 0 {
		t.Errorf("fault metrics: %+v", snap.Counters)
	}
	if snap.Gauges["collect.stale_targets"] != 1 || snap.Gauges["collect.max_stale_rounds"] != 1 {
		t.Errorf("staleness gauges: %+v", snap.Gauges)
	}

	// The fault injector's hard window is exhausted; retries absorb the
	// residual every-3rd failures and the collector catches up on every
	// epoch it missed.
	for round := 0; round < 5 && store.MaxEpoch("m00") < 2; round++ {
		c.ScrapeOnce(context.Background())
	}
	if got := store.MaxEpoch("m00"); got != 2 {
		t.Fatalf("faulty target never caught up: max epoch %d, want 2", got)
	}
	if !store.HasEpoch("m00", 1) {
		t.Error("missed epoch 1 during catch-up")
	}
	snap = reg.Snapshot()
	if snap.Gauges["collect.stale_targets"] != 0 {
		t.Errorf("stale gauge after recovery: %v", snap.Gauges["collect.stale_targets"])
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
