package collect

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcpi/internal/obs"
	"dcpi/internal/tsdb"
)

// hostileEpochs lists one sealed epoch; hostileProfile answers for any
// epoch. FuzzScrapePayload starts from the same payloads.
const hostileEpochs = `{"machine":"m","workload":"w","epochs":[{"epoch":1,"sealed":true}]}`

func hostileProfile(epoch int, sealed bool) string {
	return fmt.Sprintf(`{"machine":"m","workload":"w","epoch":%d,"sealed":%v,
			"profiles":[{"image":"/bin/app","event":"cycles","samples":9}]}`, epoch, sealed)
}

// A target is another machine and its answers are not trusted: a body that
// never ends, a payload for a different epoch than the one asked for
// (including a negative one, which used to land near epoch 2^64) and an
// unsealed payload must each fail the scrape and append nothing.
func TestScrapeRefusesHostilePayloads(t *testing.T) {
	endless := func(w http.ResponseWriter, r *http.Request) {
		chunk := strings.Repeat("x", 1<<16)
		fmt.Fprint(w, `{"machine":"`)
		for r.Context().Err() == nil {
			if _, err := fmt.Fprint(w, chunk); err != nil {
				return
			}
		}
	}
	serve := func(body string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, body) }
	}
	for name, tc := range map[string]struct {
		epochs, profiles http.HandlerFunc
		wantErr          string
	}{
		"endless epochs body":   {endless, serve(hostileProfile(1, true)), "exceeds"},
		"endless profiles body": {serve(hostileEpochs), endless, "exceeds"},
		"mismatched epoch":      {serve(hostileEpochs), serve(hostileProfile(2, true)), "answered with epoch 2"},
		"negative epoch":        {serve(hostileEpochs), serve(hostileProfile(-1, true)), "answered with epoch -1"},
		"unsealed payload":      {serve(hostileEpochs), serve(hostileProfile(1, false)), "sealed=false"},
	} {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/epochs", tc.epochs)
			mux.HandleFunc("/profiles", tc.profiles)
			srv := httptest.NewServer(mux)
			defer srv.Close()
			store := openStore(t)
			reg := obs.NewRegistry()
			c := New(Config{
				Targets: []Target{{Name: "m00", URL: srv.URL}},
				Timeout: 30 * time.Second, // the cap must end the read, not the clock
				Retries: -1,
				DB:      store,
				Obs:     obs.Hooks{Registry: reg},
			})
			sum := c.ScrapeOnce(context.Background())
			st := c.Statuses()[0]
			if sum.Failed != 1 || sum.EpochsIngested != 0 || st.Failures != 1 || st.LastEpoch != 0 ||
				!strings.Contains(st.LastError, tc.wantErr) {
				t.Errorf("round %+v, status %+v; want one failure mentioning %q", sum, st, tc.wantErr)
			}
			if got := reg.Snapshot().Counters["collect.scrape_failures"]; got != 1 {
				t.Errorf("collect.scrape_failures = %d, want 1", got)
			}
			if stats := store.Stats(); stats.Points != 0 || stats.Segments != 0 {
				t.Errorf("store holds %+v, want nothing appended", stats)
			}
		})
	}
}

// A negative epoch in the /epochs listing is skipped like any epoch the
// collector cannot ingest, not requested.
func TestScrapeSkipsNonPositiveEpochs(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/epochs", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"epochs":[{"epoch":-3,"sealed":true},{"epoch":0,"sealed":true}]}`)
	})
	mux.HandleFunc("/profiles", func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("collector requested %s", r.URL)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := New(Config{Targets: []Target{{Name: "m00", URL: srv.URL}}, Retries: -1, DB: openStore(t)})
	if sum := c.ScrapeOnce(context.Background()); sum.Failed != 0 || sum.EpochsIngested != 0 {
		t.Errorf("round %+v, want a clean empty scrape", sum)
	}
}

// An old dcpid ignores after and always lists every epoch it holds. The
// collector still asks from its high-water mark — across a restart on the
// reopened store, too — and its own filter keeps every epoch it already
// holds from being requested again.
func TestScrapeTargetIgnoringAfter(t *testing.T) {
	var (
		mu       sync.Mutex
		sealed   int // the target's epochs 1..sealed are sealed, sealed+1 is open
		listings []string
		fetched  []int
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/epochs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		listings = append(listings, r.URL.RawQuery)
		var list []string
		for e := 1; e <= sealed+1; e++ {
			list = append(list, fmt.Sprintf(`{"epoch":%d,"sealed":%v}`, e, e <= sealed))
		}
		fmt.Fprintf(w, `{"machine":"m","workload":"w","epochs":[%s]}`, strings.Join(list, ","))
	})
	mux.HandleFunc("/profiles", func(w http.ResponseWriter, r *http.Request) {
		var e int
		fmt.Sscanf(r.URL.Query().Get("epoch"), "%d", &e)
		mu.Lock()
		fetched = append(fetched, e)
		mu.Unlock()
		fmt.Fprint(w, hostileProfile(e, true))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := filepath.Join(t.TempDir(), "tsdb")
	store, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	collector := func(db *tsdb.DB) *Collector {
		return New(Config{Targets: []Target{{Name: "m00", URL: srv.URL}}, Retries: -1, DB: db})
	}
	c := collector(store)
	for round, seal := range []int{2, 3, 4} {
		mu.Lock()
		sealed = seal
		mu.Unlock()
		if sum := c.ScrapeOnce(context.Background()); sum.Failed != 0 {
			t.Fatalf("round %d: %+v %+v", round+1, sum, c.Statuses())
		}
	}
	reopened, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum := collector(reopened).ScrapeOnce(context.Background()); sum.Failed != 0 || sum.EpochsIngested != 0 {
		t.Errorf("restarted collector: %+v", sum)
	}

	if want := []string{"after=0", "after=2", "after=3", "after=4"}; !reflect.DeepEqual(listings, want) {
		t.Errorf("/epochs queries %q, want %q", listings, want)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(fetched, want) {
		t.Errorf("/profiles fetched epochs %v, want each of %v once", fetched, want)
	}
}
