package collect

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcpi/internal/obs"
)

// A target is another machine and its answers are not trusted: a body that
// never ends, a payload for a different epoch than the one asked for
// (including a negative one, which used to land near epoch 2^64) and an
// unsealed payload must each fail the scrape and append nothing.
func TestScrapeRefusesHostilePayloads(t *testing.T) {
	const epochs = `{"machine":"m","workload":"w","epochs":[{"epoch":1,"sealed":true}]}`
	profile := func(epoch int, sealed bool) string {
		return fmt.Sprintf(`{"machine":"m","workload":"w","epoch":%d,"sealed":%v,
			"profiles":[{"image":"/bin/app","event":"cycles","samples":9}]}`, epoch, sealed)
	}
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
		"endless epochs body":   {endless, serve(profile(1, true)), "exceeds"},
		"endless profiles body": {serve(epochs), endless, "exceeds"},
		"mismatched epoch":      {serve(epochs), serve(profile(2, true)), "answered with epoch 2"},
		"negative epoch":        {serve(epochs), serve(profile(-1, true)), "answered with epoch -1"},
		"unsealed payload":      {serve(epochs), serve(profile(1, false)), "sealed=false"},
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
