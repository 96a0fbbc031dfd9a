package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"dcpi/internal/expo"
	"dcpi/internal/tsdb"
)

// bodyTransport answers every request with the body registered for its
// path, so a scrape runs without sockets.
type bodyTransport map[string][]byte

func (bt bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(bt[req.URL.Path])),
		Request:    req,
	}, nil
}

// FuzzScrapePayload serves arbitrary bytes as a target's /epochs and
// /profiles bodies. Whatever they hold, the scrape must not panic, the
// store must hold exactly the points the round reports, every stored epoch
// must be >= 1 and listed as sealed, and a reopened store must read the
// same points back.
func FuzzScrapePayload(f *testing.F) {
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(1, true)))
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(2, true)))
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(-1, true)))
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(1, false)))
	f.Add([]byte(`{"epochs":[{"epoch":-3,"sealed":true},{"epoch":0,"sealed":true}]}`), []byte(hostileProfile(0, true)))
	f.Add([]byte(`{"machine":"`), []byte(hostileProfile(1, true)))

	f.Fuzz(func(t *testing.T, epochs, profiles []byte) {
		store, err := tsdb.Open(filepath.Join(t.TempDir(), "tsdb"), tsdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := New(Config{
			Targets: []Target{{Name: "m00", URL: "http://target"}},
			Retries: -1,
			DB:      store,
			Client:  &http.Client{Transport: bodyTransport{"/epochs": epochs, "/profiles": profiles}},
		})
		sum := c.ScrapeOnce(context.Background())

		listedSealed := map[uint64]bool{}
		var listing expo.EpochsPayload
		if json.NewDecoder(bytes.NewReader(epochs)).Decode(&listing) == nil {
			for _, e := range listing.Epochs {
				if e.Sealed && e.Epoch >= 1 {
					listedSealed[uint64(e.Epoch)] = true
				}
			}
		}
		all := tsdb.Matcher{AnyEvent: true, AnyProc: true}
		pts := store.Select(all)
		if n := store.Stats().Points; n != sum.PointsIngested || len(pts) != n {
			t.Fatalf("store holds %d points (%d selected), the round reports %d", n, len(pts), sum.PointsIngested)
		}
		for _, p := range pts {
			if !listedSealed[p.Epoch] {
				t.Fatalf("stored epoch %d was not listed as sealed", p.Epoch)
			}
		}
		reopened, err := tsdb.Open(store.Dir(), tsdb.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if again := reopened.Select(all); !reflect.DeepEqual(again, pts) {
			t.Fatalf("reopened store reads %d points, wrote %d:\n%+v\n%+v", len(again), len(pts), again, pts)
		}
	})
}
