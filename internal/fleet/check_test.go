package fleet

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dcpi/internal/collect"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// scraped seals k epochs on a fresh fleet and scrapes them, with procedure
// breakdowns, into a new store.
func scraped(t *testing.T, k int) (*Fleet, *tsdb.DB) {
	t.Helper()
	f := startFleet(t, 2)
	if err := f.AdvanceEpochs(k); err != nil {
		t.Fatal(err)
	}
	return f, scrape(t, f, k)
}

// scrape ingests every sealed epoch of f, k per machine, into a new store.
func scrape(t *testing.T, f *Fleet, k int) *tsdb.DB {
	t.Helper()
	store := newStore(t)
	cfg := collect.Config{Timeout: 5 * time.Second, Backoff: time.Millisecond, DB: store, Procs: true}
	for _, m := range f.Machines {
		cfg.Targets = append(cfg.Targets, collect.Target{Name: m.Name, URL: m.URL})
	}
	if sum := collect.New(cfg).ScrapeOnce(context.Background()); sum.Failed != 0 || sum.EpochsIngested != len(f.Machines)*k {
		t.Fatalf("scrape: %+v", sum)
	}
	return store
}

func newStore(t *testing.T) *tsdb.DB {
	t.Helper()
	store, err := tsdb.Open(filepath.Join(t.TempDir(), "tsdb"), tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// batches regroups a store's points into one batch per (machine, epoch): the
// batches the collector appended, ordered by epoch, then machine.
func batches(store *tsdb.DB) []tsdb.Batch {
	var out []tsdb.Batch
	for _, p := range store.Select(tsdb.Matcher{AnyEvent: true, AnyProc: true}) {
		if n := len(out); n == 0 || out[n-1].Machine != p.Machine || out[n-1].Epoch != p.Epoch {
			out = append(out, tsdb.Batch{Machine: p.Machine, Workload: p.Workload, Epoch: p.Epoch, Wall: p.Wall, Period: p.Period})
		}
		b := &out[len(out)-1]
		b.Records = append(b.Records, tsdb.Record{Image: p.Image, Proc: p.Proc, Event: p.Event, Samples: p.Samples, Insts: p.Insts})
	}
	return out
}

// TestCheckNamesEachCorruption scrapes a small fleet, finds the store clean,
// then rebuilds it from its own batches with one corruption at a time and
// requires the checker to name the rule each one breaks.
func TestCheckNamesEachCorruption(t *testing.T) {
	const k = 3
	f, good := scraped(t, k)
	image := f.AnomalyImage()
	truth, err := f.Check(good, Query{Image: image, RangeFrom: 2, RangeTo: k, AFrom: 1, ATo: 1, BFrom: 2, BTo: k})
	if err != nil {
		t.Fatalf("clean store: %v", err)
	}
	if truth.Epochs != len(f.Machines)*k {
		t.Errorf("checker read %d sealed machine-epochs, want %d", truth.Epochs, len(f.Machines)*k)
	}
	if err := truth.MatchRange(tsdb.RangeQuery(good, image, sim.EvCycles, 2, k)); err != nil || len(truth.Range) != k-1 {
		t.Errorf("range over epochs 2-%d: %d rows, %v", k, len(truth.Range), err)
	}
	if got := tsdb.TopDeltas(good, sim.EvCycles, 1, 1, 2, k, 0); len(got) == 0 || !reflect.DeepEqual(got, truth.Delta) {
		t.Errorf("delta 1-1 vs 2-%d: store %+v, ground truth %+v", k, got, truth.Delta)
	}

	clean := batches(good)
	// The corruptions edit the second batch: its first procedure row, and
	// the image row that row breaks down.
	recs := clean[1].Records
	proc := slices.IndexFunc(recs, func(r tsdb.Record) bool { return r.Proc != "" })
	if proc < 0 {
		t.Fatal("the scrape stored no procedure rows")
	}
	img := slices.IndexFunc(recs, func(r tsdb.Record) bool {
		return r.Proc == "" && r.Image == recs[proc].Image && r.Event == recs[proc].Event
	})
	for _, tc := range []struct {
		name, rule string
		corrupt    func(bs []tsdb.Batch) []tsdb.Batch
	}{
		{"re-appended batch", "once", func(bs []tsdb.Batch) []tsdb.Batch { return append(bs, bs[1]) }},
		{"missing epoch", "present", func(bs []tsdb.Batch) []tsdb.Batch { return slices.Delete(bs, 1, 2) }},
		{"epoch no database sealed", "present", func(bs []tsdb.Batch) []tsdb.Batch {
			extra := bs[0]
			extra.Epoch = k + 1
			return append(bs, extra)
		}},
		{"altered sample count", "samples", func(bs []tsdb.Batch) []tsdb.Batch {
			// The image row and one of its procedure rows move together, so
			// the procedures still sum: only the .prof total disagrees.
			bs[1].Records[img].Samples++
			bs[1].Records[proc].Samples++
			return bs
		}},
		{"procedure row that no longer sums", "procedures", func(bs []tsdb.Batch) []tsdb.Batch {
			bs[1].Records[proc].Samples++
			return bs
		}},
		{"wrong insts", "metadata", func(bs []tsdb.Batch) []tsdb.Batch {
			bs[1].Records[img].Insts++
			return bs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := make([]tsdb.Batch, len(clean))
			for i, b := range clean {
				b.Records = slices.Clone(b.Records)
				bs[i] = b
			}
			store := newStore(t)
			for _, b := range tc.corrupt(bs) {
				if err := store.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			_, err := f.Check(store, Query{})
			if err == nil || !strings.Contains(err.Error(), ": "+tc.rule+": ") {
				t.Errorf("checker said %v, want a %q violation", err, tc.rule)
			}
		})
	}
}
