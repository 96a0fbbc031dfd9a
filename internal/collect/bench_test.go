package collect

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcpi/internal/expo"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// BenchmarkScrapeIngest measures one full scrape: fetch a target's epoch
// list, pull every sealed epoch's profile payload over HTTP, and append
// each as a store segment. Per op: 8 epochs x 8 images from one target.
func BenchmarkScrapeIngest(b *testing.B) {
	const epochs, images = 8, 8
	dir := b.TempDir()
	db, err := profiledb.Open(filepath.Join(dir, "machine"))
	if err != nil {
		b.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		for i := 0; i < images; i++ {
			p := profiledb.NewProfile(filepath.Join("/usr/bin", "app")+string(rune('a'+i)), sim.EvCycles)
			for off := uint64(0); off < 64; off += 4 {
				p.Add(off, uint64(e+i)+off)
			}
			if err := db.Update(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.WriteMeta(profiledb.Meta{Workload: "bench", CyclesPeriod: 62000, WallCycles: int64(e) << 20}); err != nil {
			b.Fatal(err)
		}
		if e < epochs {
			if err := db.NewEpoch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(expo.Handler(&expo.Source{
		Machine: "m00", Workload: "bench", DBDir: filepath.Join(dir, "machine"),
	}))
	defer srv.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		storeDir, err := os.MkdirTemp(dir, "store")
		if err != nil {
			b.Fatal(err)
		}
		store, err := tsdb.Open(storeDir, tsdb.Options{})
		if err != nil {
			b.Fatal(err)
		}
		c := New(Config{
			Targets: []Target{{Name: "m00", URL: srv.URL}},
			Timeout: 10 * time.Second,
			Backoff: time.Millisecond,
			DB:      store,
		})
		b.StartTimer()
		sum := c.ScrapeOnce(context.Background())
		if sum.Failed != 0 || sum.EpochsIngested != epochs {
			b.Fatalf("scrape: %+v", sum)
		}
		b.StopTimer()
		os.RemoveAll(storeDir)
		b.StartTimer()
	}
	b.ReportMetric(float64(epochs), "epochs/op")
	b.ReportMetric(float64(epochs*images), "points/op")
}

// BenchmarkAPIAnswers serves the four query classes of the fleet-query
// benchmark through APIHandler into a recorder, over a store of its shape:
// 16 machines, 600 epochs compacted in blocks of 100 below a 50-epoch raw
// tail, six images on two events. A full-range answer is 650 rows.
func BenchmarkAPIAnswers(b *testing.B) {
	const machines, blockEpochs, epochs, tail = 16, 100, 600, 50
	store, err := tsdb.Open(b.TempDir(), tsdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	images := []string{"/vmunix", "/usr/bin/app0", "/usr/bin/app1", "/usr/bin/app2", "/usr/lib/libc.so", "/usr/lib/libm.so"}
	rng := rand.New(rand.NewSource(1))
	for e := 1; e <= epochs+tail; e++ {
		for m := 0; m < machines; m++ {
			batch := tsdb.Batch{Machine: fmt.Sprintf("m%02d", m), Workload: "timeshare", Epoch: uint64(e),
				Wall: int64(40_000_000 + rng.Intn(4_000_000)), Period: 62000}
			for _, img := range images {
				samples := uint64(2000 + rng.Intn(60000))
				batch.Records = append(batch.Records,
					tsdb.Record{Image: img, Event: sim.EvCycles, Samples: samples, Insts: samples * uint64(30000+rng.Intn(20000))},
					tsdb.Record{Image: img, Event: sim.EvIMiss, Samples: uint64(50 + rng.Intn(2000))})
			}
			if err := store.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
		if e <= epochs && e%blockEpochs == 0 {
			if _, err := store.Compact(tsdb.CompactOptions{CompactAfter: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	api := APIHandler(store, nil, nil)
	for _, bc := range []struct{ name, url string }{
		{"range_full", fmt.Sprintf("/query/range?image=/usr/bin/app1&from=1&to=%d", epochs+tail)},
		{"range_last25", "/query/range?image=/usr/bin/app1&last=25"},
		{"top", "/query/top?event=imiss&last=100"},
		{"delta", fmt.Sprintf("/query/delta?a=1-%d&b=%d-%d", (epochs+tail)/2, (epochs+tail)/2+1, epochs+tail)},
	} {
		req := httptest.NewRequest("GET", bc.url, nil)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("%s: %d %s", bc.url, rec.Code, rec.Body)
				}
			}
		})
	}
}
