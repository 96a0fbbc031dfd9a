package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestNilSafety: every operation on a nil registry/metric must be a no-op,
// since instrumented code calls them unguarded when observability is off.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter Value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Errorf("nil gauge Value = %g", g.Value())
	}
	h := r.Histogram("z", []float64{0, 1, 2, 3})
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("nil histogram Count=%d q50=%g", h.Count(), h.Quantile(0.5))
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot: %+v", s)
	}
	var hooks Hooks
	if hooks.Enabled() {
		t.Error("zero Hooks reports Enabled")
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from many
// goroutines and checks the totals are exact and the gauge holds a value one
// of them set; tier-1 runs it plain, the
// race detector sees it in scripts/ci.sh (go test -race ./...).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10_000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same names from every goroutine: registration must be
			// concurrency-safe too, not just updates.
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", ExpBuckets(1, 2, 10))
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.Set(float64(w))
				h.Observe(float64(i % 700))
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got < 0 || got >= workers || got != float64(int(got)) {
		t.Errorf("gauge = %g, want the last worker's index", got)
	}
	h := r.Histogram("h", nil)
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var want float64
	for i := 0; i < perWorker; i++ {
		want += float64(i % 700)
	}
	if got := h.Sum(); got != want*workers {
		t.Errorf("histogram sum = %g, want %g", got, want*workers)
	}
	if h.Min() != 0 || h.Max() != 699 {
		t.Errorf("min/max = %g/%g, want 0/699", h.Min(), h.Max())
	}
}

// TestHistogramQuantileEdgeCases covers the ISSUE's named cases: empty,
// single sample, and observations landing in the overflow bucket.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := []float64{10, 20, 40}

	t.Run("empty", func(t *testing.T) {
		h := newHistogram(bounds)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
			}
		}
		if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
			t.Errorf("empty mean/min/max = %g/%g/%g", h.Mean(), h.Min(), h.Max())
		}
	})

	t.Run("single-sample", func(t *testing.T) {
		h := newHistogram(bounds)
		h.Observe(17)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got := h.Quantile(q); got != 17 {
				t.Errorf("single Quantile(%g) = %g, want 17 (clamped to min=max)", q, got)
			}
		}
	})

	t.Run("overflow-bucket", func(t *testing.T) {
		h := newHistogram(bounds)
		// All observations beyond the last bound: quantiles interpolate
		// between the last bound and the observed max, never +Inf.
		for _, v := range []float64{50, 60, 80, 100} {
			h.Observe(v)
		}
		for _, q := range []float64{0.5, 0.99, 1} {
			got := h.Quantile(q)
			if math.IsInf(got, 0) || got < 50 || got > 100 {
				t.Errorf("overflow Quantile(%g) = %g, want within [50,100]", q, got)
			}
		}
		if got := h.Quantile(1); got != 100 {
			t.Errorf("overflow Quantile(1) = %g, want 100", got)
		}
	})

	t.Run("clamped-to-range", func(t *testing.T) {
		h := newHistogram(bounds)
		h.Observe(12)
		h.Observe(13)
		h.Observe(14)
		for _, q := range []float64{-1, 0, 0.5, 1, 2} {
			got := h.Quantile(q)
			if got < 12 || got > 14 {
				t.Errorf("Quantile(%g) = %g, outside observed [12,14]", q, got)
			}
		}
	})

	t.Run("median-between-buckets", func(t *testing.T) {
		h := newHistogram(bounds)
		// 50 in (0,10], 50 in (20,40]: the median must fall at the split.
		for i := 0; i < 50; i++ {
			h.Observe(5)
			h.Observe(30)
		}
		if got := h.Quantile(0.5); got < 5 || got > 30 {
			t.Errorf("Quantile(0.5) = %g, want within [5,30]", got)
		}
		if got := h.Quantile(0.9); got < 20 || got > 40 {
			t.Errorf("Quantile(0.9) = %g, want in the upper bucket [20,40]", got)
		}
	})
}

func TestHistogramBucketCounts(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCounts := []uint64{2, 1, 1, 1} // le=1: {0.5, 1}; le=2: {1.5}; le=4: {3}; +Inf: {100}
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(s.Buckets[3].Le, 1) {
		t.Errorf("last bucket Le = %g, want +Inf", s.Buckets[3].Le)
	}
}

// TestSnapshotJSON checks that the serialized snapshot is valid JSON with
// the expected sections and an "+Inf" overflow bound (JSON has no Inf).
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("driver.samples").Add(42)
	r.Gauge("driver.miss_rate").Set(0.125)
	r.Histogram("driver.handler_cycles", []float64{100, 200, 300}).Observe(250)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round struct {
		Counters   map[string]uint64  `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   uint64  `json:"count"`
			P50     float64 `json:"p50"`
			Buckets []struct {
				Le    any    `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if round.Counters["driver.samples"] != 42 {
		t.Errorf("counter roundtrip = %d", round.Counters["driver.samples"])
	}
	if round.Gauges["driver.miss_rate"] != 0.125 {
		t.Errorf("gauge roundtrip = %g", round.Gauges["driver.miss_rate"])
	}
	h := round.Histograms["driver.handler_cycles"]
	if h.Count != 1 || h.P50 != 250 {
		t.Errorf("histogram roundtrip count=%d p50=%g", h.Count, h.P50)
	}
	last := h.Buckets[len(h.Buckets)-1]
	if last.Le != "+Inf" {
		t.Errorf(`overflow bound = %v, want "+Inf"`, last.Le)
	}
}

func TestExpBuckets(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Errorf("ExpBuckets[%d] = %g, want %g", i, exp[i], want[i])
		}
	}
}
