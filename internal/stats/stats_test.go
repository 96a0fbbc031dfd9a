package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Errorf("mean = %v", m)
	}
	if s := StdDev(xs); !approx(s, 2.138, 0.001) {
		t.Errorf("stddev = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/single-element cases")
	}
}

func TestCI95(t *testing.T) {
	// n=10, sd=1 -> CI = 2.262/sqrt(10).
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	sd := StdDev(xs)
	want := 2.262 * sd / math.Sqrt(10)
	if ci := CI95(xs); !approx(ci, want, 1e-9) {
		t.Errorf("CI95 = %v, want %v", ci, want)
	}
	if CI95([]float64{5}) != 0 {
		t.Error("single sample CI should be 0")
	}
}

func TestT95(t *testing.T) {
	if !approx(T95(1), 12.706, 1e-9) || !approx(T95(9), 2.262, 1e-9) {
		t.Error("t table wrong")
	}
	if !approx(T95(100), 1.96, 1e-9) {
		t.Error("large df should use normal approximation")
	}
	if !math.IsNaN(T95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Correlation(xs, ys); !approx(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Correlation(xs, neg); !approx(r, -1, 1e-12) {
		t.Errorf("negative correlation = %v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r := Correlation(xs, flat); r != 0 {
		t.Errorf("flat correlation = %v", r)
	}
	if Correlation(xs, xs[:3]) != 0 {
		t.Error("mismatched lengths should return 0")
	}
}

// Property: correlation is symmetric and within [-1, 1].
func TestCorrelationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r1 := Correlation(xs, ys)
		r2 := Correlation(ys, xs)
		return approx(r1, r2, 1e-9) && r1 >= -1.0000001 && r1 <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	// The Figure 8 geometry: ±45% range in 5% buckets.
	h := NewHistogram(-0.45, 0.45, 0.05)
	if len(h.Buckets) != 18 {
		t.Fatalf("buckets = %d", len(h.Buckets))
	}
	h.Add(0.01, 10)  // in (0, 5%]
	h.Add(-0.03, 20) // in [-5%, 0)
	h.Add(2.0, 5)    // clamps into the top bucket
	h.Add(-2.0, 5)   // clamps into the bottom bucket
	if h.Total != 40 {
		t.Errorf("total = %v", h.Total)
	}
	if h.Buckets[0] != 5 || h.Buckets[17] != 5 {
		t.Errorf("edge buckets = %v, %v", h.Buckets[0], h.Buckets[17])
	}
	if h.Buckets[8] != 20 || h.Buckets[9] != 10 {
		t.Errorf("buckets either side of 0 = %v, %v", h.Buckets[8], h.Buckets[9])
	}
	lo, hi := h.BucketLabel(9)
	if !approx(lo, 0, 1e-12) || !approx(hi, 0.05, 1e-12) {
		t.Errorf("bucket 9 = [%v, %v)", lo, hi)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry should panic")
		}
	}()
	NewHistogram(1, 0, 0.1)
}
