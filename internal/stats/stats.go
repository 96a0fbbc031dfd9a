// Package stats provides the small statistical toolkit the evaluation
// harness needs: means, sample standard deviations, 95% confidence
// intervals, Pearson correlation, and histogram bucketing.
package stats

import (
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// tTable95 holds two-sided 95% Student-t critical values for df = 1..30;
// beyond 30 the normal approximation 1.96 is used.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// T95 returns the two-sided 95% t critical value for the given degrees of
// freedom.
func T95(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	return 1.96
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return T95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// Correlation returns the Pearson correlation coefficient of the paired
// samples (0 when undefined).
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram buckets weighted observations into fixed-width bins over
// [lo, hi); out-of-range values clamp into the end bins, matching the
// "<-45%" / ">45%" edge buckets of the paper's Figures 8 and 9.
type Histogram struct {
	Lo, Hi  float64
	Width   float64
	Buckets []float64 // weight per bucket
	Total   float64
}

// NewHistogram builds a histogram with the given bin width.
func NewHistogram(lo, hi, width float64) *Histogram {
	if width <= 0 || hi <= lo {
		panic("stats: bad histogram geometry")
	}
	n := int(math.Ceil((hi - lo) / width))
	return &Histogram{Lo: lo, Hi: hi, Width: width, Buckets: make([]float64, n)}
}

// Add records an observation with the given weight.
func (h *Histogram) Add(x, weight float64) {
	i := int(math.Floor((x - h.Lo) / h.Width))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i] += weight
	h.Total += weight
}

// BucketLabel returns a human-readable range label for bucket i.
func (h *Histogram) BucketLabel(i int) (lo, hi float64) {
	lo = h.Lo + float64(i)*h.Width
	return lo, lo + h.Width
}
