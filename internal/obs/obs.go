// Package obs is the self-observability layer of the reproduction: a
// stdlib-only, race-safe metrics registry (counters, gauges, fixed-bucket
// histograms with quantile estimates) plus a buffered structured event
// tracer that emits Chrome-trace-format JSON (trace.go).
//
// The paper spends all of §4 measuring DCPI itself — interrupt-handler
// cycles, hash-table miss and eviction rates, daemon cycles per sample,
// memory footprint (Tables 3-5). This package turns those one-off numbers
// into machine-readable artifacts: the collection stack (driver, daemon,
// profile database) and the evaluation engine (runner, eval) accept an
// optional Hooks value and publish their self-measurements through it.
//
// Everything is nil-safe by design: a nil *Registry hands out nil metrics,
// and every method on a nil metric is a no-op. Instrumented code therefore
// carries no conditionals beyond the nil receiver check the method itself
// performs, and a run with observability disabled behaves — and outputs —
// exactly as before.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// Hooks bundles the optional registry and tracer handed to a component.
// The zero value disables observability entirely.
type Hooks struct {
	Registry *Registry
	Tracer   *Tracer
}

// Enabled reports whether any observability sink is attached.
func (h Hooks) Enabled() bool { return h.Registry != nil || h.Tracer != nil }

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; the nil *Registry is valid and inert.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. On a nil registry it returns nil (whose methods no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (an implicit +Inf overflow
// bucket is always appended). Later calls with the same name return the
// existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets and tracks count,
// sum, min, and max, from which quantiles are estimated by linear
// interpolation within the covering bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds; the overflow bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    atomicMin
	max    atomicMax
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.min.init()
	h.max.init()
	return h
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.observe(v)
	h.max.observe(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.load()
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.load()
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// within the bucket containing the target rank. The overflow bucket is
// interpolated up to the observed maximum, and results are clamped to the
// observed [min, max] (so a single-sample histogram returns that sample for
// every q). An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	lo, mn, mx := 0.0, h.min.load(), h.max.load()
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		hi := mx
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		if cum+n >= rank && n > 0 {
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			v := lo + frac*(hi-lo)
			return math.Max(mn, math.Min(mx, v))
		}
		cum += n
		lo = hi
	}
	return mx
}

// atomicFloat is a CAS-loop float64 accumulator.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// atomicMin / atomicMax track extremes with CAS loops.
type atomicMin struct{ bits atomic.Uint64 }

func (m *atomicMin) init() { m.bits.Store(math.Float64bits(math.Inf(1))) }

func (m *atomicMin) observe(v float64) {
	for {
		old := m.bits.Load()
		if v >= math.Float64frombits(old) || m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMin) load() float64 { return math.Float64frombits(m.bits.Load()) }

type atomicMax struct{ bits atomic.Uint64 }

func (m *atomicMax) init() { m.bits.Store(math.Float64bits(math.Inf(-1))) }

func (m *atomicMax) observe(v float64) {
	for {
		old := m.bits.Load()
		if v <= math.Float64frombits(old) || m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMax) load() float64 { return math.Float64frombits(m.bits.Load()) }

// BucketCount is one histogram bucket in a snapshot: the count of
// observations with value <= Le (non-cumulative; the overflow bucket has
// Le = +Inf, serialized as the JSON string "+Inf").
type BucketCount struct {
	Le    float64 `json:"-"`
	Count uint64  `json:"count"`
}

// MarshalJSON emits {"le": bound-or-"+Inf", "count": n}.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	type bc struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	le := any(b.Le)
	if math.IsInf(b.Le, 1) {
		le = "+Inf"
	}
	return json.Marshal(bc{Le: le, Count: b.Count})
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	s.Buckets = make([]BucketCount, len(h.counts))
	for i := range h.counts {
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{Le: le, Count: h.counts[i].Load()}
	}
	return s
}

// Snapshot is a point-in-time view of a whole registry. encoding/json
// sorts map keys, so the serialized form is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric currently registered.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes an indented, deterministic JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the JSON snapshot to path.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
