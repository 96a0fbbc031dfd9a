package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: who caused it (parent), what it was
// (name is "layer.call"), and when. IDs start at 1; parent 0 means a root.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. It is the
// benchmark's own: internal/obs is code under measurement. A nil recorder
// records nothing, so the untraced and the traced run share one code path.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id; end closes it.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do runs fn inside a span and returns how long fn took.
func (r *recorder) do(parent int, name string, fn func(id int)) time.Duration {
	id := r.begin(parent, name)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	r.end(id)
	return d
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (parallel scrapes), so the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range ks {
			from, to := k.Start, k.End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName sums self times over every span with the same name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// durations returns the duration of every span called name, in ms.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome-trace JSON (complete "X"
// events, microsecond timestamps), loadable at ui.perfetto.dev. Spans are
// laid out on lanes so that a lane never holds two overlapping spans that
// are not nested; the layer (the name up to the dot) is the category.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type open struct {
		id  int
		end time.Duration
	}
	var lanes [][]open // per lane: the stack of spans open at this point
	lane := map[int]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		for l := range lanes {
			for n := len(lanes[l]); n > 0 && lanes[l][n-1].end <= s.Start; n-- {
				lanes[l] = lanes[l][:n-1]
			}
		}
		tid := -1
		if l, ok := lane[s.Parent]; ok {
			if n := len(lanes[l]); n > 0 && lanes[l][n-1].id == s.Parent {
				tid = l // nests directly under its parent
			}
		}
		for l := 0; tid < 0 && l < len(lanes); l++ {
			if len(lanes[l]) == 0 {
				tid = l
			}
		}
		if tid < 0 {
			lanes = append(lanes, nil)
			tid = len(lanes) - 1
		}
		lanes[tid] = append(lanes[tid], open{s.ID, s.End})
		lane[s.ID] = tid
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: tid + 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
