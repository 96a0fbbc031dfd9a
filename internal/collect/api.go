package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"dcpi/internal/analysis"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// APIHandler serves the collector's query surface over db:
//
//	/query/range?image=PATH[&proc=NAME][&event=cycles][&from=A&to=B | &last=K]
//	/query/top[?image=PATH][&event=cycles][&from=A&to=B][&n=N]
//	                    (with image=: that image's procedures instead of images)
//	/query/delta?a=F-T&b=F-T[&event=cycles][&n=N]
//	/targets            per-target scrape status (when a collector is attached)
//	/metrics            the collector's own obs registry, flat text
//
// Epoch windows are inclusive; last=K means the K newest epochs fleet-wide.
// Each /query path is one of the Answer functions below behind handle, so
// the query CLI's -tsdb mode calls exactly what its -server mode reaches.
func APIHandler(db *tsdb.DB, c *Collector, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query/range", handle(db, AnswerRange))
	topImages, topProcs := handle(db, AnswerTop), handle(db, AnswerTopProcs)
	mux.HandleFunc("/query/top", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("image") != "" {
			topProcs(w, r)
		} else {
			topImages(w, r)
		}
	})
	mux.HandleFunc("/query/delta", handle(db, AnswerDelta))
	mux.HandleFunc("/targets", func(w http.ResponseWriter, r *http.Request) {
		if c == nil {
			http.Error(w, "no collector attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Statuses())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteFlat(w)
	})
	return mux
}

// handle serves one Answer function: a parameter error is a 400, an
// answer is written as JSON by WriteAnswer, and an answer JSON cannot
// carry is a 500 naming the field.
func handle[T Answer](db *tsdb.DB, answer func(*tsdb.DB, url.Values) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp, err := answer(db, r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteAnswer(w, resp); errors.Is(err, errNonFinite) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// RangeResponse is the /query/range reply.
type RangeResponse struct {
	Image     string          `json:"image"`
	Proc      string          `json:"proc,omitempty"`
	Event     string          `json:"event"`
	FromEpoch uint64          `json:"from_epoch"`
	ToEpoch   uint64          `json:"to_epoch"`
	Rows      []tsdb.RangeRow `json:"rows"`
}

// AnswerRange answers /query/range from its query parameters.
func AnswerRange(db *tsdb.DB, q url.Values) (RangeResponse, error) {
	image, proc := q.Get("image"), q.Get("proc")
	if image == "" {
		return RangeResponse{}, errors.New("missing image parameter")
	}
	ev, from, to, err := parseCommon(q, db)
	if err != nil {
		return RangeResponse{}, err
	}
	return RangeResponse{
		Image: image, Proc: proc, Event: ev.String(), FromEpoch: from, ToEpoch: to,
		Rows: tsdb.RangeQueryProc(db, image, proc, ev, from, to),
	}, nil
}

// TopResponse is the /query/top reply.
type TopResponse struct {
	Event     string        `json:"event"`
	FromEpoch uint64        `json:"from_epoch"`
	ToEpoch   uint64        `json:"to_epoch"`
	Rows      []tsdb.TopRow `json:"rows"`
}

// AnswerTop answers /query/top without image=: the hottest images.
func AnswerTop(db *tsdb.DB, q url.Values) (TopResponse, error) {
	ev, from, to, n, err := parseTop(q, db)
	if err != nil {
		return TopResponse{}, err
	}
	return TopResponse{
		Event: ev.String(), FromEpoch: from, ToEpoch: to,
		Rows: tsdb.TopImages(db, ev, from, to, n),
	}, nil
}

// TopProcsResponse is the /query/top reply when image= narrows the
// ranking to one image's procedures.
type TopProcsResponse struct {
	Image     string         `json:"image"`
	Event     string         `json:"event"`
	FromEpoch uint64         `json:"from_epoch"`
	ToEpoch   uint64         `json:"to_epoch"`
	Rows      []tsdb.ProcRow `json:"rows"`
}

// AnswerTopProcs answers /query/top with image=: that image's hottest
// procedures.
func AnswerTopProcs(db *tsdb.DB, q url.Values) (TopProcsResponse, error) {
	ev, from, to, n, err := parseTop(q, db)
	if err != nil {
		return TopProcsResponse{}, err
	}
	image := q.Get("image")
	return TopProcsResponse{
		Image: image, Event: ev.String(), FromEpoch: from, ToEpoch: to,
		Rows: tsdb.TopProcs(db, image, ev, from, to, n),
	}, nil
}

// DeltaRow mirrors analysis.DeltaRow with JSON tags and the computed
// delta, so API consumers need no arithmetic.
type DeltaRow struct {
	Image     string  `json:"image"`
	BeforePct float64 `json:"before_pct"`
	AfterPct  float64 `json:"after_pct"`
	DeltaPct  float64 `json:"delta_pct"`
}

// ToDeltaRows converts analysis share-delta rows to the API's JSON form.
func ToDeltaRows(rows []analysis.DeltaRow) []DeltaRow {
	out := make([]DeltaRow, len(rows))
	for i, r := range rows {
		out[i] = DeltaRow{Image: r.Name, BeforePct: r.BeforePct, AfterPct: r.AfterPct, DeltaPct: r.Delta()}
	}
	return out
}

// DeltaResponse is the /query/delta reply.
type DeltaResponse struct {
	Event string     `json:"event"`
	AFrom uint64     `json:"a_from"`
	ATo   uint64     `json:"a_to"`
	BFrom uint64     `json:"b_from"`
	BTo   uint64     `json:"b_to"`
	Rows  []DeltaRow `json:"rows"`
}

// AnswerDelta answers /query/delta from its query parameters.
func AnswerDelta(db *tsdb.DB, q url.Values) (DeltaResponse, error) {
	ev, err := parseEvent(q.Get("event"))
	if err != nil {
		return DeltaResponse{}, err
	}
	aFrom, aTo, err := parseWindow(q.Get("a"))
	if err != nil {
		return DeltaResponse{}, fmt.Errorf("window a: %v", err)
	}
	bFrom, bTo, err := parseWindow(q.Get("b"))
	if err != nil {
		return DeltaResponse{}, fmt.Errorf("window b: %v", err)
	}
	n, err := parseN(q.Get("n"), 10)
	if err != nil {
		return DeltaResponse{}, err
	}
	return DeltaResponse{
		Event: ev.String(), AFrom: aFrom, ATo: aTo, BFrom: bFrom, BTo: bTo,
		Rows: ToDeltaRows(tsdb.TopDeltas(db, ev, aFrom, aTo, bFrom, bTo, n)),
	}, nil
}

func parseEvent(s string) (sim.Event, error) {
	if s == "" {
		return sim.EvCycles, nil
	}
	return sim.ParseEvent(s)
}

func parseN(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad n %q", s)
	}
	return n, nil
}

func parseEpoch(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad epoch %q", s)
	}
	return n, nil
}

// parseCommon resolves the (event, from, to) triple shared by range and
// top queries. last=K wins over from/to, selecting the K newest epochs
// present anywhere in the store. A window whose from is after its given
// to is refused, as parseWindow refuses it for delta.
func parseCommon(q url.Values, db *tsdb.DB) (sim.Event, uint64, uint64, error) {
	ev, err := parseEvent(q.Get("event"))
	if err != nil {
		return 0, 0, 0, err
	}
	if lastS := q.Get("last"); lastS != "" {
		k, err := strconv.ParseUint(lastS, 10, 64)
		if err != nil || k == 0 {
			return 0, 0, 0, fmt.Errorf("bad last %q", lastS)
		}
		from, to := LastWindow(db, k)
		return ev, from, to, nil
	}
	from, err := parseEpoch(q.Get("from"), 0)
	if err != nil {
		return 0, 0, 0, err
	}
	to, err := parseEpoch(q.Get("to"), 0)
	if err != nil {
		return 0, 0, 0, err
	}
	if to != 0 && from > to {
		return 0, 0, 0, fmt.Errorf("bad window: from %d is after to %d", from, to)
	}
	return ev, from, to, nil
}

// parseTop is parseCommon plus the row limit both rankings take.
func parseTop(q url.Values, db *tsdb.DB) (ev sim.Event, from, to uint64, n int, err error) {
	if ev, from, to, err = parseCommon(q, db); err == nil {
		n, err = parseN(q.Get("n"), 10)
	}
	return ev, from, to, n, err
}

// LastWindow resolves last=K to the inclusive window covering the K
// newest epochs present anywhere in the store.
func LastWindow(db *tsdb.DB, k uint64) (from, to uint64) {
	max := db.FleetMaxEpoch()
	from = 1
	if max > k {
		from = max - k + 1
	}
	return from, max
}

// parseWindow parses an inclusive epoch window "F-T" (e.g. "1-100").
func parseWindow(s string) (uint64, uint64, error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want FROM-TO, got %q", s)
	}
	from, err := strconv.ParseUint(a, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad from %q", a)
	}
	to, err := strconv.ParseUint(b, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad to %q", b)
	}
	if from == 0 || to < from {
		return 0, 0, fmt.Errorf("bad window %q", s)
	}
	return from, to, nil
}
