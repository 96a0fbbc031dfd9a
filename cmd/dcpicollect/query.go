package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"

	"dcpi/internal/collect"
	"dcpi/internal/tsdb"
)

// queryMain answers fleet queries from a local store (-tsdb, opened
// read-only) or a running dcpicollect's API (-server). Output is
// deterministic text keyed by epochs, never wall-clock time; -json
// emits the API's JSON response instead, for scripting.
func queryMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "dcpicollect query: want a kind: range, top, or delta")
		return 2
	}
	kind := args[0]
	fs := flag.NewFlagSet("dcpicollect query "+kind, flag.ExitOnError)
	var (
		dbDir   = fs.String("tsdb", "", "query this store directory directly (read-only)")
		server  = fs.String("server", "", "query a running dcpicollect at this base URL")
		image   = fs.String("image", "", "image path (range, top -procs)")
		proc    = fs.String("proc", "", "narrow -image to one procedure (range)")
		procs   = fs.Bool("procs", false, "rank -image's procedures instead of images (top)")
		event   = fs.String("event", "cycles", "event type")
		from    = fs.Uint64("from", 0, "first epoch (inclusive; 0 = open)")
		to      = fs.Uint64("to", 0, "last epoch (inclusive; 0 = open)")
		last    = fs.Uint64("last", 0, "newest K epochs (overrides -from/-to)")
		n       = fs.Int("n", 10, "row limit (top, delta)")
		a       = fs.String("a", "", "before window F-T (delta)")
		b       = fs.String("b", "", "after window F-T (delta)")
		asJSON  = fs.Bool("json", false, "emit the JSON response instead of text")
		renderW = io.Writer(os.Stdout)
	)
	fs.Parse(args[1:])
	if (*dbDir == "") == (*server == "") {
		fmt.Fprintln(os.Stderr, "dcpicollect query: want exactly one of -tsdb or -server")
		return 2
	}

	src := source{w: renderW, dbDir: *dbDir, server: *server, asJSON: *asJSON}
	var err error
	switch kind {
	case "range":
		err = queryRange(src, *image, *proc, *event, *from, *to, *last)
	case "top":
		if *procs {
			err = queryTopProcs(src, *image, *event, *from, *to, *last, *n)
		} else {
			err = queryTop(src, *event, *from, *to, *last, *n)
		}
	case "delta":
		err = queryDelta(src, *event, *a, *b, *n)
	default:
		err = fmt.Errorf("unknown query kind %q (want range, top, or delta)", kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcpicollect query: %v\n", err)
		return 1
	}
	return 0
}

// getAPI fetches one API path from the server into v.
func getAPI(server, path string, v any) error {
	resp, err := http.Get(server + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// source says where a query's answer comes from and how it is printed.
type source struct {
	w      io.Writer
	dbDir  string // local store, opened read-only, when server is empty
	server string
	asJSON bool
}

// ask answers one query from its parameters — a GET of path on the server,
// or the function that path's handler is made of over the local store —
// and prints the response through render, or with -json as the API's bytes
// (collect.WriteAnswer).
func ask[T collect.Answer](s source, path string, q url.Values,
	answer func(*tsdb.DB, url.Values) (T, error), render func(io.Writer, T)) error {
	var resp T
	var err error
	if s.server != "" {
		err = getAPI(s.server, path+"?"+q.Encode(), &resp)
	} else {
		var db *tsdb.DB
		if db, err = tsdb.Open(s.dbDir, tsdb.Options{ReadOnly: true}); err == nil {
			resp, err = answer(db, q)
		}
	}
	if err != nil {
		return err
	}
	if s.asJSON {
		return collect.WriteAnswer(s.w, resp)
	}
	render(s.w, resp)
	return nil
}

// rangeParams turns CLI range flags into the API's query parameters.
func rangeParams(image, event string, from, to, last uint64) url.Values {
	q := url.Values{}
	if image != "" {
		q.Set("image", image)
	}
	q.Set("event", event)
	if last > 0 {
		q.Set("last", fmt.Sprint(last))
	} else {
		if from > 0 {
			q.Set("from", fmt.Sprint(from))
		}
		if to > 0 {
			q.Set("to", fmt.Sprint(to))
		}
	}
	return q
}

func queryRange(s source, image, proc, event string, from, to, last uint64) error {
	if image == "" {
		return fmt.Errorf("range: missing -image")
	}
	q := rangeParams(image, event, from, to, last)
	if proc != "" {
		q.Set("proc", proc)
	}
	return ask(s, "/query/range", q, collect.AnswerRange, renderRange)
}

func renderRange(w io.Writer, resp collect.RangeResponse) {
	what := resp.Image
	if resp.Proc != "" {
		what = resp.Image + ":" + resp.Proc
	}
	fmt.Fprintf(w, "%s %s, epochs %d-%d\n", what, resp.Event, resp.FromEpoch, resp.ToEpoch)
	fmt.Fprintf(w, "%7s %9s %12s %15s %15s %8s %7s\n",
		"epoch", "machines", "samples", "cycles", "insts", "cpi", "share%")
	for _, r := range resp.Rows {
		cpi := "-"
		if r.CPI > 0 {
			cpi = fmt.Sprintf("%.3f", r.CPI)
		}
		fmt.Fprintf(w, "%7d %9d %12d %15.0f %15d %8s %6.2f%%\n",
			r.Epoch, r.Machines, r.Samples, r.Cycles, r.Insts, cpi, r.SharePct)
	}
}

func queryTop(s source, event string, from, to, last uint64, n int) error {
	q := rangeParams("", event, from, to, last)
	q.Set("n", fmt.Sprint(n))
	return ask(s, "/query/top", q, collect.AnswerTop, renderTop)
}

func renderTop(w io.Writer, resp collect.TopResponse) {
	fmt.Fprintf(w, "top images by %s, epochs %d-%d\n", resp.Event, resp.FromEpoch, resp.ToEpoch)
	fmt.Fprintf(w, "%4s %15s %12s %7s  %s\n", "rank", "cycles", "samples", "share%", "image")
	for i, r := range resp.Rows {
		fmt.Fprintf(w, "%4d %15.0f %12d %6.2f%%  %s\n", i+1, r.Cycles, r.Samples, r.SharePct, r.Image)
	}
}

func queryTopProcs(s source, image, event string, from, to, last uint64, n int) error {
	if image == "" {
		return fmt.Errorf("top -procs: missing -image")
	}
	q := rangeParams(image, event, from, to, last)
	q.Set("n", fmt.Sprint(n))
	return ask(s, "/query/top", q, collect.AnswerTopProcs, renderTopProcs)
}

func renderTopProcs(w io.Writer, resp collect.TopProcsResponse) {
	fmt.Fprintf(w, "top procedures of %s by %s, epochs %d-%d\n",
		resp.Image, resp.Event, resp.FromEpoch, resp.ToEpoch)
	fmt.Fprintf(w, "%4s %15s %12s %7s  %s\n", "rank", "cycles", "samples", "share%", "procedure")
	for i, r := range resp.Rows {
		fmt.Fprintf(w, "%4d %15.0f %12d %6.2f%%  %s\n", i+1, r.Cycles, r.Samples, r.SharePct, r.Proc)
	}
}

func queryDelta(s source, event, a, b string, n int) error {
	if a == "" || b == "" {
		return fmt.Errorf("delta: want -a F-T and -b F-T")
	}
	q := url.Values{"event": {event}, "a": {a}, "b": {b}, "n": {fmt.Sprint(n)}}
	return ask(s, "/query/delta", q, collect.AnswerDelta, renderDelta)
}

func renderDelta(w io.Writer, resp collect.DeltaResponse) {
	fmt.Fprintf(w, "%s share deltas, epochs %d-%d vs %d-%d\n",
		resp.Event, resp.AFrom, resp.ATo, resp.BFrom, resp.BTo)
	fmt.Fprintf(w, "%8s %8s %8s  %s\n", "before%", "after%", "delta", "image")
	for _, r := range resp.Rows {
		fmt.Fprintf(w, "%7.2f%% %7.2f%% %+7.2f%%  %s\n", r.BeforePct, r.AfterPct, r.DeltaPct, r.Image)
	}
}
