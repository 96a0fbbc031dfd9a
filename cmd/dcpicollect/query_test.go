package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"dcpi/internal/collect"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// TestQueryLocalEqualsServer asks every query kind twice — of the store
// directory (-tsdb) and of an API server over the same store (-server) —
// and requires the same text and the same -json from both: the two modes
// are one answer path, reached by a function call or by a GET.
func TestQueryLocalEqualsServer(t *testing.T) {
	dir := t.TempDir()
	db, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 6; e++ {
		for m := uint64(0); m < 3; m++ {
			err := db.Append(tsdb.Batch{
				Machine: fmt.Sprintf("m%02d", m), Workload: "x11perf",
				Epoch: e, Wall: 2_000_000, Period: 62000,
				Records: []tsdb.Record{
					{Image: "/usr/bin/X", Event: sim.EvCycles, Samples: 60 + 7*e + m, Insts: 9000 + e},
					{Image: "/usr/bin/X", Proc: "ffbFill", Event: sim.EvCycles, Samples: 40 + e*m},
					{Image: "/usr/bin/X", Proc: "miClip", Event: sim.EvCycles, Samples: 20 + m},
					{Image: "/kernel", Event: sim.EvCycles, Samples: 9 + e*e},
					{Image: "/usr/bin/X", Event: sim.EvIMiss, Samples: 3 + e},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Blocks below a raw tail, as a running collector's store has.
	if _, err := db.Compact(tsdb.CompactOptions{CompactAfter: 1}); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		err := db.Append(tsdb.Batch{
			Machine: fmt.Sprintf("m%02d", m), Workload: "x11perf", Epoch: 7, Wall: 2_000_000, Period: 62000,
			Records: []tsdb.Record{{Image: "/usr/bin/X", Event: sim.EvCycles, Samples: 77, Insts: 9100}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(collect.APIHandler(db, nil, nil))
	defer srv.Close()

	queries := []struct {
		name string
		ask  func(source) error
	}{
		{"range", func(s source) error { return queryRange(s, "/usr/bin/X", "", "cycles", 2, 7, 0) }},
		{"range -last", func(s source) error { return queryRange(s, "/usr/bin/X", "", "imiss", 0, 0, 3) }},
		{"range -proc", func(s source) error { return queryRange(s, "/usr/bin/X", "ffbFill", "cycles", 1, 0, 0) }},
		{"top", func(s source) error { return queryTop(s, "cycles", 1, 7, 0, 10) }},
		{"top -procs", func(s source) error { return queryTopProcs(s, "/usr/bin/X", "cycles", 0, 0, 4, 1) }},
		{"delta", func(s source) error { return queryDelta(s, "cycles", "1-3", "4-7", 10) }},
	}
	for _, q := range queries {
		for _, asJSON := range []bool{false, true} {
			var local, remote bytes.Buffer
			if err := q.ask(source{w: &local, dbDir: dir, asJSON: asJSON}); err != nil {
				t.Errorf("%s json=%v -tsdb: %v", q.name, asJSON, err)
				continue
			}
			if err := q.ask(source{w: &remote, server: srv.URL, asJSON: asJSON}); err != nil {
				t.Errorf("%s json=%v -server: %v", q.name, asJSON, err)
				continue
			}
			if local.Len() == 0 || !bytes.Equal(local.Bytes(), remote.Bytes()) {
				t.Errorf("%s json=%v: -tsdb and -server disagree:\n-tsdb:\n%s-server:\n%s",
					q.name, asJSON, local.String(), remote.String())
			}
		}
	}

	// A parameter the API refuses is refused locally too, not answered.
	for _, s := range []source{{w: &bytes.Buffer{}, dbDir: dir}, {w: &bytes.Buffer{}, server: srv.URL}} {
		if err := queryDelta(s, "cycles", "3-1", "4-7", 10); err == nil {
			t.Errorf("delta over the inverted window 3-1 answered (server=%q)", s.server)
		}
		if err := queryRange(s, "/usr/bin/X", "", "cycles", 5, 2, 0); err == nil {
			t.Errorf("range over the inverted window 5-2 answered (server=%q)", s.server)
		}
		if err := queryTop(s, "cycles", 5, 2, 0, 10); err == nil {
			t.Errorf("top over the inverted window 5-2 answered (server=%q)", s.server)
		}
		if err := queryTop(s, "no-such-event", 1, 7, 0, 10); err == nil {
			t.Errorf("top of an unknown event answered (server=%q)", s.server)
		}
	}
}

// TestQueryNonFiniteAnswerFails asks for an answer holding +Inf cycles (a
// stored period of 1e308). JSON has no such number: -tsdb -json fails
// before printing, and -server fails with or without -json, because the
// server answers 500.
func TestQueryNonFiniteAnswerFails(t *testing.T) {
	dir := t.TempDir()
	db, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(tsdb.Batch{Machine: "m00", Epoch: 1, Period: 1e308,
		Records: []tsdb.Record{{Image: "/kernel", Event: sim.EvCycles, Samples: 2}}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(collect.APIHandler(db, nil, nil))
	defer srv.Close()
	for _, s := range []source{{dbDir: dir, asJSON: true}, {server: srv.URL, asJSON: true}, {server: srv.URL}} {
		var out bytes.Buffer
		s.w = &out
		if err := queryRange(s, "/kernel", "", "cycles", 0, 0, 0); err == nil || out.Len() != 0 {
			t.Errorf("server=%q json=%v: error %v, printed %q; want an error and nothing printed", s.server, s.asJSON, err, out.String())
		}
	}
}
