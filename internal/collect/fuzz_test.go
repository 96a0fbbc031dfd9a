package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"dcpi/internal/expo"
	"dcpi/internal/tsdb"
)

// bodyTransport answers every request with the body registered for its
// path, so a scrape runs without sockets.
type bodyTransport map[string][]byte

func (bt bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(bt[req.URL.Path])),
		Request:    req,
	}, nil
}

// FuzzScrapePayload serves arbitrary bytes as a target's /epochs and
// /profiles bodies. Whatever they hold, the scrape must not panic, the
// store must hold exactly the points the round reports, every stored epoch
// must be >= 1 and listed as sealed, and a reopened store must read the
// same points back.
func FuzzScrapePayload(f *testing.F) {
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(1, true)))
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(2, true)))
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(-1, true)))
	f.Add([]byte(hostileEpochs), []byte(hostileProfile(1, false)))
	f.Add([]byte(`{"epochs":[{"epoch":-3,"sealed":true},{"epoch":0,"sealed":true}]}`), []byte(hostileProfile(0, true)))
	f.Add([]byte(`{"machine":"`), []byte(hostileProfile(1, true)))

	f.Fuzz(func(t *testing.T, epochs, profiles []byte) {
		dir := filepath.Join(t.TempDir(), "tsdb")
		store, err := tsdb.Open(dir, tsdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := New(Config{
			Targets: []Target{{Name: "m00", URL: "http://target"}},
			Retries: -1,
			DB:      store,
			Client:  &http.Client{Transport: bodyTransport{"/epochs": epochs, "/profiles": profiles}},
		})
		sum := c.ScrapeOnce(context.Background())

		listedSealed := map[uint64]bool{}
		var listing expo.EpochsPayload
		if json.NewDecoder(bytes.NewReader(epochs)).Decode(&listing) == nil {
			for _, e := range listing.Epochs {
				if e.Sealed && e.Epoch >= 1 {
					listedSealed[uint64(e.Epoch)] = true
				}
			}
		}
		all := tsdb.Matcher{AnyEvent: true, AnyProc: true}
		pts := store.Select(all)
		if n := store.Stats().Points; n != sum.PointsIngested || len(pts) != n {
			t.Fatalf("store holds %d points (%d selected), the round reports %d", n, len(pts), sum.PointsIngested)
		}
		for _, p := range pts {
			if !listedSealed[p.Epoch] {
				t.Fatalf("stored epoch %d was not listed as sealed", p.Epoch)
			}
		}
		reopened, err := tsdb.Open(dir, tsdb.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if again := reopened.Select(all); !reflect.DeepEqual(again, pts) {
			t.Fatalf("reopened store reads %d points, wrote %d:\n%+v\n%+v", len(again), len(pts), again, pts)
		}
	})
}

// FuzzAnswerJSON builds one answer of each kind from fuzzed strings,
// floats, integers and a row count (negative: nil rows) and requires
// WriteAnswer's bytes to equal what encoding/json's indenting Encoder
// writes for the same value, tags and all. Where the reference fails on a
// NaN or an infinity, WriteAnswer must fail too and write nothing.
func FuzzAnswerJSON(f *testing.F) {
	f.Add("/usr/bin/wave5", "", 1.5, 0.25, 100.0, uint64(1), uint64(650), int8(3))
	f.Add("", "", math.Copysign(0, -1), 5e-324, 1e-7, uint64(0), uint64(0), int8(3))
	f.Add("<>&", "main", 9.99e20, 1e21, math.MaxFloat64, uint64(math.MaxUint64), uint64(1)<<63, int8(3))
	f.Add("a\u2028b\u2029", "\xff\xfe", -1e-6, 1e-6, -1e21, uint64(7), uint64(math.MaxUint64), int8(2))
	f.Add("\x00\t\n\x1f\"\\\x7f", "operator<", 123456789.125, -0.000001, 1e100, uint64(3), uint64(5), int8(5))
	f.Add("/kernel", "(unknown)", math.Inf(1), 1.0, 2.0, uint64(1), uint64(2), int8(1))
	f.Add("/kernel", "", 1.0, math.NaN(), 2.0, uint64(1), uint64(2), int8(2))
	f.Add("/kernel", "", 1.0, 2.0, 3.0, uint64(1), uint64(2), int8(0))  // empty rows
	f.Add("/kernel", "", 1.0, 2.0, 3.0, uint64(1), uint64(2), int8(-1)) // nil rows
	f.Fuzz(func(t *testing.T, name, proc string, f1, f2, f3 float64, u1, u2 uint64, n int8) {
		var rr []tsdb.RangeRow
		var tr []tsdb.TopRow
		var pr []tsdb.ProcRow
		var dr []DeltaRow
		if n >= 0 {
			rr, tr, pr, dr = []tsdb.RangeRow{}, []tsdb.TopRow{}, []tsdb.ProcRow{}, []DeltaRow{}
		}
		for i := 0; i < int(n)%16; i++ {
			u := u1 + uint64(i)*u2
			rr = append(rr, tsdb.RangeRow{Epoch: u, Machines: int(u2) - i, Samples: u2, Cycles: f1, Insts: u1, CPI: f2, SharePct: f3})
			tr = append(tr, tsdb.TopRow{Image: name, Samples: u, Cycles: f2, SharePct: f3})
			pr = append(pr, tsdb.ProcRow{Proc: proc, Samples: u, Cycles: f3, SharePct: f1})
			dr = append(dr, DeltaRow{Image: proc + name, BeforePct: f3, AfterPct: f1, DeltaPct: f2})
			f1, f2, f3 = f2, f3, f1
		}
		for _, a := range []Answer{
			RangeResponse{Image: name, Proc: proc, Event: "cycles", FromEpoch: u1, ToEpoch: u2, Rows: rr},
			TopResponse{Event: proc, FromEpoch: u2, ToEpoch: u1, Rows: tr},
			TopProcsResponse{Image: name, Event: "imiss", FromEpoch: u1, ToEpoch: u1, Rows: pr},
			DeltaResponse{Event: name, AFrom: u1, ATo: u2, BFrom: u2, BTo: u1, Rows: dr},
		} {
			var want, got bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			wantErr := enc.Encode(a)
			err := WriteAnswer(&got, a)
			switch {
			case wantErr != nil:
				if !errors.Is(err, errNonFinite) || got.Len() != 0 {
					t.Fatalf("%T: encoding/json fails (%v); WriteAnswer returned %v and wrote %q", a, wantErr, err, got.Bytes())
				}
			case err != nil:
				t.Fatalf("%T: WriteAnswer: %v; encoding/json wrote\n%s", a, err, want.Bytes())
			case !bytes.Equal(got.Bytes(), want.Bytes()):
				t.Fatalf("%T: WriteAnswer wrote\n%s\nencoding/json wrote\n%s", a, got.Bytes(), want.Bytes())
			}
		}
	})
}

// FuzzQueryParams sends fuzzed image, proc, event, from, to, last, n, a
// and b parameters through each Answer function over apiStore. Every call
// must return an error or an answer whose epoch window is well formed and
// whose rows lie inside it in their contract's order, and no call may
// panic. Hostile bounds reach the scan, whose part count and row buffers
// they size, so a window of 2^64 epochs must cost what its points cost.
func FuzzQueryParams(f *testing.F) {
	f.Add("/kernel", "", "", "1", "18446744073709551615", "", "", "", "")
	f.Add("/usr/bin/gcc", "main", "imiss", "9", "3", "", "", "", "")
	f.Add("/lib/libc.so", "", "", "", "", "18446744073709551615", "", "", "")
	f.Add("", "", "", "", "", "", "", "0-0", "1-30")
	f.Add("", "", "cycles", "", "", "", "9223372036854775807", "1-18446744073709551615", "18446744073709551615-18446744073709551615")
	f.Add("/usr/bin/wave5", "(unknown)", "", "18446744073709551615", "", "", "0", "5-6", "7-7")
	db := apiStore(f)
	f.Fuzz(func(t *testing.T, image, proc, event, from, to, last, n, a, b string) {
		q := url.Values{}
		for _, kv := range [][2]string{{"image", image}, {"proc", proc}, {"event", event}, {"from", from},
			{"to", to}, {"last", last}, {"n", n}, {"a", a}, {"b", b}} {
			if kv[1] != "" {
				q.Set(kv[0], kv[1])
			}
		}
		limit, _ := strconv.Atoi(n)
		window := func(what string, lo, hi uint64) {
			if hi != 0 && lo > hi {
				t.Fatalf("%s %v: window [%d, %d] ends before it starts", what, q, lo, hi)
			}
		}
		inside := func(what string, e, lo, hi uint64) {
			if e < max(lo, 1) || (hi != 0 && e > hi) {
				t.Fatalf("%s %v: row at epoch %d outside [%d, %d]", what, q, e, lo, hi)
			}
		}
		written := func(what string, a Answer) {
			if err := WriteAnswer(io.Discard, a); err != nil && !errors.Is(err, errNonFinite) {
				t.Fatalf("%s %v: %v", what, q, err)
			}
		}
		ranked := func(what string, i int, cycles, prev float64, name, prevName string) {
			if i > 0 && (cycles > prev || (cycles == prev && name <= prevName)) {
				t.Fatalf("%s %v: row %d (%q, %v) ranks after (%q, %v)", what, q, i, name, cycles, prevName, prev)
			}
		}
		if r, err := AnswerRange(db, q); err == nil {
			window("range", r.FromEpoch, r.ToEpoch)
			for i, row := range r.Rows {
				inside("range", row.Epoch, r.FromEpoch, r.ToEpoch)
				if i > 0 && row.Epoch <= r.Rows[i-1].Epoch {
					t.Fatalf("range %v: epoch %d follows epoch %d", q, row.Epoch, r.Rows[i-1].Epoch)
				}
				if row.Machines < 1 {
					t.Fatalf("range %v: epoch %d counts %d machines", q, row.Epoch, row.Machines)
				}
			}
			written("range", r)
		}
		if r, err := AnswerTop(db, q); err == nil {
			window("top", r.FromEpoch, r.ToEpoch)
			for i, row := range r.Rows {
				if i > 0 {
					ranked("top", i, row.Cycles, r.Rows[i-1].Cycles, row.Image, r.Rows[i-1].Image)
				}
			}
			if limit > 0 && len(r.Rows) > limit {
				t.Fatalf("top %v: %d rows, n is %d", q, len(r.Rows), limit)
			}
			written("top", r)
		}
		if r, err := AnswerTopProcs(db, q); err == nil {
			window("top procs", r.FromEpoch, r.ToEpoch)
			for i, row := range r.Rows {
				if i > 0 {
					ranked("top procs", i, row.Cycles, r.Rows[i-1].Cycles, row.Proc, r.Rows[i-1].Proc)
				}
			}
			written("top procs", r)
		}
		if r, err := AnswerDelta(db, q); err == nil {
			window("delta a", r.AFrom, r.ATo)
			window("delta b", r.BFrom, r.BTo)
			for i, row := range r.Rows {
				if i > 0 {
					d, prev := math.Abs(row.DeltaPct), math.Abs(r.Rows[i-1].DeltaPct)
					ranked("delta", i, d, prev, row.Image, r.Rows[i-1].Image)
				}
			}
			written("delta", r)
		}
	})
}
