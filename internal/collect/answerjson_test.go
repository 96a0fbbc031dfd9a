package collect

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// apiImages are the images apiStore's machines report. The last one's
// name is not plain ASCII and holds HTML-sensitive bytes, so its answers
// take the escaping path of the string writer.
var apiImages = []string{"/usr/bin/wave5", "/usr/bin/gcc", "/kernel", "/lib/libc.so", "/usr/local/app/é<&>"}

// apiStore builds the seeded store TestAPIAnswersGolden queries: four
// machines over 30 epochs with image- and procedure-level rows on two
// events. m01 runs two workloads at once, m03 starts late and skips epochs,
// (m02, 6) and (m00, 25) are re-scraped with other samples, and m04 samples
// once every seven epochs at a period so large that its cycles print in
// exponent form and every other image's share of those epochs drops below
// 1e-6. Compactions after epochs 8, 16 and 24 leave three blocks per early
// machine below a six-epoch raw tail.
func apiStore(t testing.TB) *tsdb.DB {
	t.Helper()
	db, err := tsdb.Open(filepath.Join(t.TempDir(), "tsdb"), tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	type meta struct {
		wall   int64
		period float64
	}
	metas := map[string]meta{}
	batch := func(machine, workload string, e uint64, period float64, images []string) tsdb.Batch {
		key := fmt.Sprint(machine, e)
		m, ok := metas[key]
		if !ok {
			m = meta{1_000_000 + rng.Int63n(1_000_000), period + float64(rng.Intn(4000))/7}
			metas[key] = m
		}
		b := tsdb.Batch{Machine: machine, Workload: workload, Epoch: e, Wall: m.wall, Period: m.period}
		for _, img := range images {
			b.Records = append(b.Records,
				tsdb.Record{Image: img, Event: sim.EvCycles, Samples: 1 + uint64(rng.Intn(900)), Insts: uint64(rng.Intn(3)) * uint64(rng.Intn(50000))},
				tsdb.Record{Image: img, Event: sim.EvIMiss, Samples: uint64(rng.Intn(40))})
			for _, proc := range []string{"main", "operator<", "(unknown)"}[:rng.Intn(4)] {
				b.Records = append(b.Records, tsdb.Record{Image: img, Proc: proc, Event: sim.EvCycles, Samples: uint64(rng.Intn(300))})
			}
		}
		return b
	}
	add := func(b tsdb.Batch) {
		if err := db.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	for e := uint64(1); e <= 30; e++ {
		add(batch("m00", "wave5", e, 60000, apiImages[2:]))
		add(batch("m01", "wave5", e, 60000, []string{"/usr/bin/wave5", "/kernel", "/lib/libc.so"}))
		add(batch("m01", "gcc", e, 60000, []string{"/usr/bin/gcc", "/kernel", "/lib/libc.so"}))
		add(batch("m02", "gcc", e, 60000, []string{"/usr/bin/gcc", "/kernel"}))
		if e >= 5 && e%3 != 0 {
			add(batch("m03", "wave5", e, 60000, []string{"/usr/bin/wave5", "/lib/libc.so", apiImages[4]}))
		}
		if e%7 == 0 {
			add(batch("m04", "big", e, 3e18, []string{"/kernel"}))
		}
		switch e {
		case 10:
			add(batch("m02", "gcc", 6, 60000, []string{"/usr/bin/gcc", "/kernel"}))
		case 27:
			add(batch("m00", "wave5", 25, 60000, apiImages[2:]))
		case 8, 16, 24:
			if _, err := db.Compact(tsdb.CompactOptions{CompactAfter: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := db.Stats(); st.Blocks < 3*4 || st.Segments == 0 {
		t.Fatalf("store shape %+v, want three blocks per machine and a raw tail", st)
	}
	return db
}

// apiURLs are the requests TestAPIAnswersGolden sends: range with and
// without proc, bounded, open-ended and last=K, on a missing image and on
// a name that needs escaping; both rankings; and share deltas, one of
// them over epochs nobody reported.
func apiURLs() []string {
	q := func(path string, kv ...string) string {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Set(kv[i], kv[i+1])
		}
		return path + "?" + v.Encode()
	}
	var urls []string
	for _, img := range append(apiImages, "/missing") {
		urls = append(urls,
			q("/query/range", "image", img),
			q("/query/range", "image", img, "from", "3", "to", "27"),
			q("/query/range", "image", img, "last", "5", "event", "imiss"),
			q("/query/range", "image", img, "proc", "main"),
			q("/query/range", "image", img, "proc", "operator<", "from", "20"),
			q("/query/top", "image", img),
			q("/query/top", "image", img, "from", "7", "to", "14", "n", "2"))
	}
	return append(urls,
		q("/query/top"),
		q("/query/top", "from", "5", "to", "21", "n", "3"),
		q("/query/top", "event", "imiss", "last", "4"),
		q("/query/top", "from", "40"),
		q("/query/delta", "a", "1-10", "b", "11-30"),
		q("/query/delta", "a", "1-15", "b", "16-30", "event", "imiss", "n", "2"),
		q("/query/delta", "a", "40-50", "b", "51-60"))
}

// TestAPIAnswersGolden pins the bytes the query API answers with: the
// SHA-256 over every request of apiURLs, its status and its body, is
// testdata/api_answers.sha256, recorded while encoding/json wrote the
// answers. A change that moves it changes what a client reads.
func TestAPIAnswersGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "api_answers.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(APIHandler(apiStore(t), nil, nil))
	defer srv.Close()
	h := sha256.New()
	for _, u := range apiURLs() {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("GET %s: %d %q", u, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		fmt.Fprintf(h, "%s %d %d\n", u, resp.StatusCode, len(body))
		h.Write(body)
	}
	want := strings.TrimSpace(string(raw))
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("API answers digest %s, want %s (testdata/api_answers.sha256)", got, want)
	}
}

// TestAnswerNonFiniteIs500 stores one batch at a finite period so large
// that its cycles overflow to +Inf. JSON has no such number, so the range
// and top answers must be a 500 naming the field, not a 200 with an empty
// body.
func TestAnswerNonFiniteIs500(t *testing.T) {
	store := openStore(t)
	if err := store.Append(tsdb.Batch{Machine: "m00", Epoch: 1, Period: 1e308,
		Records: []tsdb.Record{
			{Image: "/kernel", Event: sim.EvCycles, Samples: 2},
			{Image: "/kernel", Proc: "main", Event: sim.EvCycles, Samples: 2},
		}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(APIHandler(store, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/query/range?image=/kernel", "/query/top", "/query/top?image=/kernel"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "cycles") {
			t.Errorf("GET %s: %d %q, want 500 naming cycles", path, resp.StatusCode, body)
		}
	}
}

// TestAnswerWriteDoesNotAllocate writes a 25-row and a 650-row range
// answer, the fleet-query benchmark's last=25 and full-range sizes, into a
// reused writer, as WriteAnswer does with the one its pool hands it: once
// the buffer has grown it allocates nothing at either size, where
// encoding/json allocates more as the answer grows. (The pool is left out:
// under -race a sync.Pool drops items at random.)
func TestAnswerWriteDoesNotAllocate(t *testing.T) {
	for _, n := range []int{25, 650} {
		resp := RangeResponse{Image: "/usr/bin/app1", Event: "cycles", FromEpoch: 1, ToEpoch: uint64(n)}
		for i := 0; i < n; i++ {
			resp.Rows = append(resp.Rows, tsdb.RangeRow{Epoch: uint64(i + 1), Machines: 16, Samples: 123456,
				Cycles: 7.654321e9 + float64(i)/3, Insts: 98765432, CPI: 1.2345678901234, SharePct: 16.6666667})
		}
		var a Answer = resp
		var w answerWriter
		if allocs := testing.AllocsPerRun(100, func() {
			w.b = w.b[:0]
			a.appendJSON(&w)
			if w.err != nil {
				t.Fatal(w.err)
			}
		}); allocs != 0 {
			t.Errorf("%d rows: %v allocations per answer, want 0", n, allocs)
		}
	}
}
