package tsdb

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcpi/internal/sim"
)

// answersStore builds the seeded store TestQueryAnswersGolden queries:
// four machines over 40 epochs with image- and procedure-level rows on two
// events; m01 runs two workloads at once, m03 starts late and skips
// epochs, and (m02, 7) and (m00, 33) are re-scraped with other samples.
// Compactions after epochs 10, 20 and 30 leave three blocks per machine
// below a ten-epoch raw tail. Periods carry fractions, so every cycle sum
// depends on the order its terms are added in.
func answersStore(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	type meta struct {
		wall   int64
		period float64
	}
	type machineEpoch struct {
		machine string
		epoch   uint64
	}
	metas := map[machineEpoch]meta{}
	batch := func(machine, workload string, e uint64, images []string) Batch {
		key := machineEpoch{machine, e}
		m, ok := metas[key]
		if !ok {
			m = meta{1_000_000 + rng.Int63n(1_000_000), 60000 + float64(rng.Intn(4000))/7}
			metas[key] = m
		}
		b := Batch{Machine: machine, Workload: workload, Epoch: e, Wall: m.wall, Period: m.period}
		for _, img := range images {
			b.Records = append(b.Records,
				Record{Image: img, Event: sim.EvCycles, Samples: 1 + uint64(rng.Intn(900)), Insts: uint64(rng.Intn(3)) * uint64(rng.Intn(50000))},
				Record{Image: img, Event: sim.EvIMiss, Samples: uint64(rng.Intn(40))})
			for _, proc := range []string{"main", "inner", "(unknown)"}[:rng.Intn(4)] {
				b.Records = append(b.Records, Record{Image: img, Proc: proc, Event: sim.EvCycles, Samples: uint64(rng.Intn(300))})
			}
		}
		return b
	}
	for e := uint64(1); e <= 40; e++ {
		mustAppend(t, db, batch("m00", "wave5", e, []string{"/usr/bin/wave5", "/kernel"}))
		mustAppend(t, db, batch("m01", "wave5", e, []string{"/usr/bin/wave5", "/kernel", "/lib/libc.so"}))
		mustAppend(t, db, batch("m01", "gcc", e, []string{"/usr/bin/gcc", "/kernel", "/lib/libc.so"}))
		mustAppend(t, db, batch("m02", "gcc", e, []string{"/usr/bin/gcc", "/kernel"}))
		if e >= 5 && e%3 != 0 {
			mustAppend(t, db, batch("m03", "wave5", e, []string{"/usr/bin/wave5", "/lib/libc.so"}))
		}
		switch e {
		case 12:
			mustAppend(t, db, batch("m02", "gcc", 7, []string{"/usr/bin/gcc", "/kernel"}))
		case 36:
			mustAppend(t, db, batch("m00", "wave5", 33, []string{"/usr/bin/wave5", "/kernel"}))
		case 10, 20, 30:
			mustCompact(t, db, CompactOptions{CompactAfter: 1})
		}
	}
	if st := db.Stats(); st.Blocks != 3*4 || st.Segments == 0 {
		t.Fatalf("store shape %+v, want three blocks per machine and a raw tail", st)
	}
	return db
}

// answersDigest runs every query over db across bounded, open-ended and
// single-epoch windows and writes each answer to a SHA-256, every float as
// its IEEE-754 bits, so any change in what is summed or in the order it is
// summed in changes the digest.
func answersDigest(db *DB) string {
	h := sha256.New()
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	type span struct{ from, to uint64 }
	spans := []span{{1, 40}, {3, 37}, {28, 34}, {7, 7}, {12, 12}, {33, 33}, {1, 0}, {25, 0}, {41, 0}}
	images := []string{"/usr/bin/wave5", "/usr/bin/gcc", "/kernel", "/lib/libc.so", "/missing"}
	events := []sim.Event{sim.EvCycles, sim.EvIMiss}
	for _, s := range spans {
		fmt.Fprintf(h, "span %d %d\n", s.from, s.to)
		for _, m := range []Matcher{
			{AnyEvent: true, AnyProc: true},
			{Machine: "m01"},
			{Workload: "gcc", Image: "/kernel", AnyEvent: true},
			{Image: "/usr/bin/wave5", Proc: "main"},
		} {
			m.FromEpoch, m.ToEpoch = s.from, s.to
			for _, p := range db.Select(m) {
				fmt.Fprintf(h, "P %q %q %q %q %d %d %d %d %d %s\n", p.Machine, p.Workload, p.Image, p.Proc,
					p.Event, p.Epoch, p.Samples, p.Insts, p.Wall, bits(p.Period))
			}
		}
		for _, ev := range events {
			for _, img := range images {
				for _, proc := range []string{"", "main", "inner", "(unknown)"} {
					for _, r := range RangeQueryProc(db, img, proc, ev, s.from, s.to) {
						fmt.Fprintf(h, "R %q %q %d %d %d %d %s %d %s %s\n", img, proc, ev, r.Epoch, r.Machines,
							r.Samples, bits(r.Cycles), r.Insts, bits(r.CPI), bits(r.SharePct))
					}
				}
				for _, r := range TopProcs(db, img, ev, s.from, s.to, 0) {
					fmt.Fprintf(h, "TP %q %d %q %d %s %s\n", img, ev, r.Proc, r.Samples, bits(r.Cycles), bits(r.SharePct))
				}
			}
			for _, n := range []int{0, 2} {
				for _, r := range TopImages(db, ev, s.from, s.to, n) {
					fmt.Fprintf(h, "TI %d %d %q %d %s %s\n", ev, n, r.Image, r.Samples, bits(r.Cycles), bits(r.SharePct))
				}
			}
			for _, b := range spans {
				for _, r := range TopDeltas(db, ev, s.from, s.to, b.from, b.to, 0) {
					fmt.Fprintf(h, "TD %d %d %d %q %s %s\n", ev, b.from, b.to, r.Name, bits(r.BeforePct), bits(r.AfterPct))
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestQueryAnswersGolden pins the bytes of every query answer over a store
// holding what the benchmark's pinned checksums do not: procedure rows, a
// machine under two workloads, re-scraped epochs, and blocks below a raw
// tail. The digest is testdata/query_answers.sha256; a change that moves
// it changes what a fleet query answers.
func TestQueryAnswersGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "query_answers.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	if got := answersDigest(answersStore(t)); got != want {
		t.Errorf("query answers digest %s, want %s (testdata/query_answers.sha256)", got, want)
	}
}
