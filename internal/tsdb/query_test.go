package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dcpi/internal/sim"
)

// raggedFleet stores one machine with a full-span series over epochs
// 1..epochs and a short series present only at epochs 1..2 — the shape
// that exposed the winOf/winStart partition mismatch: with span not a
// multiple of queryWindows, a block series ending mid-range used to be
// registered into a window whose scan range never contained its last
// epochs, silently dropping them from every query.
func raggedFleet(t *testing.T, db *DB, from, to uint64) {
	t.Helper()
	for e := from; e <= to; e++ {
		b := Batch{
			Machine:  "m00",
			Workload: "wave5",
			Epoch:    e,
			Wall:     1_000_000,
			Period:   62000,
			Records: []Record{
				{Image: "/full", Event: sim.EvCycles, Samples: 10 + e},
			},
		}
		if e <= 2 {
			b.Records = append(b.Records, Record{Image: "/short", Event: sim.EvCycles, Samples: 100 + e})
		}
		mustAppend(t, db, b)
	}
}

// raggedPoints is how many points raggedFleet holds in [lo, hi] when
// epochs 1..stored exist: one full-series point per epoch plus the short
// series at epochs 1 and 2.
func raggedPoints(lo, hi, stored uint64) int {
	n := 0
	for e := lo; e <= hi && e <= stored; e++ {
		n++
		if e <= 2 {
			n++
		}
	}
	return n
}

// TestCompactionByteIdentityRaggedSpan pins byte-identical Select output
// across compaction when the epoch span is not a multiple of
// queryWindows (span 17 vs 16 windows) and a series ends mid-range, over
// every [from, to] sub-range.
func TestCompactionByteIdentityRaggedSpan(t *testing.T) {
	const epochs = 17
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raggedFleet(t, db, 1, epochs)
	query := func(lo, hi uint64) []Point {
		return db.Select(Matcher{FromEpoch: lo, ToEpoch: hi})
	}
	type span struct{ lo, hi uint64 }
	before := map[span][]Point{}
	for lo := uint64(1); lo <= epochs; lo++ {
		for hi := lo; hi <= epochs; hi++ {
			before[span{lo, hi}] = query(lo, hi)
		}
	}
	if got := len(before[span{1, epochs}]); got != epochs+2 {
		t.Fatalf("raw store holds %d points over the full span, want %d", got, epochs+2)
	}
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	for lo := uint64(1); lo <= epochs; lo++ {
		for hi := lo; hi <= epochs; hi++ {
			if got := query(lo, hi); !reflect.DeepEqual(got, before[span{lo, hi}]) {
				t.Fatalf("Select([%d, %d]) changed after compaction: %d points, want %d",
					lo, hi, len(got), len(before[span{lo, hi}]))
			}
		}
	}
}

// TestScanWindowsPartitionInvariant asserts, for raw, mixed (block plus
// raw segments), and fully compacted stores over ragged spans, and for the
// part count a scan's points give as well as 1, 2, 3 and 16 forced parts,
// that every series range a scan emits is non-empty, that every part is a
// run of whole fold windows — each window, as winOf assigns it and
// winStart bounds it, is emitted from one part, and parts ascend with the
// windows — and that every matching point is emitted exactly once. An
// open-ended scan of the series that stops at epoch 2 must also emit the
// same (part, fold window, epoch) triples at every stage: its windows end
// where its series do, not where the blocks that compaction builds around
// them do. Its two points are one part, so the fold window is what sees a
// moved upper bound; rank's fold order, and so every top answer's bytes,
// hang on it.
func TestScanWindowsPartitionInvariant(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, lo, hi, stored uint64) {
		t.Helper()
		span := hi - lo + 1
		nwin := min(span, queryWindows)
		winOf := func(e uint64) uint64 { return (e - lo) * nwin / span }
		winStart := func(w uint64) uint64 { return lo + (span*w+nwin-1)/nwin }
		var mu sync.Mutex
		type point struct {
			bs *bseries
			j  int
		}
		seen := map[point]bool{}
		partOf := map[uint64]int{}
		db.newScan(Matcher{FromEpoch: lo, ToEpoch: hi}).run(func(p int, bs *bseries, j0, j1 int) {
			mu.Lock()
			defer mu.Unlock()
			if j0 >= j1 {
				t.Errorf("%s [%d, %d] parts %d: empty range [%d, %d) of %v emitted from part %d", stage, lo, hi, db.testParts, j0, j1, bs.labels, p)
			}
			for j := j0; j < j1; j++ {
				e := bs.epochs[j]
				if seen[point{bs, j}] {
					t.Errorf("%s [%d, %d] parts %d: epoch %d of %v emitted twice", stage, lo, hi, db.testParts, e, bs.labels)
				}
				seen[point{bs, j}] = true
				w := winOf(e)
				if e < lo || e > hi || e < winStart(w) || e >= winStart(w+1) {
					t.Errorf("%s [%d, %d] parts %d: epoch %d emitted outside the bounds or its window %d = [%d, %d)",
						stage, lo, hi, db.testParts, e, w, winStart(w), winStart(w+1))
				}
				if q, ok := partOf[w]; ok && q != p {
					t.Errorf("%s [%d, %d] parts %d: window %d emitted from parts %d and %d", stage, lo, hi, db.testParts, w, q, p)
				}
				partOf[w] = p
			}
		})
		for w := range nwin {
			for v := w + 1; v < nwin; v++ {
				if pw, ok := partOf[w]; ok {
					if pv, ok := partOf[v]; ok && pv < pw {
						t.Errorf("%s [%d, %d] parts %d: window %d in part %d, later window %d in part %d",
							stage, lo, hi, db.testParts, w, pw, v, pv)
					}
				}
			}
		}
		if want := raggedPoints(lo, hi, stored); len(seen) != want {
			t.Errorf("%s [%d, %d] parts %d: %d points emitted, want %d", stage, lo, hi, db.testParts, len(seen), want)
		}
	}
	sweep := func(stage string, stored uint64) {
		for _, parts := range []int{0, 1, 2, 3, 16} {
			db.testParts = parts
			for lo := uint64(1); lo <= 3; lo++ {
				for hi := lo; hi <= stored; hi++ {
					check(stage, lo, hi, stored)
				}
			}
		}
		db.testParts = 0
	}
	type emitted struct {
		part, win int
		epoch     uint64
	}
	openEnded := func() []emitted {
		var mu sync.Mutex
		var out []emitted
		sc := db.newScan(Matcher{Image: "/short"})
		sc.run(func(p int, bs *bseries, j0, j1 int) {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range bs.epochs[j0:j1] {
				out = append(out, emitted{p, sc.win(e), e})
			}
		})
		sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
		return out
	}
	raggedFleet(t, db, 1, 17)
	sweep("raw", 17)
	want := openEnded()
	if len(want) != 2 || want[0].win != 0 || want[1].win != 1 {
		t.Fatalf("open-ended scan of /short emitted %v, want epochs 1 and 2 in fold windows 0 and 1", want)
	}
	// Compact epochs 1..17 into a block, then append two more raw epochs:
	// scans now mix block series and raw points in the same windows.
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	if got := openEnded(); !reflect.DeepEqual(got, want) {
		t.Errorf("open-ended scan moved across compaction: %v, want %v", got, want)
	}
	raggedFleet(t, db, 18, 19)
	sweep("mixed", 19)
	mustCompact(t, db, CompactOptions{CompactAfter: 1})
	sweep("compacted", 19)
	if got := openEnded(); !reflect.DeepEqual(got, want) {
		t.Errorf("open-ended scan moved after more epochs and a second compaction: %v, want %v", got, want)
	}
}

// sortedPlan is the planner the series index replaced, kept as the
// reference for the order the index must produce. It visits every source
// whose epoch range meets the bounds, takes each series whose labels match
// as an (ord, sub) chunk, sorts the chunks by (labels, ord, sub), and
// keeps those scanWindows scans: the ones overlapping [lo, hi]. Bounded
// matchers only.
func sortedPlan(db *DB, m Matcher) ([]*bseries, uint64, uint64) {
	type refChunk struct {
		ord uint64
		sub int
		bs  *bseries
	}
	chunkLess := func(a, b *refChunk) bool {
		if a.bs.labels != b.bs.labels {
			return labelsLess(&a.bs.labels, &b.bs.labels)
		}
		if a.ord != b.ord {
			return a.ord < b.ord
		}
		return a.sub < b.sub
	}
	var chunks []refChunk
	db.mu.Lock()
	for _, s := range db.srcs {
		if (m.Machine != "" && s.blk.machine != m.Machine) || m.FromEpoch > s.blk.maxEpoch || m.ToEpoch < s.blk.minEpoch {
			continue
		}
		for si := range s.blk.series {
			if bs := &s.blk.series[si]; m.labelsMatch(bs.labels) {
				chunks = append(chunks, refChunk{s.blk.lastSeq, si, bs})
			}
		}
	}
	db.mu.Unlock()
	sort.Slice(chunks, func(i, j int) bool { return chunkLess(&chunks[i], &chunks[j]) })
	lo, hi := max(m.FromEpoch, 1), m.ToEpoch
	var out []*bseries
	for _, c := range chunks {
		if max(c.bs.epochs[0], lo) <= min(c.bs.epochs[len(c.bs.epochs)-1], hi) {
			out = append(out, c.bs)
		}
	}
	return out, lo, hi
}

// pointsIn reads series in order, each one's columns limited to [lo, hi]:
// the sequence of points a scan of them accumulates.
func pointsIn(series []*bseries, lo, hi uint64) []Point {
	var out []Point
	for _, bs := range series {
		for j := range bs.epochs {
			if lo <= bs.epochs[j] && bs.epochs[j] <= hi {
				out = append(out, bs.point(j))
			}
		}
	}
	return out
}

// TestPlanMatchesSortedReference draws bounded matchers over every
// combination of the Matcher fields against stores churned through
// duplicate labels, re-scrapes, compaction, quarantine and eviction (see
// churnStore), so the index's runs split at late re-scrapes and reset as
// sources leave. It requires the invariant every aggregator relies on:
// reading the plan's series in order, limited to [lo, hi], gives exactly
// the reference's points in the reference's order, with the same bounds.
// A run may meet the bounds with no point inside them, so only the points
// are compared; some matchers must plan fewer series than the reference.
func TestPlanMatchesSortedReference(t *testing.T) {
	pick := func(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := churnStore(t, rng, t.TempDir())
		top := db.FleetMaxEpoch()
		nonEmpty, coalesced := 0, 0
		for q := 0; q < 400; q++ {
			m := Matcher{
				Machine:  pick(rng, "", "", "m00", "m01", "m02", "m09"),
				Workload: pick(rng, "", "", "w0", "w1"),
				Image:    pick(rng, "", "", "/bin/app0", "/bin/app1", "/bin/app2"),
				Proc:     pick(rng, "", "", "f", "g"),
				Event:    sim.Event(rng.Intn(2)),
				AnyEvent: rng.Intn(2) == 0,
				AnyProc:  rng.Intn(2) == 0,
			}
			m.FromEpoch = uint64(rng.Int63n(int64(top) + 2))
			m.ToEpoch = max(m.FromEpoch, 1) + uint64(rng.Int63n(int64(top)+2))
			got, lo, hi := db.plan(m)
			want, wlo, whi := sortedPlan(db, m)
			if lo != wlo || hi != whi {
				t.Fatalf("seed %d %+v: bounds [%d, %d], reference [%d, %d]", seed, m, lo, hi, wlo, whi)
			}
			gp, wp := pointsIn(got, lo, hi), pointsIn(want, lo, hi)
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("seed %d %+v: plan's %d series hold %d points in [%d, %d], the reference's %d series %d, or in another order",
					seed, m, len(got), len(gp), lo, hi, len(want), len(wp))
			}
			if len(want) > 0 {
				nonEmpty++
			}
			if len(got) < len(want) {
				coalesced++
			}
		}
		if nonEmpty < 100 || coalesced == 0 {
			t.Fatalf("seed %d: %d of 400 matchers planned any series, %d planned fewer than the reference", seed, nonEmpty, coalesced)
		}
	}
}

// TestQueriesRaceAppendsAndCompactions runs bounded queries over epochs
// 1..K, and open-ended ones, while writers append newer epochs and compact
// them into blocks beside the old ones. Every bounded answer, and every
// open-ended answer's epochs 1..K, must equal the one taken before the
// writers started.
func TestQueriesRaceAppendsAndCompactions(t *testing.T) {
	const machines, k = 3, 12
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= k; e++ {
		for m := 0; m < machines; m++ {
			mustAppend(t, db, procBatch(fmt.Sprintf("m%02d", m), e))
		}
		if e == k/2 {
			mustCompact(t, db, CompactOptions{CompactAfter: 1})
		}
	}
	type answers struct {
		sel    []Point
		rng    []RangeRow
		top    []TopRow
		deltas any
	}
	ask := func() answers {
		return answers{
			sel:    db.Select(Matcher{AnyEvent: true, AnyProc: true, FromEpoch: 1, ToEpoch: k}),
			rng:    RangeQuery(db, "/usr/bin/X", sim.EvCycles, 1, k),
			top:    TopImages(db, sim.EvCycles, 1, k, 10),
			deltas: TopDeltas(db, sim.EvCycles, 1, k/2, k/2+1, k, 10),
		}
	}
	want := ask()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint64(k + 1); ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			for m := 0; m < machines; m++ {
				if err := db.Append(procBatch(fmt.Sprintf("m%02d", m), e)); err != nil {
					t.Error(err)
					return
				}
			}
			if e%3 == 0 {
				if _, err := db.Compact(CompactOptions{CompactAfter: 1 + int(e%2)}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// The open-ended reader plans the raw run the writers' epochs keep
	// extending; its rows and points for epochs 1..K must not move.
	openEnded := func() bool {
		rng := RangeQuery(db, "/usr/bin/X", sim.EvCycles, 1, 0)
		sel := db.Select(Matcher{AnyEvent: true, AnyProc: true})
		n := sort.Search(len(sel), func(i int) bool { return sel[i].Epoch > k })
		return len(rng) >= k && reflect.DeepEqual(rng[:k], want.rng) && reflect.DeepEqual(sel[:n], want.sel)
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(bounded bool) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				if bounded && !reflect.DeepEqual(ask(), want) {
					t.Errorf("a bounded answer over epochs 1-%d changed while writers ran", k)
					return
				}
				if !bounded && !openEnded() {
					t.Errorf("an open-ended answer's epochs 1-%d changed while writers ran", k)
					return
				}
			}
		}(r < 2)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if st := db.Stats(); st.Compactions <= 1 {
		t.Errorf("writers compacted %d times: the race never happened", st.Compactions-1)
	}
}

// TestScanVisitsEachSeriesOnce is the work ratchet of the scan: a 25-epoch
// range query over a 16-machine store of blocks below a raw tail — the
// shape of a recent query — reads fewer than partPoints points in both of
// its scans, so each runs as one part that hands every planned series to
// its callback once, where a scan cut into a fixed count of windows
// however few points it reads would visit each series once per window.
func TestScanVisitsEachSeriesOnce(t *testing.T) {
	const machines, blocks, perBlock, tail = 16, 3, 10, 20
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(blocks*perBlock + tail)
	for e := uint64(1); e <= last; e++ {
		for m := 0; m < machines; m++ {
			mustAppend(t, db, bigBatch(fmt.Sprintf("m%02d", m), e))
		}
		if e <= blocks*perBlock && e%perBlock == 0 {
			mustCompact(t, db, CompactOptions{CompactAfter: 1})
		}
	}
	from := last - 24
	for _, m := range []Matcher{
		{Image: "/usr/bin/app3", FromEpoch: from, ToEpoch: last}, // the numerator
		{FromEpoch: from, ToEpoch: last},                         // the denominator
	} {
		planned, _, _ := db.plan(m)
		visits := map[*bseries]int{}
		calls := 0
		var mu sync.Mutex
		db.newScan(m).run(func(_ int, bs *bseries, j0, j1 int) {
			mu.Lock()
			defer mu.Unlock()
			visits[bs]++
			calls++
		})
		if calls != len(planned) || len(visits) != len(planned) {
			t.Errorf("%+v: %d planned series, %d visits of %d distinct series; want one visit each", m, len(planned), calls, len(visits))
		}
	}
}
