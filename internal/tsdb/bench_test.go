package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dcpi/internal/sim"
)

// benchRoot holds the shared 50k-epoch stores built once per test-binary
// run; TestMain removes it (b.TempDir would tear it down after the first
// benchmark that used it).
var benchRoot string

func TestMain(m *testing.M) {
	code := m.Run()
	if benchRoot != "" {
		os.RemoveAll(benchRoot)
	}
	os.Exit(code)
}

// benchStore builds a store shaped like a real fleet scrape: machines x
// epochs batches, each with several images over two event types.
func benchStore(b *testing.B, machines, epochs, images int) *DB {
	b.Helper()
	db, err := Open(filepath.Join(b.TempDir(), "tsdb"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < machines; m++ {
		for e := 1; e <= epochs; e++ {
			batch := Batch{
				Machine:  fmt.Sprintf("m%02d", m),
				Workload: "bench",
				Epoch:    uint64(e),
				Wall:     1 << 20,
				Period:   62000,
			}
			for i := 0; i < images; i++ {
				img := fmt.Sprintf("/usr/bin/app%d", i)
				batch.Records = append(batch.Records,
					Record{Image: img, Event: sim.EvCycles, Samples: uint64(100 + i + e), Insts: uint64(5000 * (i + 1))},
					Record{Image: img, Event: sim.EvIMiss, Samples: uint64(10 + i)},
				)
			}
			if err := db.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// BenchmarkRangeQuery measures the fleet-wide per-image range query over
// a 16-machine x 100-epoch store (the EXPERIMENTS.md demo shape).
func BenchmarkRangeQuery(b *testing.B) {
	db := benchStore(b, 16, 100, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := RangeQuery(db, "/usr/bin/app3", sim.EvCycles, 1, 100)
		if len(rows) != 100 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
	b.ReportMetric(16*100, "points/query")
}

// BenchmarkRangeQueryRawTail measures the recent range query of a
// long-running collector's store: 16 machines, each holding six 10-epoch
// blocks below a 50-epoch raw tail, queried over its last 25 epochs (the
// shape of bench/'s fleet-query store). One query before the timer builds
// the index's scan view, which later queries reuse.
func BenchmarkRangeQueryRawTail(b *testing.B) {
	const machines, blocks, perBlock, tail = 16, 6, 10, 50
	db, err := Open(filepath.Join(b.TempDir(), "tsdb"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	last := uint64(blocks*perBlock + tail)
	for e := uint64(1); e <= last; e++ {
		for m := 0; m < machines; m++ {
			if err := db.Append(bigBatch(fmt.Sprintf("m%02d", m), e)); err != nil {
				b.Fatal(err)
			}
		}
		if e <= blocks*perBlock && e%perBlock == 0 {
			if _, err := db.Compact(CompactOptions{CompactAfter: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	query := func() {
		if rows := RangeQuery(db, "/usr/bin/app3", sim.EvCycles, last-24, last); len(rows) != 25 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
	query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.ReportMetric(machines*25, "points/query")
}

// BenchmarkTopDeltas measures the two-window share-delta ranking over the
// same store.
func BenchmarkTopDeltas(b *testing.B) {
	db := benchStore(b, 16, 100, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := TopDeltas(db, sim.EvCycles, 1, 50, 51, 100, 10)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTopImages measures the fleet-wide hot-image ranking over the
// same store: every image's series on one event, all 100 epochs.
func BenchmarkTopImages(b *testing.B) {
	db := benchStore(b, 16, 100, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := TopImages(db, sim.EvCycles, 1, 100, 10)
		if len(rows) != 6 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
	b.ReportMetric(16*100*6, "points/query")
}

// BenchmarkAppend measures the durable ingest path: encode + fsync + index
// of one scraped batch (12 points), the per-(machine, epoch) unit of work.
func BenchmarkAppend(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "tsdb"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	batch := bigBatch("m00", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Epoch = uint64(i + 1)
		if err := db.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch.Records)), "points/op")
}

// BenchmarkBuildStore measures what a long-running collector's store costs
// to build: 16 machines x 650 epochs appended epoch by epoch and compacted
// every 100 epochs, leaving six generations of blocks and a 50-epoch raw
// tail. Retiring a compaction's 1600 input segments from the posting lists
// is the part that used to be quadratic. The store sits on tmpfs where the
// host has one, as under bench/run.sh: 10 400 fsyncs to a shared disk cost
// seconds and vary by the hour, which buries the index work being measured.
func BenchmarkBuildStore(b *testing.B) {
	const machines, epochs, compactEvery = 16, 650, 100
	root, err := os.MkdirTemp("/dev/shm", "dcpi-tsdb-build-")
	if err != nil {
		root = b.TempDir()
	}
	defer os.RemoveAll(root)
	for i := 0; i < b.N; i++ {
		db, err := Open(filepath.Join(root, fmt.Sprint(i)), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for e := uint64(1); e <= epochs; e++ {
			for m := 0; m < machines; m++ {
				if err := db.Append(bigBatch(fmt.Sprintf("m%02d", m), e)); err != nil {
					b.Fatal(err)
				}
			}
			if e%compactEvery == 0 {
				if _, err := db.Compact(CompactOptions{CompactAfter: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if st := db.Stats(); st.Blocks != machines*(epochs/compactEvery) || st.Segments != machines*(epochs%compactEvery) {
			b.Fatalf("store shape: %+v", st)
		}
	}
	b.ReportMetric(machines*epochs, "appends/op")
}

// The 50k-epoch fleet store: 2 machines x 25k epochs, 6 images over two
// events — the scale where compaction pays. Built once per binary run;
// segment files are written with plain os.WriteFile (per-file fsync would
// make setup ~4x slower and proves nothing about queries).
const (
	bigMachines = 2
	bigEpochs   = 25000
	bigImages   = 6
)

func bigBatch(machine string, e uint64) Batch {
	batch := Batch{
		Machine:  machine,
		Workload: "bench",
		Epoch:    e,
		Wall:     1 << 20,
		Period:   62000,
	}
	for i := 0; i < bigImages; i++ {
		img := fmt.Sprintf("/usr/bin/app%d", i)
		batch.Records = append(batch.Records,
			Record{Image: img, Event: sim.EvCycles, Samples: uint64(100 + i + int(e%97)), Insts: uint64(5000 * (i + 1))},
			Record{Image: img, Event: sim.EvIMiss, Samples: uint64(10 + i)},
		)
	}
	return batch
}

var big struct {
	once               sync.Once
	raw, cmp           string
	rawBytes, cmpBytes int64
	err                error
}

func setupBig(b *testing.B) {
	b.Helper()
	big.once.Do(func() {
		root, err := os.MkdirTemp("", "dcpi-tsdb-bench-")
		if err != nil {
			big.err = err
			return
		}
		benchRoot = root
		big.raw = filepath.Join(root, "raw")
		big.cmp = filepath.Join(root, "cmp")
		for _, d := range []string{big.raw, big.cmp} {
			if big.err = os.MkdirAll(d, 0o755); big.err != nil {
				return
			}
		}
		seq := uint64(1)
		for m := 0; m < bigMachines; m++ {
			for e := uint64(1); e <= bigEpochs; e++ {
				batch := bigBatch(fmt.Sprintf("m%02d", m), e)
				enc := EncodeSegment(&batch)
				name := segName(seq)
				seq++
				for _, d := range []string{big.raw, big.cmp} {
					if big.err = os.WriteFile(filepath.Join(d, name), enc, 0o644); big.err != nil {
						return
					}
				}
			}
		}
		db, err := Open(big.cmp, Options{})
		if err != nil {
			big.err = err
			return
		}
		if _, big.err = db.Compact(CompactOptions{CompactAfter: 1}); big.err != nil {
			return
		}
		big.rawBytes, big.cmpBytes = dirSize(big.raw), dirSize(big.cmp)
	})
	if big.err != nil {
		b.Fatal(big.err)
	}
}

func dirSize(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

func benchRangeBig(b *testing.B, dir string, diskBytes int64) {
	db, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := RangeQuery(db, "/usr/bin/app3", sim.EvCycles, 1, bigEpochs)
		if len(rows) != bigEpochs {
			b.Fatalf("got %d rows", len(rows))
		}
	}
	b.ReportMetric(float64(diskBytes)/float64(bigMachines*bigEpochs), "diskB/epoch")
}

// BenchmarkRangeQuery50kRaw scans the full 50k-epoch store in its raw,
// one-segment-per-(machine,epoch) form — the pre-compaction baseline.
func BenchmarkRangeQuery50kRaw(b *testing.B) {
	setupBig(b)
	benchRangeBig(b, big.raw, big.rawBytes)
}

// BenchmarkRangeQuery50kCompact runs the identical query after compaction
// into two delta-encoded blocks.
func BenchmarkRangeQuery50kCompact(b *testing.B) {
	setupBig(b)
	benchRangeBig(b, big.cmp, big.cmpBytes)
}

// BenchmarkPartSplit times each query with its scans forced into one part
// and into two, alternating within every iteration so that both readings
// see the same host, over stores of growing size: the smallest part size
// at which two parts beat one is partPoints. Each store is 16 machines of
// six images on two events over the given epochs, written as raw segments
// and opened, so every label is one run. A sub-benchmark is named by the
// points its largest scan reads (points/2 per part when split) and reports
// one-part and two-part ns per query and their ratio.
func BenchmarkPartSplit(b *testing.B) {
	for _, epochs := range []int{64, 128, 256, 320, 384, 512} {
		dir := filepath.Join(b.TempDir(), "tsdb")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		seq := uint64(1)
		for m := 0; m < 16; m++ {
			for e := 1; e <= epochs; e++ {
				batch := bigBatch(fmt.Sprintf("m%02d", m), uint64(e))
				if err := os.WriteFile(filepath.Join(dir, segName(seq)), EncodeSegment(&batch), 0o644); err != nil {
					b.Fatal(err)
				}
				seq++
			}
		}
		db, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		to, series := uint64(epochs), 16*bigImages*epochs
		queries := []struct {
			name   string
			points int
			run    func()
		}{
			{"range", series, func() { RangeQuery(db, "/usr/bin/app3", sim.EvCycles, 1, to) }},
			{"top", series, func() { TopImages(db, sim.EvCycles, 1, to, 10) }},
			{"select", series / bigImages, func() { db.Select(Matcher{Image: "/usr/bin/app3", FromEpoch: 1, ToEpoch: to}) }},
		}
		for _, q := range queries {
			b.Run(fmt.Sprintf("%s/points=%d", q.name, q.points), func(b *testing.B) {
				var d [2]time.Duration
				for i := 0; i < b.N; i++ {
					for k := range d {
						db.testParts = k + 1
						start := time.Now()
						q.run()
						d[k] += time.Since(start)
					}
				}
				b.ReportMetric(float64(d[0].Nanoseconds())/float64(b.N), "one-ns/op")
				b.ReportMetric(float64(d[1].Nanoseconds())/float64(b.N), "two-ns/op")
				b.ReportMetric(float64(d[1])/float64(d[0]), "two/one")
			})
		}
		db.testParts = 0
	}
}
