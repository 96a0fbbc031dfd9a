package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

// BlockMagic identifies a tsdb block file.
var BlockMagic = [8]byte{'D', 'C', 'P', 'I', 'T', 'S', 'B', 'K'}

// BlockVersion is the current block-format version.
const BlockVersion = 1

// A block is the compacted form of a run of one machine's raw segments:
// column-oriented per-series storage with delta/varint encoding. Epoch
// metadata (wall, period) is stored once per epoch instead of once per
// point, labels are interned in a sorted string table, and each series'
// epochs/samples/insts columns delta-encode against their predecessor —
// together roughly 5-7 bytes per point against ~36 for the raw form.
//
// A block remembers the raw segment sequence range it consumed
// ([firstSeq, lastSeq]); Open uses it to reclaim input files left behind
// by a crash between the block's commit rename and the input cleanup.
// Every (epoch, point) it consumed survives, so queries decode the
// identical Points the raw segments held.
type block struct {
	machine  string
	firstSeq uint64
	lastSeq  uint64
	minEpoch uint64
	maxEpoch uint64
	metas    []epochMeta // ascending, one per stored epoch
	series   []bseries   // ascending by (workload, image, proc, event)
	points   int
}

// epochMeta is one epoch's shared metadata in a block.
type epochMeta struct {
	epoch  uint64
	wall   int64
	period float64
}

// bseries is one decoded series: parallel columns, epochs non-decreasing
// (duplicates allowed — a re-scrape race can legitimately store the same
// epoch twice; see Select's ordering contract). walls and periods are
// materialized from the epoch metadata at decode time so query scans
// touch no side tables.
type bseries struct {
	labels  Labels
	epochs  []uint64
	samples []uint64
	insts   []uint64
	walls   []int64
	periods []float64
}

// point materializes column j as a Point.
func (bs *bseries) point(j int) Point {
	return Point{
		Labels:  bs.labels,
		Epoch:   bs.epochs[j],
		Samples: bs.samples[j],
		Insts:   bs.insts[j],
		Wall:    bs.walls[j],
		Period:  bs.periods[j],
	}
}

// cycles is the cycles column j attributes to the series (Point.Cycles
// without materializing the point).
func (bs *bseries) cycles(j int) float64 { return float64(bs.samples[j]) * bs.periods[j] }

// within narrows columns [j0, j1) to those whose epochs lie in [lo, hi].
// It binary-searches only an end that lies outside the bounds, so a series
// a scan holds whole costs two compares.
func (bs *bseries) within(j0, j1 int, lo, hi uint64) (int, int) {
	e := bs.epochs
	if j0 < j1 && e[j0] < lo {
		a := j0
		j0 = a + sort.Search(j1-a, func(k int) bool { return e[a+k] >= lo })
	}
	if j0 < j1 && e[j1-1] > hi {
		a := j0
		j1 = a + sort.Search(j1-a, func(k int) bool { return e[a+k] > hi })
	}
	return j0, j1
}

func seriesLess(a, b *Labels) bool {
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	if a.Image != b.Image {
		return a.Image < b.Image
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Event < b.Event
}

// blockFromBatch is the decoded form of a raw segment: the one-epoch block
// of the batch that file seq stores, one single-point series per record in
// record order. Unlike a block read from a blk file its series are unsorted
// and may repeat labels; the planner's (ord, sub) key orders them. It runs
// on every Append, so it neither sorts nor hashes, and it cuts every series'
// columns from three arrays the block owns — a batch costs the same few
// allocations whatever its record count. The full-slice expressions keep an
// append to one column out of its neighbour.
func blockFromBatch(seq uint64, b *Batch) *block {
	n := len(b.Records)
	bl := &block{
		machine:  b.Machine,
		firstSeq: seq,
		lastSeq:  seq,
		minEpoch: b.Epoch,
		maxEpoch: b.Epoch,
		metas:    []epochMeta{{b.Epoch, b.Wall, b.Period}},
		series:   make([]bseries, n),
		points:   n,
	}
	counts := make([]uint64, 3*n) // epochs, then samples, then insts
	walls := make([]int64, n)
	periods := make([]float64, n)
	for i, r := range b.Records {
		e, s, in := i, n+i, 2*n+i
		counts[e], counts[s], counts[in] = b.Epoch, r.Samples, r.Insts
		walls[i], periods[i] = b.Wall, b.Period
		bl.series[i] = bseries{
			labels: Labels{
				Machine: b.Machine, Workload: b.Workload,
				Image: r.Image, Proc: r.Proc, Event: r.Event,
			},
			epochs:  counts[e : e+1 : e+1],
			samples: counts[s : s+1 : s+1],
			insts:   counts[in : in+1 : in+1],
			walls:   walls[i : i+1 : i+1],
			periods: periods[i : i+1 : i+1],
		}
	}
	return bl
}

// buildBlock merges one machine's raw sources (ascending fileSeq) into an
// in-memory block. Epoch metadata is stored once per epoch: when a
// re-scrape race stored the same epoch twice, the duplicates are
// guaranteed to carry identical wall/period — Append rejects conflicting
// re-appends and Compact quarantines conflicting files before calling
// this — so taking the lowest-sequence segment's metadata is lossless.
// Points with identical labels and epoch all survive, in
// segment-sequence, then record, order.
func buildBlock(machine string, srcs []*source) *block {
	b := &block{
		machine:  machine,
		firstSeq: srcs[0].blk.firstSeq,
		lastSeq:  srcs[len(srcs)-1].blk.lastSeq,
	}
	metaByEpoch := map[uint64]epochMeta{}
	type col struct {
		epochs, samples, insts []uint64
	}
	byLabel := map[Labels]*col{}
	var order []Labels
	for _, s := range srcs {
		for _, m := range s.blk.metas {
			if _, ok := metaByEpoch[m.epoch]; !ok {
				metaByEpoch[m.epoch] = m
			}
		}
		for i := range s.blk.series {
			bs := &s.blk.series[i]
			c := byLabel[bs.labels]
			if c == nil {
				c = &col{}
				byLabel[bs.labels] = c
				order = append(order, bs.labels)
			}
			c.epochs = append(c.epochs, bs.epochs...)
			c.samples = append(c.samples, bs.samples...)
			c.insts = append(c.insts, bs.insts...)
		}
	}
	b.metas = make([]epochMeta, 0, len(metaByEpoch))
	for _, m := range metaByEpoch {
		b.metas = append(b.metas, m)
	}
	sort.Slice(b.metas, func(i, j int) bool { return b.metas[i].epoch < b.metas[j].epoch })
	b.minEpoch = b.metas[0].epoch
	b.maxEpoch = b.metas[len(b.metas)-1].epoch
	sort.Slice(order, func(i, j int) bool { return seriesLess(&order[i], &order[j]) })
	b.series = make([]bseries, 0, len(order))
	for _, lab := range order {
		c := byLabel[lab]
		// Sort columns by epoch, keeping ingestion order for duplicates.
		idx := make([]int, len(c.epochs))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return c.epochs[idx[i]] < c.epochs[idx[j]] })
		bs := bseries{
			labels:  lab,
			epochs:  make([]uint64, len(idx)),
			samples: make([]uint64, len(idx)),
			insts:   make([]uint64, len(idx)),
			walls:   make([]int64, len(idx)),
			periods: make([]float64, len(idx)),
		}
		for out, in := range idx {
			e := c.epochs[in]
			m := metaByEpoch[e]
			bs.epochs[out] = e
			bs.samples[out] = c.samples[in]
			bs.insts[out] = c.insts[in]
			bs.walls[out] = m.wall
			bs.periods[out] = m.period
		}
		b.series = append(b.series, bs)
		b.points += len(idx)
	}
	return b
}

// EncodeBlock returns the framed, CRC-stamped encoding of a block.
func EncodeBlock(b *block) []byte {
	e := newFrame()
	e.Str(b.machine)
	e.Uvarint(b.firstSeq)
	e.Uvarint(b.lastSeq)
	e.Uvarint(b.minEpoch)
	e.Uvarint(b.maxEpoch)
	e.Uvarint(0) // the downsample factor of the retired aggregate layout
	e.Count(len(b.metas))
	var prevMeta epochMeta
	var prevBits uint64
	for _, m := range b.metas {
		bits := math.Float64bits(m.period)
		e.Uvarint(m.epoch - prevMeta.epoch)
		e.Varint(m.wall - prevMeta.wall)
		e.Uvarint(bits ^ prevBits)
		prevMeta, prevBits = m, bits
	}
	strs, strIdx := blockStringTable(b)
	e.Count(len(strs))
	for _, s := range strs {
		e.Str(s)
	}
	e.Count(len(b.series))
	for si := range b.series {
		bs := &b.series[si]
		e.Uvarint(strIdx[bs.labels.Workload])
		e.Uvarint(strIdx[bs.labels.Image])
		e.Uvarint(strIdx[bs.labels.Proc])
		e.Byte(byte(bs.labels.Event))
		e.Count(len(bs.epochs))
		var prev uint64
		for _, ep := range bs.epochs {
			e.Uvarint(ep - prev)
			prev = ep
		}
		for _, col := range [][]uint64{bs.samples, bs.insts} {
			prev = 0
			for _, v := range col {
				// Wrap-around delta: exact mod 2^64, small varints for
				// slowly-varying counters.
				e.Varint(int64(v - prev))
				prev = v
			}
		}
	}
	return sealFrame(e.B, BlockMagic, BlockVersion)
}

// blockStringTable collects the sorted, deduplicated workload/image/proc
// strings of all series.
func blockStringTable(b *block) ([]string, map[string]uint64) {
	set := map[string]struct{}{}
	for i := range b.series {
		lab := &b.series[i].labels
		set[lab.Workload] = struct{}{}
		set[lab.Image] = struct{}{}
		set[lab.Proc] = struct{}{}
	}
	strs := make([]string, 0, len(set))
	for s := range set {
		strs = append(strs, s)
	}
	sort.Strings(strs)
	idx := make(map[string]uint64, len(strs))
	for i, s := range strs {
		idx[s] = uint64(i)
	}
	return strs, idx
}

// DecodeBlock decodes and validates one block file. The header still
// carries the downsample factor of a per-N-epoch aggregate layout that
// earlier builds could write; a block whose factor is not 0 is refused,
// so Open quarantines it like any file it cannot decode.
func DecodeBlock(raw []byte) (*block, error) {
	payload, err := checkFrame(raw, BlockMagic, BlockVersion)
	if err != nil {
		return nil, err
	}
	d := &wire.Dec{B: payload}
	b := &block{
		machine: decStr(d), firstSeq: d.Uvarint(), lastSeq: d.Uvarint(),
		minEpoch: d.Uvarint(), maxEpoch: d.Uvarint(),
	}
	factor := d.Uvarint()
	switch {
	case d.Err != nil:
	case b.machine == "":
		d.Fail(errors.New("block without machine label"))
	case b.firstSeq == 0 || b.firstSeq > b.lastSeq:
		d.Fail(fmt.Errorf("bad block sequence range [%d, %d]", b.firstSeq, b.lastSeq))
	case factor != 0:
		d.Fail(fmt.Errorf("downsampled block (factor %d): only raw-fidelity blocks are read", factor))
	default:
		b.decodeMetas(d)
	}
	b.decodeSeries(d, decodeStringTable(d))
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("tsdb: decoding block: %w", err)
	}
	return b, nil
}

// The decode steps below share DecodeBlock's cursor: a step that finds the
// block malformed fails the cursor, which stops every read after it and
// keeps the first failure (so a check after a failed read reports nothing).

func (b *block) decodeMetas(d *wire.Dec) {
	n := d.Count(3) // three varints an epoch
	if n == 0 {
		d.Fail(errors.New("block without epochs"))
	}
	b.metas = make([]epochMeta, 0, n)
	var prev epochMeta
	var prevBits uint64
	for i := 0; i < n && d.Err == nil; i++ {
		delta := d.Uvarint()
		if delta == 0 || prev.epoch > math.MaxUint64-delta {
			d.Fail(errors.New("epoch metadata not strictly ascending"))
		}
		prev.epoch += delta
		prev.wall += d.Varint()
		prevBits ^= d.Uvarint()
		prev.period = decPeriod(d, prevBits)
		b.metas = append(b.metas, prev)
	}
	if d.Err == nil && (b.minEpoch != b.metas[0].epoch || b.maxEpoch != b.metas[n-1].epoch) {
		d.Fail(errors.New("block epoch bounds disagree with metadata"))
	}
}

func decodeStringTable(d *wire.Dec) []string {
	n := d.Count(1)
	strs := make([]string, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		s := decStr(d)
		if i > 0 && s <= strs[i-1] {
			d.Fail(errors.New("string table not strictly ascending"))
		}
		strs = append(strs, s)
	}
	return strs
}

func (b *block) decodeSeries(d *wire.Dec, strs []string) {
	// A series is at least 8 bytes: three string indexes, the event, the
	// point count and one point of three columns.
	n := d.Count(8)
	b.series = make([]bseries, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		var idx [3]uint64
		for k := range idx {
			if idx[k] = d.Uvarint(); idx[k] >= uint64(len(strs)) {
				d.Fail(fmt.Errorf("string index %d out of range", idx[k]))
				return
			}
		}
		lab := Labels{
			Machine: b.machine, Workload: strs[idx[0]], Image: strs[idx[1]],
			Proc: strs[idx[2]], Event: sim.Event(d.Byte()),
		}
		if lab.Event >= sim.NumEvents {
			d.Fail(fmt.Errorf("bad event %d", lab.Event))
		}
		if i > 0 && !seriesLess(&b.series[i-1].labels, &lab) {
			d.Fail(errors.New("series not strictly ascending"))
		}
		bs := b.decodeOneSeries(d, lab)
		b.series = append(b.series, bs)
		b.points += len(bs.epochs)
	}
}

func (b *block) decodeOneSeries(d *wire.Dec, lab Labels) bseries {
	n := d.Count(3) // epoch, samples and insts columns
	if n == 0 {
		d.Fail(errors.New("empty series"))
	}
	bs := bseries{
		labels:  lab,
		epochs:  make([]uint64, n),
		samples: make([]uint64, n),
		insts:   make([]uint64, n),
		walls:   make([]int64, n),
		periods: make([]float64, n),
	}
	var prev uint64
	for j := range bs.epochs {
		delta := d.Uvarint()
		if prev > math.MaxUint64-delta {
			d.Fail(errors.New("series epochs overflow"))
		}
		prev += delta
		bs.epochs[j] = prev
	}
	for _, col := range [][]uint64{bs.samples, bs.insts} {
		prev = 0
		for j := range col {
			prev += uint64(d.Varint())
			col[j] = prev
		}
	}
	if d.Err != nil {
		return bs
	}
	// Join wall/period from the epoch-metadata table; every point's epoch
	// must be present there.
	mi := 0
	for j, e := range bs.epochs {
		for mi < len(b.metas) && b.metas[mi].epoch < e {
			mi++
		}
		if mi == len(b.metas) || b.metas[mi].epoch != e {
			d.Fail(fmt.Errorf("series epoch %d missing from metadata", e))
			return bs
		}
		bs.walls[j] = b.metas[mi].wall
		bs.periods[j] = b.metas[mi].period
	}
	return bs
}
