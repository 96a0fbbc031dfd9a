package tsdb

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
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
//
// downsample == 0 means raw fidelity: every (epoch, point) survives and
// queries decode the identical Points the raw segments held. downsample
// == N (2 ≤ N ≤ maxDownsample) means each series keeps one aggregate per
// N-epoch bucket (sums of samples/insts/wall, per-epoch min/max,
// cycle-weighted mean period) and the per-epoch metadata table is
// replaced by per-bucket sums plus a coverage bitmap recording exactly
// which of the bucket's epochs were ingested.
type block struct {
	machine    string
	firstSeq   uint64
	lastSeq    uint64
	minEpoch   uint64
	maxEpoch   uint64
	downsample uint64
	metas      []epochMeta  // raw blocks: ascending, one per stored epoch
	buckets    []bucketMeta // downsampled blocks: ascending bucket starts
	series     []bseries    // ascending by (workload, image, proc, event)
	points     int
}

// epochMeta is one epoch's shared metadata in a raw block.
type epochMeta struct {
	epoch  uint64
	wall   int64
	period float64
}

// bucketMeta is one N-epoch bucket's shared metadata in a downsampled
// block: the bucket's first epoch, exactly which of its epochs were
// ingested, and their wall-cycle sum. cover is what keeps HasEpoch exact
// after downsampling — a partial bucket (short series, gaps from
// quarantine or a scrape outage) must not claim epochs it never held —
// and is why the downsample factor is capped at 64 (maxDownsample).
type bucketMeta struct {
	epoch uint64
	cover uint64 // bitmap: bit i set iff epoch+i was ingested
	wall  int64
}

// maxDownsample bounds the downsampling factor so a bucket's epoch
// coverage fits one 64-bit bitmap.
const maxDownsample = 64

// bseries is one decoded series: parallel columns, epochs non-decreasing
// (duplicates allowed in raw blocks — a re-scrape race can legitimately
// store the same epoch twice; see Select's ordering contract). walls and
// periods are materialized from the epoch/bucket metadata at decode time
// so query scans touch no side tables. mins/maxs are nil in raw blocks
// (Min == Max == Samples there).
type bseries struct {
	labels  Labels
	epochs  []uint64
	samples []uint64
	insts   []uint64
	walls   []int64
	periods []float64
	mins    []uint64
	maxs    []uint64
}

// point materializes column j as a Point.
func (bs *bseries) point(j int) Point {
	p := Point{
		Labels:  bs.labels,
		Epoch:   bs.epochs[j],
		Samples: bs.samples[j],
		Insts:   bs.insts[j],
		Wall:    bs.walls[j],
		Period:  bs.periods[j],
	}
	if bs.mins != nil {
		p.Min, p.Max = bs.mins[j], bs.maxs[j]
	} else {
		p.Min, p.Max = p.Samples, p.Samples
	}
	return p
}

// searchEpoch returns the first column index with epoch >= e.
func (bs *bseries) searchEpoch(e uint64) int {
	return sort.Search(len(bs.epochs), func(i int) bool { return bs.epochs[i] >= e })
}

// hasEpoch reports whether the block ingested the given epoch — exact
// even for downsampled blocks, whose buckets record per-epoch coverage
// in a bitmap.
func (b *block) hasEpoch(e uint64) bool {
	if e < b.minEpoch || e > b.maxEpoch {
		return false
	}
	if b.downsample == 0 {
		i := sort.Search(len(b.metas), func(i int) bool { return b.metas[i].epoch >= e })
		return i < len(b.metas) && b.metas[i].epoch == e
	}
	start := bucketStart(e, b.downsample)
	i := sort.Search(len(b.buckets), func(i int) bool { return b.buckets[i].epoch >= start })
	return i < len(b.buckets) && b.buckets[i].epoch == start &&
		b.buckets[i].cover&(1<<(e-start)) != 0
}

// bucketStart maps an epoch (>= 1) to its N-epoch bucket's first epoch.
func bucketStart(e, n uint64) uint64 { return (e-1)/n*n + 1 }

// bucketBounds returns the exact [min, max] ingested epochs of an
// ascending, non-empty bucket list: the lowest covered epoch of the
// first bucket and the highest covered epoch of the last.
func bucketBounds(bk []bucketMeta) (min, max uint64) {
	first, last := &bk[0], &bk[len(bk)-1]
	min = first.epoch + uint64(mathbits.TrailingZeros64(first.cover))
	max = last.epoch + uint64(63-mathbits.LeadingZeros64(last.cover))
	return min, max
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

// downsampleBlock rewrites a raw block as per-N-epoch aggregates.
func downsampleBlock(b *block, n uint64) *block {
	d := &block{
		machine:    b.machine,
		firstSeq:   b.firstSeq,
		lastSeq:    b.lastSeq,
		downsample: n,
	}
	bucketByStart := map[uint64]*bucketMeta{}
	for _, m := range b.metas {
		start := bucketStart(m.epoch, n)
		bm := bucketByStart[start]
		if bm == nil {
			bm = &bucketMeta{epoch: start}
			bucketByStart[start] = bm
			d.buckets = append(d.buckets, bucketMeta{})
		}
		bm.cover |= 1 << (m.epoch - start)
		bm.wall += m.wall
	}
	starts := make([]uint64, 0, len(bucketByStart))
	for s := range bucketByStart {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i, s := range starts {
		d.buckets[i] = *bucketByStart[s]
	}
	// Epoch bounds stay exact: a partial last bucket must not claim the
	// uncovered tail (nor a partial first bucket an uncovered head).
	d.minEpoch, d.maxEpoch = bucketBounds(d.buckets)
	for si := range b.series {
		src := &b.series[si]
		ds := bseries{labels: src.labels}
		for j := 0; j < len(src.epochs); {
			start := bucketStart(src.epochs[j], n)
			var samples, insts, min, max uint64
			var cycles float64
			first := j
			for ; j < len(src.epochs) && bucketStart(src.epochs[j], n) == start; j++ {
				s := src.samples[j]
				samples += s
				insts += src.insts[j]
				cycles += float64(s) * src.periods[j]
				if j == first || s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			period := src.periods[first]
			if samples > 0 {
				period = cycles / float64(samples)
			}
			ds.epochs = append(ds.epochs, start)
			ds.samples = append(ds.samples, samples)
			ds.insts = append(ds.insts, insts)
			ds.walls = append(ds.walls, bucketByStart[start].wall)
			ds.periods = append(ds.periods, period)
			ds.mins = append(ds.mins, min)
			ds.maxs = append(ds.maxs, max)
		}
		d.series = append(d.series, ds)
		d.points += len(ds.epochs)
	}
	return d
}

// EncodeBlock returns the framed, CRC-stamped encoding of a block.
func EncodeBlock(b *block) []byte {
	e := newFrame()
	e.Str(b.machine)
	e.Uvarint(b.firstSeq)
	e.Uvarint(b.lastSeq)
	e.Uvarint(b.minEpoch)
	e.Uvarint(b.maxEpoch)
	e.Uvarint(b.downsample)
	if b.downsample == 0 {
		e.Count(len(b.metas))
		var prev epochMeta
		var prevBits uint64
		for _, m := range b.metas {
			bits := math.Float64bits(m.period)
			e.Uvarint(m.epoch - prev.epoch)
			e.Varint(m.wall - prev.wall)
			e.Uvarint(bits ^ prevBits)
			prev, prevBits = m, bits
		}
	} else {
		e.Count(len(b.buckets))
		var prev bucketMeta
		for _, bm := range b.buckets {
			e.Uvarint(bm.epoch - prev.epoch)
			e.Uvarint(bm.cover)
			e.Varint(bm.wall - prev.wall)
			prev = bm
		}
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
		if b.downsample > 0 {
			for _, v := range bs.mins {
				e.Uvarint(v)
			}
			for j, v := range bs.maxs {
				e.Uvarint(v - bs.mins[j])
			}
			var prevBits uint64
			for _, p := range bs.periods {
				bits := math.Float64bits(p)
				e.Uvarint(bits ^ prevBits)
				prevBits = bits
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

// DecodeBlock decodes and validates one block file.
func DecodeBlock(raw []byte) (*block, error) {
	payload, err := checkFrame(raw, BlockMagic, BlockVersion)
	if err != nil {
		return nil, err
	}
	d := &wire.Dec{B: payload}
	b := &block{
		machine: decStr(d), firstSeq: d.Uvarint(), lastSeq: d.Uvarint(),
		minEpoch: d.Uvarint(), maxEpoch: d.Uvarint(), downsample: d.Uvarint(),
	}
	switch {
	case d.Err != nil:
	case b.machine == "":
		d.Fail(errors.New("block without machine label"))
	case b.firstSeq == 0 || b.firstSeq > b.lastSeq:
		d.Fail(fmt.Errorf("bad block sequence range [%d, %d]", b.firstSeq, b.lastSeq))
	case b.downsample == 1 || b.downsample > maxDownsample:
		d.Fail(fmt.Errorf("bad downsample factor %d", b.downsample))
	case b.downsample == 0:
		b.decodeMetas(d)
	default:
		b.decodeBuckets(d)
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

func (b *block) decodeBuckets(d *wire.Dec) {
	n := d.Count(3) // three varints a bucket
	if n == 0 {
		d.Fail(errors.New("block without buckets"))
	}
	b.buckets = make([]bucketMeta, 0, n)
	var prev bucketMeta
	for i := 0; i < n && d.Err == nil; i++ {
		delta := d.Uvarint()
		if delta == 0 || prev.epoch > math.MaxUint64-delta {
			d.Fail(errors.New("buckets not strictly ascending"))
		}
		prev.epoch += delta
		prev.cover = d.Uvarint()
		prev.wall += d.Varint()
		if bucketStart(prev.epoch, b.downsample) != prev.epoch {
			d.Fail(fmt.Errorf("bucket %d not aligned to factor %d", prev.epoch, b.downsample))
		}
		// A shift count of 64 (factor == maxDownsample) is defined in Go
		// and yields 0, keeping the full-bitmap case valid.
		if prev.cover == 0 || prev.cover>>b.downsample != 0 {
			d.Fail(fmt.Errorf("bucket coverage %#x exceeds factor %d", prev.cover, b.downsample))
		}
		b.buckets = append(b.buckets, prev)
	}
	if d.Err != nil {
		return // bucketBounds needs the whole, non-empty list
	}
	if min, max := bucketBounds(b.buckets); b.minEpoch != min || b.maxEpoch != max {
		d.Fail(errors.New("block epoch bounds disagree with buckets"))
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
	width := 3 // epoch, samples and insts columns
	if b.downsample > 0 {
		width = 6 // plus mins, maxs and periods
	}
	n := d.Count(width)
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
		if b.downsample > 0 && j > 0 && delta == 0 {
			d.Fail(errors.New("duplicate bucket in series"))
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
	if b.downsample == 0 {
		// Join wall/period from the epoch-metadata table; every point's
		// epoch must be present there.
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
	bi := 0
	for j, e := range bs.epochs {
		for bi < len(b.buckets) && b.buckets[bi].epoch < e {
			bi++
		}
		if bi == len(b.buckets) || b.buckets[bi].epoch != e {
			d.Fail(fmt.Errorf("series bucket %d missing from bucket table", e))
			return bs
		}
		bs.walls[j] = b.buckets[bi].wall
	}
	bs.mins = make([]uint64, n)
	bs.maxs = make([]uint64, n)
	for j := range bs.mins {
		bs.mins[j] = d.Uvarint()
	}
	for j := range bs.maxs {
		bs.maxs[j] = bs.mins[j] + d.Uvarint()
	}
	var prevBits uint64
	for j := range bs.periods {
		prevBits ^= d.Uvarint()
		bs.periods[j] = decPeriod(d, prevBits)
	}
	return bs
}
