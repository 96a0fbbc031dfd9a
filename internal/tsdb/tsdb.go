// Package tsdb is the fleet-side profile store: a labeled, append-only,
// on-disk time-series database for the sample totals dcpicollect scrapes
// from a fleet of dcpid machines. Points are keyed by (machine, workload,
// image, procedure, event) and stamped with the profiledb epoch they came
// from; one scrape of one (machine, epoch) pair becomes one immutable raw
// segment file.
//
// At fleet scale raw segments are the wrong shape — one tiny file per
// (machine, epoch) and a full scan per query — so the store also has a
// compactor (see compact.go): raw segments merge into immutable,
// delta+varint-encoded block files covering whole epoch ranges per
// machine, keeping every point at full fidelity. An in-memory series
// index (see index.go) keeps one entry per distinct label set, in label
// order, each holding its (source, series) chunks in ingestion order — the
// index's record — and a lazily built scan view in which a label's
// in-order raw segments are one run, so a query reads the series it
// matches already in the order its deterministic merge needs, one per
// block and one per raw tail. The query engine (query.go) counts the points
// a query reads and scans them in as many parallel parts as those points
// pay for, one series' column range at a time: the aggregators read the
// columns in place, and only Select materializes points.
// Raw versus block is a property of the file, not of the scan: a segment
// decodes into the one-epoch block of its batch (blockFromBatch), so every
// reader below the codecs sees one in-memory shape.
//
// The durability story mirrors the repo's other stores: segments and
// blocks are encoded through internal/wire, framed with a magic, a
// version, and a CRC32 of the payload, written through internal/atomicio
// (temp+fsync+rename), and anything that fails to decode on open is
// quarantined aside as NAME.bad the way internal/runcache does — a corrupt
// file costs its own points, never the database. A size-based retention
// cap drops the oldest-by-epoch sources first, so a long-running
// collector's disk use stays bounded.
package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dcpi/internal/atomicio"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

// Magic identifies a tsdb raw-segment file.
var Magic = [8]byte{'D', 'C', 'P', 'I', 'T', 'S', 'D', 'B'}

// Version is the current segment-format version. Version 2 added the
// per-record procedure label; version 1 files are quarantined on open.
const Version = 2

// Labels identify one series. Proc is empty for image-level points and
// names the procedure for per-procedure points; the two kinds coexist for
// the same image, so queries must pick one level (see Matcher).
type Labels struct {
	Machine  string
	Workload string
	Image    string
	Proc     string
	Event    sim.Event
}

// Point is one observation: the sample total (and, when exact counts were
// collected, the executed-instruction total) for a series at one epoch.
// Wall and Period are denormalized from the epoch's metadata so queries
// can convert samples to cycles without a side lookup.
type Point struct {
	Labels
	Epoch   uint64
	Samples uint64
	Insts   uint64 // 0 when the epoch had no exact counts
	Wall    int64  // epoch wall-clock cycles on that machine
	Period  float64
}

// Record is the per-series part of an Append batch. Proc is empty for the
// image-level total and names a procedure for a per-procedure breakdown
// row.
type Record struct {
	Image   string
	Proc    string
	Event   sim.Event
	Samples uint64
	Insts   uint64
}

// Batch is one scraped (machine, epoch) payload: the unit of append and
// the exact contents of one raw segment file.
type Batch struct {
	Machine  string
	Workload string
	Epoch    uint64
	Wall     int64
	Period   float64
	Records  []Record
}

// Options configures Open.
type Options struct {
	// MaxBytes caps the total size of segment and block files; 0 means
	// unbounded. When an append (or compaction) pushes past the cap, the
	// oldest sources — by max epoch covered, then by file sequence — are
	// deleted until under it again. The last remaining source is never
	// deleted, and quarantined .bad files never count against the cap.
	MaxBytes int64
	// ReadOnly opens without quarantining corrupt files, reclaiming
	// compaction leftovers, or accepting appends (used by query CLIs
	// pointed at a live collector's store).
	ReadOnly bool
	// Obs publishes store gauges/counters (tsdb.*) when set.
	Obs obs.Hooks
}

// DB is an open store. All methods are safe for concurrent use; appends
// and compactions serialize behind one mutex (the collector is the only
// writer), while queries snapshot source references under the mutex and
// then scan immutable data lock-free.
type DB struct {
	mu          sync.Mutex
	dir         string
	opts        Options
	srcs        []*source // ascending fileSeq
	byMachine   map[string][]*source
	machineMax  map[string]uint64 // each machine's highest stored epoch
	fleetMax    uint64            // the highest of machineMax
	bySeries    map[Labels]*labelChunks
	series      []*labelChunks // the series index: bySeries's entries, ascending labelsLess
	nextSeq     uint64
	sizeBytes   int64
	quarantined int
	evicted     int
	reclaimed   int // compaction leftovers removed during Open recovery
	compactions int

	// testCrashMidCompact makes Compact return right after committing its
	// first block, before removing the inputs — simulating a process that
	// died mid-compaction so tests can exercise Open's recovery.
	testCrashMidCompact bool
	// testParts, when positive, fixes every scan's part count (at most its
	// fold windows), so tests can hold answers to every partition.
	testParts int
	// plans counts the plans made, one per scan, so tests can hold a query
	// to the scans it makes.
	plans int
}

// Open opens (or creates, unless ReadOnly) the store at dir, loading every
// decodable segment and block into the in-memory index. Corrupt files are
// renamed to NAME.bad (kept for post-mortem, hidden from queries) unless
// ReadOnly. A quarantined name still holds its sequence, so a later file
// never reuses it and a second quarantine never overwrites the first
// post-mortem copy. Raw segments whose sequence number falls inside a
// same-machine block's consumed range are leftovers of a crash between a
// compaction's commit rename and its input cleanup; they are removed
// (hidden when ReadOnly) so the data never appears twice.
func Open(dir string, opts Options) (*DB, error) {
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	db := &DB{
		dir:        dir,
		opts:       opts,
		byMachine:  map[string][]*source{},
		machineMax: map[string]uint64{},
		bySeries:   map[Labels]*labelChunks{},
		nextSeq:    1,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var loaded []*source
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			if !opts.ReadOnly {
				os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		seq, isBlock, ok := parseFileName(strings.TrimSuffix(name, ".bad"))
		if !ok {
			continue
		}
		db.nextSeq = max(db.nextSeq, seq+1)
		if strings.HasSuffix(name, ".bad") {
			continue
		}
		full := filepath.Join(dir, name)
		raw, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		var bl *block
		var derr error
		if isBlock {
			bl, derr = DecodeBlock(raw)
		} else if b, err := DecodeSegment(raw); err != nil {
			derr = err
		} else {
			bl = blockFromBatch(seq, b)
		}
		if derr != nil {
			if !opts.ReadOnly {
				os.Rename(full, full+".bad")
			}
			db.quarantined++
			continue
		}
		loaded = append(loaded, newSource(seq, full, int64(len(raw)), !isBlock, bl))
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].fileSeq < loaded[j].fileSeq })
	for _, s := range db.reclaimLeftovers(loaded) {
		db.addSource(s)
		db.sizeBytes += s.bytes
	}
	db.publish()
	return db, nil
}

// reclaimLeftovers drops (and, unless ReadOnly, deletes) the raw segments
// whose contents were already committed into a block: a segment whose
// sequence falls inside a same-machine block's consumed range [firstSeq,
// lastSeq] was merged by a compaction before a crash cut the cleanup
// short. Input and output are ascending by fileSeq.
func (db *DB) reclaimLeftovers(loaded []*source) []*source {
	blocks := map[string][]*block{}
	for _, s := range loaded {
		if !s.raw {
			blocks[s.blk.machine] = append(blocks[s.blk.machine], s.blk)
		}
	}
	live := loaded[:0]
	for _, s := range loaded {
		if s.raw && slices.ContainsFunc(blocks[s.blk.machine], func(b *block) bool {
			return b.firstSeq <= s.fileSeq && s.fileSeq <= b.lastSeq
		}) {
			if !db.opts.ReadOnly {
				os.Remove(s.path)
			}
			db.reclaimed++
			continue
		}
		live = append(live, s)
	}
	return live
}

// parseFileName parses "seg-<decimal>.tsdb" (raw segment) or
// "blk-<decimal>.tsdb" (block) strictly.
func parseFileName(name string) (seq uint64, isBlock, ok bool) {
	rest, isSeg := strings.CutPrefix(name, "seg-")
	if !isSeg {
		if rest, ok = strings.CutPrefix(name, "blk-"); !ok {
			return 0, false, false
		}
		isBlock = true
	}
	digits, ok := strings.CutSuffix(rest, ".tsdb")
	if !ok || digits == "" {
		return 0, false, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false, false
		}
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || n == 0 {
		return 0, false, false
	}
	return n, isBlock, true
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.tsdb", seq) }
func blkName(seq uint64) string { return fmt.Sprintf("blk-%08d.tsdb", seq) }

// Append durably writes one batch as a new raw segment and indexes its
// points. Re-appending an epoch the store already holds is allowed (a
// re-scrape race stores duplicate points; see Select's ordering
// contract), but only when the batch's wall/period metadata matches what
// is stored: compaction canonicalizes per-epoch metadata, so a
// conflicting duplicate could silently change query results across
// compaction and is rejected here instead.
func (db *DB) Append(b Batch) error {
	if db.opts.ReadOnly {
		return errors.New("tsdb: store opened read-only")
	}
	if err := b.validate(); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	enc := EncodeSegment(&b)
	db.mu.Lock()
	defer db.mu.Unlock()
	if m, ok := db.epochMetaLocked(b.Machine, b.Epoch); ok && (m.wall != b.Wall || m.period != b.Period) {
		return fmt.Errorf("tsdb: conflicting re-scrape of (%s, epoch %d): stored wall=%d period=%v, batch wall=%d period=%v",
			b.Machine, b.Epoch, m.wall, m.period, b.Wall, b.Period)
	}
	seq := db.nextSeq
	db.nextSeq++
	path := filepath.Join(db.dir, segName(seq))
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	}); err != nil {
		return err
	}
	db.addSource(newSource(seq, path, int64(len(enc)), true, blockFromBatch(seq, &b)))
	db.sizeBytes += int64(len(enc))
	db.retain()
	db.publish()
	return nil
}

// epochMetaLocked returns the stored metadata of (machine, epoch) when the
// store holds that epoch. Caller holds db.mu.
func (db *DB) epochMetaLocked(machine string, epoch uint64) (epochMeta, bool) {
	for _, s := range db.byMachine[machine] {
		if epoch < s.blk.minEpoch || epoch > s.blk.maxEpoch {
			continue
		}
		ms := s.blk.metas
		i := sort.Search(len(ms), func(i int) bool { return ms[i].epoch >= epoch })
		if i < len(ms) && ms[i].epoch == epoch {
			return ms[i], true
		}
	}
	return epochMeta{}, false
}

// retain enforces the size cap by deleting the oldest sources: lowest max
// epoch first (so compacted history goes before fresh data), file
// sequence as the tie-break. Caller holds db.mu.
func (db *DB) retain() {
	if db.opts.MaxBytes <= 0 {
		return
	}
	for db.sizeBytes > db.opts.MaxBytes && len(db.srcs) > 1 {
		victim := db.srcs[0]
		for _, s := range db.srcs[1:] {
			if s.blk.maxEpoch < victim.blk.maxEpoch ||
				(s.blk.maxEpoch == victim.blk.maxEpoch && s.fileSeq < victim.fileSeq) {
				victim = s
			}
		}
		if err := os.Remove(victim.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return // leave the index consistent with disk; retry next append
		}
		db.removeSources(victim)
		db.sizeBytes -= victim.bytes
		db.evicted++
	}
}

// publish updates the tsdb.* gauges. Caller holds db.mu (or has exclusive
// access during Open).
func (db *DB) publish() {
	reg := db.opts.Obs.Registry
	if reg == nil {
		return
	}
	st := db.statsLocked()
	reg.Gauge("tsdb.segments").Set(float64(st.Segments))
	reg.Gauge("tsdb.blocks").Set(float64(st.Blocks))
	reg.Gauge("tsdb.points").Set(float64(st.Points))
	reg.Gauge("tsdb.size_bytes").Set(float64(st.SizeBytes))
	reg.Gauge("tsdb.quarantined_segments").Set(float64(st.Quarantined))
	reg.Gauge("tsdb.retention_evictions").Set(float64(st.Evicted))
	reg.Gauge("tsdb.reclaimed_leftovers").Set(float64(st.Reclaimed))
	reg.Gauge("tsdb.compactions").Set(float64(st.Compactions))
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Segments    int // raw (uncompacted) segment files
	Blocks      int // compacted block files
	Points      int
	SizeBytes   int64
	Quarantined int
	Evicted     int
	Reclaimed   int // crash-recovery leftovers removed on open
	Compactions int
}

// Stats returns the store's current summary.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.statsLocked()
}

// statsLocked is the one count of the store's sources, behind Stats and
// the gauges alike. Caller holds db.mu.
func (db *DB) statsLocked() Stats {
	st := Stats{
		SizeBytes:   db.sizeBytes,
		Quarantined: db.quarantined,
		Evicted:     db.evicted,
		Reclaimed:   db.reclaimed,
		Compactions: db.compactions,
	}
	for _, s := range db.srcs {
		if s.raw {
			st.Segments++
		} else {
			st.Blocks++
		}
		st.Points += s.blk.points
	}
	return st
}

// HasEpoch reports whether (machine, epoch) was ingested — the scraper's
// exactly-once check.
func (db *DB) HasEpoch(machine string, epoch uint64) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.epochMetaLocked(machine, epoch)
	return ok
}

// MaxEpoch returns the highest epoch stored for machine (0 if none).
func (db *DB) MaxEpoch(machine string) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.machineMax[machine]
}

// frameLen is the header segments and blocks share: magic, u16 version,
// CRC32 (IEEE) of the payload that follows.
const frameLen = 14

// newFrame starts an encoding with room for the header sealFrame fills in.
func newFrame() wire.Enc { return wire.Enc{B: make([]byte, frameLen, 256)} }

// sealFrame stamps the header over the first frameLen bytes of b, once the
// payload behind them is complete.
func sealFrame(b []byte, magic [8]byte, version uint16) []byte {
	copy(b, magic[:])
	binary.LittleEndian.PutUint16(b[8:10], version)
	binary.LittleEndian.PutUint32(b[10:14], crc32.ChecksumIEEE(b[frameLen:]))
	return b
}

// checkFrame verifies the shared header and returns the payload.
func checkFrame(raw []byte, magic [8]byte, version uint16) ([]byte, error) {
	if len(raw) < frameLen {
		return nil, errors.New("tsdb: file too short")
	}
	if !bytes.Equal(raw[:8], magic[:]) {
		return nil, errors.New("tsdb: bad magic")
	}
	if v := binary.LittleEndian.Uint16(raw[8:10]); v != version {
		return nil, fmt.Errorf("tsdb: unsupported version %d", v)
	}
	payload := raw[frameLen:]
	if crc := binary.LittleEndian.Uint32(raw[10:14]); crc != crc32.ChecksumIEEE(payload) {
		return nil, errors.New("tsdb: CRC mismatch")
	}
	return payload, nil
}

// maxStringLen bounds label lengths, written and read.
const maxStringLen = 1 << 16

// decStr reads a label, refusing one longer than maxStringLen.
func decStr(d *wire.Dec) string {
	b := d.Bytes()
	if len(b) > maxStringLen {
		d.Fail(fmt.Errorf("string length %d exceeds %d", len(b), maxStringLen))
	}
	return string(b)
}

// decPeriod turns stored float bits into a sampling period, refusing
// anything but a finite, non-negative one.
func decPeriod(d *wire.Dec, bits uint64) float64 {
	p := math.Float64frombits(bits)
	if err := sim.CheckPeriod(p); err != nil {
		d.Fail(err)
	}
	return p
}

// validate is the one definition of a well-formed batch. Append refuses what
// fails it and DecodeSegment quarantines what fails it, so whatever Append
// accepts, the next Open reads back.
func (b *Batch) validate() error {
	if b.Machine == "" {
		return errors.New("batch needs a machine label")
	}
	if b.Epoch == 0 {
		return errors.New("batch needs an epoch >= 1")
	}
	if err := sim.CheckPeriod(b.Period); err != nil {
		return err
	}
	if len(b.Machine) > maxStringLen || len(b.Workload) > maxStringLen {
		return fmt.Errorf("batch label longer than %d bytes", maxStringLen)
	}
	for i := range b.Records {
		r := &b.Records[i]
		if len(r.Image) > maxStringLen || len(r.Proc) > maxStringLen {
			return fmt.Errorf("record %d label longer than %d bytes", i, maxStringLen)
		}
		if r.Event >= sim.NumEvents {
			return fmt.Errorf("record %d: bad event %d", i, r.Event)
		}
	}
	return nil
}

// EncodeSegment returns the framed, CRC-stamped encoding of b.
func EncodeSegment(b *Batch) []byte {
	e := newFrame()
	e.Str(b.Machine)
	e.Str(b.Workload)
	e.Uvarint(b.Epoch)
	e.Varint(b.Wall)
	e.Uvarint(math.Float64bits(b.Period))
	e.Count(len(b.Records))
	for _, r := range b.Records {
		e.Str(r.Image)
		e.Str(r.Proc)
		e.Byte(byte(r.Event))
		e.Uvarint(r.Samples)
		e.Uvarint(r.Insts)
	}
	return sealFrame(e.B, Magic, Version)
}

// DecodeSegment decodes one raw segment, verifying magic, version, CRC,
// and that the batch is one Append would have accepted.
func DecodeSegment(raw []byte) (*Batch, error) {
	payload, err := checkFrame(raw, Magic, Version)
	if err != nil {
		return nil, err
	}
	d := wire.Dec{B: payload}
	b := &Batch{Machine: d.Str(), Workload: d.Str(), Epoch: d.Uvarint(), Wall: d.Varint()}
	b.Period = math.Float64frombits(d.Uvarint())
	// A record is at least 5 bytes: two empty labels, the event, two counts.
	b.Records = make([]Record, d.Count(5))
	for i := range b.Records {
		b.Records[i] = Record{
			Image: d.Str(), Proc: d.Str(), Event: sim.Event(d.Byte()),
			Samples: d.Uvarint(), Insts: d.Uvarint(),
		}
	}
	if err = d.Done(); err == nil {
		err = b.validate()
	}
	if err != nil {
		return nil, fmt.Errorf("tsdb: decoding segment: %w", err)
	}
	return b, nil
}
