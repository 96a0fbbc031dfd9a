// Package profiledb implements the on-disk profile database of paper §4.3.3:
// samples organized into non-overlapping epochs, one compact binary file per
// (image, event) pair, merged incrementally as the daemon flushes. Profiles
// are typically much smaller than their images because only executed
// offsets appear, and offsets are delta-varint encoded.
package profiledb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dcpi/internal/atomicio"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

// Magic identifies a profile file.
var Magic = [8]byte{'D', 'C', 'P', 'I', 'P', 'R', 'O', 'F'}

// Version is the current file-format version.
const Version = 1

// Profile is the per-(image, event) sample map: byte offset within the
// image to accumulated count.
type Profile struct {
	ImagePath string
	Event     sim.Event
	Counts    map[uint64]uint64
}

// NewProfile creates an empty profile.
func NewProfile(imagePath string, ev sim.Event) *Profile {
	return &Profile{ImagePath: imagePath, Event: ev, Counts: make(map[uint64]uint64)}
}

// Add accumulates n samples at offset.
func (p *Profile) Add(offset, n uint64) {
	p.Counts[offset] += n
}

// Merge folds other into p. The image path and event must match.
func (p *Profile) Merge(other *Profile) error {
	if other.ImagePath != p.ImagePath || other.Event != p.Event {
		return fmt.Errorf("profiledb: merge mismatch: %s/%v vs %s/%v",
			p.ImagePath, p.Event, other.ImagePath, other.Event)
	}
	for off, n := range other.Counts {
		p.Counts[off] += n
	}
	return nil
}

// Total returns the sum of all counts.
func (p *Profile) Total() uint64 {
	var t uint64
	for _, n := range p.Counts {
		t += n
	}
	return t
}

// Encode returns the version-1 encoding of the profile. Offsets are sorted
// and delta-encoded, counts are varints; the result is typically an order of
// magnitude smaller than the image.
func (p *Profile) Encode() []byte {
	buf := make([]byte, 0, 32+len(p.ImagePath)+4*len(p.Counts))
	e := wire.Enc{B: appendHeader(buf, Version, p.Event)}
	p.encodePayload(&e)
	return e.B
}

// Write writes the version-1 encoding (see Encode) to w.
func (p *Profile) Write(w io.Writer) error {
	_, err := w.Write(p.Encode())
	return err
}

// appendHeader appends the 12 bytes both formats start with: magic, u16
// version, event, one byte of padding.
func appendHeader(b []byte, version uint16, ev sim.Event) []byte {
	b = append(b, Magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, version)
	return append(b, byte(ev), 0)
}

// encodePayload appends the image path and the sorted delta-varint
// (offset, count) pairs: the whole of a version-1 file after its header,
// and what version 2 compresses.
func (p *Profile) encodePayload(e *wire.Enc) {
	offsets := make([]uint64, 0, len(p.Counts))
	for off := range p.Counts {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	e.Str(p.ImagePath)
	e.Count(len(offsets))
	var prev uint64
	for _, off := range offsets {
		e.Uvarint(off - prev)
		e.Uvarint(p.Counts[off])
		prev = off
	}
}

// DecodeProfile decodes a profile written by Write (version 1) or
// WriteCompressed (version 2). Bytes after the encoded profile are ignored.
func DecodeProfile(raw []byte) (*Profile, error) {
	d := wire.Dec{B: raw}
	hdr := d.Raw(12)
	if d.Err != nil {
		return nil, fmt.Errorf("profiledb: reading header: %w", d.Err)
	}
	if !bytes.Equal(hdr[:8], Magic[:]) {
		return nil, errors.New("profiledb: bad magic")
	}
	ev := sim.Event(hdr[10])
	if ev >= sim.NumEvents {
		return nil, fmt.Errorf("profiledb: bad event %d", hdr[10])
	}
	switch v := binary.LittleEndian.Uint16(hdr[8:]); v {
	case Version:
		return decodePayload(&d, ev)
	case VersionCompressed:
		return readCompressed(&d, ev)
	default:
		return nil, fmt.Errorf("profiledb: unsupported version %d", v)
	}
}

// DB is a profile database rooted at a directory, organized into epochs.
type DB struct {
	root        string
	epoch       int
	readOnly    bool
	quarantined int // files quarantined by recovery passes over this DB's lifetime
}

// Open opens (or creates) a database for writing, resuming the latest
// epoch. It runs a recovery pass over that epoch, so a database left
// behind by a crashed writer opens with its intact profiles loadable and
// any torn file quarantined rather than failing every subsequent read.
//
// Epochs are dense from 1: Open creates epoch 1 or resumes the latest,
// NewEpoch creates the one after the current, and nothing in this package
// removes an epoch. EpochsAfter relies on it to find new epochs without
// listing the root, and falls back to a listing where an operator has
// broken it by hand.
//
// Open assumes it is the only writer: its recovery pass deletes .tmp files
// and renames undecodable profiles, which would sabotage a live daemon
// mid-write. Concurrent readers (the HTTP exposition endpoint, dcpicollect
// scrapes, offline tools pointed at a live database) must use OpenReader,
// which never mutates the directory.
func Open(root string) (*DB, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	db := &DB{root: root}
	latest, err := db.latestEpoch()
	if err != nil {
		return nil, err
	}
	if latest == 0 {
		latest = 1
	}
	db.epoch = latest
	if err := os.MkdirAll(db.epochDir(latest), 0o755); err != nil {
		return nil, err
	}
	if _, err := db.Recover(); err != nil {
		return nil, err
	}
	return db, nil
}

// OpenReader opens an existing database read-only, positioned at the
// latest epoch. It performs no recovery and no directory creation, so it
// is safe to call on a directory a live daemon is appending to: individual
// profile files are replaced atomically (temp+fsync+rename), so every read
// observes either the previous or the new complete content, and the
// daemon's in-flight .tmp files are left alone. Mutating methods (Update,
// NewEpoch, WriteMeta, Recover) fail on a reader handle.
func OpenReader(root string) (*DB, error) {
	db := &DB{root: root, readOnly: true}
	latest, err := db.latestEpoch()
	if err != nil {
		return nil, err
	}
	if latest == 0 {
		return nil, fmt.Errorf("profiledb: %s has no epochs", root)
	}
	db.epoch = latest
	return db, nil
}

// errReadOnly is returned by mutating methods on an OpenReader handle.
var errReadOnly = errors.New("profiledb: database opened read-only")

// latestEpoch scans root for the highest epoch directory (0 if none).
func (db *DB) latestEpoch() (int, error) {
	entries, err := os.ReadDir(db.root)
	if err != nil {
		return 0, err
	}
	latest := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, ok := parseEpochName(e.Name()); ok && n > latest {
			latest = n
		}
	}
	return latest, nil
}

// Epochs lists every epoch present in the database, ascending. On a
// database with a live writer the last entry may still be growing; a
// sealed epoch (see Sealed) is immutable.
func (db *DB) Epochs() ([]int, error) {
	entries, err := os.ReadDir(db.root)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n, ok := parseEpochName(e.Name()); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// EpochsAfter lists the epochs above n, ascending: Epochs()[n:] on a dense
// database (see Open). It stats epoch n+1, n+2, … and stops at the first
// one missing, so it costs what it returns, not what the database holds.
// Only when epoch n+1 itself is missing — nothing new yet, or a hole an
// operator pruned — does it list the root and keep what lies above n, so a
// hole delays a caller walking up from n and never stalls one.
func (db *DB) EpochsAfter(n int) ([]int, error) {
	var out []int
	for e := max(n, 0) + 1; db.isEpoch(e); e++ {
		out = append(out, e)
	}
	if len(out) > 0 {
		return out, nil
	}
	all, err := db.Epochs()
	if err != nil {
		return nil, err
	}
	return all[sort.SearchInts(all, n+1):], nil
}

// isEpoch reports whether epoch's directory exists.
func (db *DB) isEpoch(epoch int) bool {
	fi, err := os.Stat(db.epochDir(epoch))
	return err == nil && fi.IsDir()
}

// Sealed reports whether an epoch has been sealed: its collection metadata
// is on disk. The daemon writes epoch.meta last — after the final flush
// and merge — so a sealed epoch's profiles never change again. Scrapers
// use this to ingest each epoch exactly once, without ever observing a
// half-written one.
func (db *DB) Sealed(epoch int) bool {
	_, err := os.Stat(filepath.Join(db.epochDir(epoch), metaFile))
	return err == nil
}

// parseEpochName parses an epoch directory name strictly: "epoch-" followed
// by decimal digits only. (fmt.Sscanf prefix-matching accepted junk like
// "epoch-12x" as epoch 12.)
func parseEpochName(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "epoch-")
	if !ok || digits == "" {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Epoch returns the current epoch number.
func (db *DB) Epoch() int { return db.epoch }

func (db *DB) epochDir(epoch int) string {
	return filepath.Join(db.root, fmt.Sprintf("epoch-%04d", epoch))
}

// NewEpoch starts a fresh epoch; subsequent updates land there.
func (db *DB) NewEpoch() error {
	if db.readOnly {
		return errReadOnly
	}
	db.epoch++
	return os.MkdirAll(db.epochDir(db.epoch), 0o755)
}

// pathMangler turns an image path's separators into underscores. It is
// built once: every Update, Path and LoadAt names a file through it.
var pathMangler = strings.NewReplacer("/", "_", "\\", "_", ":", "_")

// fileName mangles an image path and event into a profile file name, the
// way DCPI stores one file per (image, event) combination.
func fileName(imagePath string, ev sim.Event) string {
	mangled := pathMangler.Replace(strings.TrimPrefix(imagePath, "/"))
	return mangled + "." + ev.String() + ".prof"
}

// Path returns the on-disk path for (imagePath, ev) in the current epoch.
func (db *DB) Path(imagePath string, ev sim.Event) string {
	return filepath.Join(db.epochDir(db.epoch), fileName(imagePath, ev))
}

// Update merges p into the on-disk profile for its (image, event) in the
// current epoch.
func (db *DB) Update(p *Profile) error {
	if db.readOnly {
		return errReadOnly
	}
	path := db.Path(p.ImagePath, p.Event)
	merged := p
	if existing, err := readFile(path); err == nil {
		if err := existing.Merge(p); err != nil {
			return err
		}
		merged = existing
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("profiledb: re-reading %s: %w", path, err)
	}

	return writeFileAtomic(path, merged.Write)
}

// writeFileAtomic is atomicio.WriteFile (temp+fsync+rename); it lives in
// internal/atomicio so the run cache shares the same crash-safety protocol.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	return atomicio.WriteFile(path, write)
}

// readFile reads and decodes the profile file at path.
func readFile(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeProfile(raw)
}

// RecoveryReport summarizes what a recovery pass found.
type RecoveryReport struct {
	Quarantined []string // unreadable profiles renamed aside as NAME.bad
	Removed     []string // stale temp files deleted
}

// Recover scans the current epoch for the damage a crashed writer can leave
// behind: profile files that no longer decode are quarantined by renaming
// them to NAME.bad (keeping the bytes for post-mortem but hiding them from
// Profiles/Load), and stale .tmp files are deleted. Intact profiles are
// untouched, so a restarted daemon resumes merging into a consistent epoch.
func (db *DB) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	if db.readOnly {
		return rep, errReadOnly
	}
	dir := db.epochDir(db.epoch)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		full := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if err := os.Remove(full); err != nil {
				return rep, err
			}
			rep.Removed = append(rep.Removed, name)
		case strings.HasSuffix(name, ".prof"):
			raw, err := os.ReadFile(full)
			if err != nil {
				return rep, err
			}
			if _, err := DecodeProfile(raw); err == nil {
				continue
			}
			if err := os.Rename(full, full+".bad"); err != nil {
				return rep, err
			}
			rep.Quarantined = append(rep.Quarantined, name)
		}
	}
	db.quarantined += len(rep.Quarantined)
	return rep, nil
}

// WriteTorn deliberately leaves a torn profile file for (fault-injection)
// crash tests: it writes only the first half of p's encoding directly at
// the final path — the state a crash leaves when a writer skipped the
// temp+rename protocol, or when the rename hit disk before the data blocks.
// It returns the raw-sample total the file's previous content held, since
// that already-merged data is destroyed along with the torn write.
func (db *DB) WriteTorn(p *Profile) (destroyed uint64, err error) {
	prior, err := db.Load(p.ImagePath, p.Event)
	if err == nil {
		destroyed = prior.Total()
	}
	enc := p.Encode()
	return destroyed, os.WriteFile(db.Path(p.ImagePath, p.Event), enc[:len(enc)/2], 0o644)
}

// Load reads the profile for (imagePath, ev) from the current epoch,
// returning an empty profile if none exists.
func (db *DB) Load(imagePath string, ev sim.Event) (*Profile, error) {
	return db.LoadAt(db.epoch, imagePath, ev)
}

// Profiles lists every profile in the current epoch.
func (db *DB) Profiles() ([]*Profile, error) {
	return db.ProfilesAt(db.epoch)
}

// ProfilesAt lists every profile in the given epoch. Reading an epoch a
// live daemon is merging into is safe — each file is replaced atomically —
// but the set of files (and their counts) can differ between two calls;
// read sealed epochs for stable results.
func (db *DB) ProfilesAt(epoch int) ([]*Profile, error) {
	dir := db.epochDir(epoch)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Profile
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".prof") {
			continue
		}
		p, err := readFile(filepath.Join(dir, e.Name()))
		if errors.Is(err, os.ErrNotExist) {
			// Listed before an atomic replace, gone after: the file was
			// renamed aside by a writer's recovery. Skip it.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("profiledb: %s: %w", e.Name(), err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ImagePath != out[j].ImagePath {
			return out[i].ImagePath < out[j].ImagePath
		}
		return out[i].Event < out[j].Event
	})
	return out, nil
}

// LoadAt reads the profile for (imagePath, ev) from the given epoch,
// returning an empty profile if none exists.
func (db *DB) LoadAt(epoch int, imagePath string, ev sim.Event) (*Profile, error) {
	p, err := readFile(filepath.Join(db.epochDir(epoch), fileName(imagePath, ev)))
	if errors.Is(err, os.ErrNotExist) {
		return NewProfile(imagePath, ev), nil
	}
	return p, err
}

// DiskUsage returns the total bytes of all profile files in all epochs
// (Table 5's disk column).
func (db *DB) DiskUsage() (int64, error) {
	var total int64
	err := filepath.Walk(db.root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(info.Name(), ".prof") {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// PublishMetrics writes the database's self-measurements into reg (Table
// 5's disk column as machine-readable keys). It is best-effort: an
// unreadable directory simply leaves the gauges at their defaults.
func (db *DB) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("db.epoch").Set(float64(db.epoch))
	reg.Gauge("db.quarantined_files").Set(float64(db.quarantined))
	if disk, err := db.DiskUsage(); err == nil {
		reg.Gauge("db.disk_bytes").Set(float64(disk))
	}
	if profiles, err := db.Profiles(); err == nil {
		reg.Gauge("db.profiles").Set(float64(len(profiles)))
	}
}
