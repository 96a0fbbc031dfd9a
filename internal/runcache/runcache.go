// Package runcache is the persistent tier of the evaluation run cache: a
// content-addressed, crash-safe store of serialized run results that
// survives across dcpieval invocations. Entries are keyed by the run's
// content key (runner.Key — every semantic Config field) plus a version
// stamp (dcpi.CacheStamp — simulator generation and snapshot layout), so a
// warm cache replays exactly the runs an identical binary would simulate
// and goes cold wholesale whenever either the simulator's semantics or the
// blob encoding change.
//
// Durability and safety come from three mechanisms:
//
//   - Writes go through atomicio.WriteFile (temp+fsync+rename), the same
//     protocol profiledb uses, so a crash mid-Put leaves the old entry (or
//     no entry) — never a torn one.
//   - Every entry carries a magic number, format version, stamp, its own
//     key, and a CRC32 over all of it. Get verifies all five; any mismatch
//     — truncation, bit rot, a hash collision between keys, a stale stamp —
//     quarantines the file by renaming it to ".bad" and reports a miss, so
//     corruption can cost a re-simulation but can never produce wrong
//     output.
//   - The cache is size-capped: after each Put, least-recently-used
//     entries (by file mtime; Get touches entries on hit) are evicted
//     until the total is back under MaxBytes.
//
// The directory is also how results cross a process boundary: several
// processes may share one (`dcpieval -shard i/N` workers, or dcpieval and
// dcpiwhatif over one $DCPI_CACHE_DIR), and because an entry's file name is
// a hash of stamp and key, copying one directory's *.run files into another
// merges them.
package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcpi/internal/atomicio"
	"dcpi/internal/obs"
	"dcpi/internal/wire"
)

const (
	entryMagic = "DCPIRUNC"
	// formatVersion stamps the entry framing itself (magic, header layout,
	// CRC placement) — independent of the payload's own version.
	formatVersion = 1
	// DefaultMaxBytes caps the cache at 2 GiB unless overridden.
	DefaultMaxBytes = 2 << 30
)

// Options configures Open.
type Options struct {
	// MaxBytes caps the total size of cache entries; 0 means
	// DefaultMaxBytes, negative disables eviction.
	MaxBytes int64
	// Stamp is the version stamp entries are bound to (dcpi.CacheStamp()).
	// Entries written under any other stamp read as misses.
	Stamp string
	// Obs receives hit/miss/eviction/size gauges via PublishMetrics.
	Obs obs.Hooks
}

// Stats counts cache traffic since Open.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Puts        uint64
	Evictions   uint64
	Quarantined uint64
}

// Cache is a directory of persisted run results. Safe for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64
	stamp    string
	hooks    obs.Hooks

	mu    sync.Mutex
	stats Stats
	bytes int64 // total size of *.run entries, maintained incrementally
}

// Open creates dir if needed, sweeps leftovers from crashed writers
// (".tmp" files), and returns a cache bound to opts.Stamp.
func Open(dir string, opts Options) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, maxBytes: opts.MaxBytes, stamp: opts.Stamp, hooks: opts.Obs}
	if c.maxBytes == 0 {
		c.maxBytes = DefaultMaxBytes
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".tmp":
			os.Remove(filepath.Join(dir, e.Name()))
		case ".run":
			if info, err := e.Info(); err == nil {
				c.bytes += info.Size()
			}
		}
	}
	return c, nil
}

// Path returns the cache directory.
func (c *Cache) Path() string { return c.dir }

// entryPath addresses a key: a truncated sha256 of stamp+key keeps names
// filesystem-safe regardless of what the key contains. Collisions are
// harmless — the full key is stored inside the entry and verified on read.
func (c *Cache) entryPath(key string) string {
	sum := sha256.Sum256([]byte(c.stamp + "\x00" + key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:12])+".run")
}

// Get returns the payload stored under key, or ok=false on any miss —
// absent, stale stamp, or corrupt (corrupt entries are quarantined).
func (c *Cache) Get(key string) ([]byte, bool) {
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	// A key mismatch is a hash collision between file names, or tampering.
	gotKey, payload, err := decodeEntry(raw, c.stamp)
	if err != nil || gotKey != key {
		c.quarantine(path)
		c.count(func(s *Stats) { s.Misses++; s.Quarantined++ })
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // refresh LRU position; best-effort
	c.count(func(s *Stats) { s.Hits++ })
	return payload, true
}

// Put stores payload under key, evicting least-recently-used entries if
// the cache exceeds its size cap afterwards.
func (c *Cache) Put(key string, payload []byte) error {
	path := c.entryPath(key)
	var prev int64
	if info, err := os.Stat(path); err == nil {
		prev = info.Size()
	}
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(encodeEntry(c.stamp, key, payload))
		return err
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Puts++
	c.bytes += info.Size() - prev
	c.mu.Unlock()
	c.evict()
	c.publish()
	return nil
}

// Quarantine moves the entry for key aside as ".bad" (used by callers
// whose payload decode fails after a framing-valid Get).
func (c *Cache) Quarantine(key string) {
	c.quarantine(c.entryPath(key))
	c.count(func(s *Stats) { s.Quarantined++ })
}

func (c *Cache) quarantine(path string) {
	if err := os.Rename(path, path+".bad"); err != nil {
		os.Remove(path) // rename failed (e.g. .bad exists): drop instead
	}
	if info, err := os.Stat(path + ".bad"); err == nil {
		c.mu.Lock()
		c.bytes -= info.Size()
		c.mu.Unlock()
	}
}

// evict removes oldest-mtime entries until total size fits maxBytes.
func (c *Cache) evict() {
	c.mu.Lock()
	over := c.maxBytes > 0 && c.bytes > c.maxBytes
	c.mu.Unlock()
	if !over {
		return
	}
	type ent struct {
		path  string
		size  int64
		mtime int64
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	var ents []ent
	var total int64
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".run" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		ents = append(ents, ent{filepath.Join(c.dir, de.Name()), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime < ents[j].mtime })
	var evicted uint64
	for _, e := range ents {
		if total <= c.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			evicted++
		}
	}
	c.mu.Lock()
	c.bytes = total
	c.stats.Evictions += evicted
	c.mu.Unlock()
}

// Stats returns a snapshot of cache traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SizeBytes returns the current total size of live entries.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// PublishMetrics exports the cache counters as runcache.* gauges.
func (c *Cache) PublishMetrics() {
	c.publish()
}

func (c *Cache) publish() {
	reg := c.hooks.Registry
	if reg == nil {
		return
	}
	c.mu.Lock()
	s, b := c.stats, c.bytes
	c.mu.Unlock()
	reg.Gauge("runcache.hits").Set(float64(s.Hits))
	reg.Gauge("runcache.misses").Set(float64(s.Misses))
	reg.Gauge("runcache.puts").Set(float64(s.Puts))
	reg.Gauge("runcache.evictions").Set(float64(s.Evictions))
	reg.Gauge("runcache.quarantined").Set(float64(s.Quarantined))
	reg.Gauge("runcache.bytes").Set(float64(b))
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
	c.publish()
}

// --- entry framing ---------------------------------------------------------

// encodeEntry returns: magic, then a varint-framed header (format version,
// stamp, key, payload length), the payload, and a CRC32 (IEEE) over
// everything before it.
func encodeEntry(stamp, key string, payload []byte) []byte {
	e := wire.Enc{B: make([]byte, 0, len(entryMagic)+len(stamp)+len(key)+len(payload)+32)}
	e.B = append(e.B, entryMagic...)
	e.Uvarint(formatVersion)
	e.Str(stamp)
	e.Str(key)
	e.Bytes(payload)
	return binary.LittleEndian.AppendUint32(e.B, crc32.ChecksumIEEE(e.B))
}

// decodeEntry verifies the framing of raw — CRC, magic, version, stamp,
// field lengths, no trailing bytes — and returns the embedded key and the
// payload (aliasing raw). The cache checks the key against the one it looked
// up.
func decodeEntry(raw []byte, stamp string) (key string, payload []byte, err error) {
	if len(raw) < len(entryMagic)+4 {
		return "", nil, fmt.Errorf("entry too short (%d bytes)", len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return "", nil, errors.New("CRC mismatch")
	}
	if string(body[:len(entryMagic)]) != entryMagic {
		return "", nil, errors.New("bad entry magic")
	}
	d := wire.Dec{B: body[len(entryMagic):]}
	if v := d.Uvarint(); d.Err == nil && v != formatVersion {
		return "", nil, fmt.Errorf("entry format version %d, want %d", v, formatVersion)
	}
	gotStamp := d.Str()
	key = d.Str()
	payload = d.Bytes()
	if err := d.Done(); err != nil {
		return "", nil, err
	}
	if gotStamp != stamp {
		return "", nil, fmt.Errorf("entry stamp %q, want %q", gotStamp, stamp)
	}
	return key, payload, nil
}
