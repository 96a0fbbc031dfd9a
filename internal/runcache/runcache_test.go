package runcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcpi/internal/obs"
)

const testStamp = "sim-test/snap-1"

func openTest(t *testing.T, opts Options) *Cache {
	t.Helper()
	if opts.Stamp == "" {
		opts.Stamp = testStamp
	}
	c, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTest(t, Options{})
	key := "w=gcc|scale=0.1|mode=2"
	payload := []byte("serialized run result")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", s)
	}
}

func TestCacheSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, Options{Stamp: testStamp})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, Options{Stamp: testStamp})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("entry lost across reopen: %q, %v", got, ok)
	}
	if c2.SizeBytes() == 0 {
		t.Error("reopened cache did not recover entry sizes")
	}
}

func TestStampMismatchMisses(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, Options{Stamp: "sim-1/snap-1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A new simulator generation addresses different entry files entirely
	// (the stamp is part of the address), so old entries read as misses.
	c2, err := Open(dir, Options{Stamp: "sim-2/snap-1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k"); ok {
		t.Error("stale-stamp entry served as a hit")
	}
}

func corruptEntry(t *testing.T, c *Cache, key string, mutate func([]byte) []byte) string {
	t.Helper()
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTruncatedEntryQuarantined(t *testing.T) {
	c := openTest(t, Options{})
	if err := c.Put("k", bytes.Repeat([]byte("x"), 256)); err != nil {
		t.Fatal(err)
	}
	path := corruptEntry(t, c, "k", func(b []byte) []byte { return b[:len(b)/2] })
	if _, ok := c.Get("k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("truncated entry not quarantined: %v", err)
	}
	if s := c.Stats(); s.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", s.Quarantined)
	}
	// The slot is usable again after re-simulation.
	if err := c.Put("k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("k"); !ok || string(got) != "fresh" {
		t.Errorf("re-put after quarantine failed: %q, %v", got, ok)
	}
}

func TestBitFlipQuarantined(t *testing.T) {
	c := openTest(t, Options{})
	if err := c.Put("k", bytes.Repeat([]byte("y"), 256)); err != nil {
		t.Fatal(err)
	}
	path := corruptEntry(t, c, "k", func(b []byte) []byte {
		b[len(b)/2] ^= 0x40
		return b
	})
	if _, ok := c.Get("k"); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("bit-flipped entry not quarantined: %v", err)
	}
}

func TestExplicitQuarantine(t *testing.T) {
	c := openTest(t, Options{})
	if err := c.Put("k", []byte("valid framing, bad payload")); err != nil {
		t.Fatal(err)
	}
	c.Quarantine("k")
	if _, ok := c.Get("k"); ok {
		t.Error("quarantined entry served as a hit")
	}
	if _, err := os.Stat(c.entryPath("k") + ".bad"); err != nil {
		t.Errorf("entry not moved aside: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Entries are ~300 bytes with framing; cap at ~3 entries' worth.
	c, err := Open(dir, Options{Stamp: testStamp, MaxBytes: 1100})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("z"), 256)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		// Backdate so LRU order is deterministic: k0 oldest.
		mt := base.Add(time.Duration(i) * time.Minute)
		os.Chtimes(c.entryPath(key), mt, mt)
	}
	// Touch k0 via Get: now k1 is the LRU entry.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := c.Put("k3", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("LRU entry k1 survived eviction")
	}
	for _, key := range []string{"k0", "k3"} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("recently used entry %s was evicted", key)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Error("no evictions counted")
	}
	if c.SizeBytes() > 1100 {
		t.Errorf("cache size %d exceeds cap", c.SizeBytes())
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "deadbeef.run.tmp")
	if err := os.WriteFile(tmp, []byte("partial write from a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Stamp: testStamp}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("crashed writer's temp file not swept")
	}
}

func TestPublishMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := openTest(t, Options{Obs: obs.Hooks{Registry: reg}})
	c.Put("k", []byte("v"))
	c.Get("k")
	c.Get("absent")
	c.PublishMetrics()
	if v := reg.Gauge("runcache.hits").Value(); v != 1 {
		t.Errorf("runcache.hits = %v, want 1", v)
	}
	if v := reg.Gauge("runcache.misses").Value(); v != 1 {
		t.Errorf("runcache.misses = %v, want 1", v)
	}
	if v := reg.Gauge("runcache.bytes").Value(); v <= 0 {
		t.Errorf("runcache.bytes = %v, want > 0", v)
	}
}
