package dcpi

import (
	"testing"

	"dcpi/internal/sim"
)

// BenchmarkRehydrate times DecodeSnapshot on a typical cache entry: "hit"
// with the shape's shell already in the shared table (every rehydration of a
// sweep but the first of each shape), "first-build" with the shell evicted
// before each decode (what every rehydration cost when each rebuilt its own
// images, less the data fill).
func BenchmarkRehydrate(b *testing.B) {
	cfg := Config{Workload: "wave5", Scale: 0.05, Mode: sim.ModeCycles, Seed: 1}
	live, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := EncodeSnapshot(live)
	if err != nil {
		b.Fatal(err)
	}
	decode := func(b *testing.B) {
		if _, err := DecodeSnapshot(blob, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		decode(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode(b)
		}
	})
	b.Run("first-build", func(b *testing.B) {
		key := shellKey(cfg, cfg.Scale, 1)
		if _, ok := shells.Load(key); !ok {
			b.Fatalf("no shell under %q: the benchmark evicts the wrong key", key)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shells.Delete(key)
			decode(b)
		}
	})
}
