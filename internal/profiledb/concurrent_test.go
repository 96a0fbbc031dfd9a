package profiledb

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dcpi/internal/sim"
)

// TestConcurrentReadWhileWrite is the read-while-write contract: readers
// opened with OpenReader against a live writer's directory must never
// observe a half-written epoch, never error on in-flight state, and never
// mutate the directory (a writer recovery pass deletes .tmp files; a
// reader must not).
func TestConcurrentReadWhileWrite(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Seed epoch 1 so readers always have something, then plant a fake
	// in-flight temp file a writer's recovery would delete: it must still
	// exist after every concurrent reader is done.
	seed := NewProfile("/bin/app", sim.EvCycles)
	seed.Add(0x10, 1)
	if err := w.Update(seed); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMeta(Meta{Workload: "app", WallCycles: 1}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "epoch-0001", "inflight.prof.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	const epochs = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: keeps appending profiles, sealing epochs, and opening new
	// ones — the dcpid -epochs loop in miniature.
	writerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for e := 2; e <= epochs; e++ {
			if err := w.NewEpoch(); err != nil {
				writerErr <- err
				return
			}
			for i := 0; i < 4; i++ {
				p := NewProfile("/bin/app", sim.EvCycles)
				p.Add(uint64(0x10+4*i), uint64(e))
				if err := w.Update(p); err != nil {
					writerErr <- err
					return
				}
			}
			if err := w.WriteMeta(Meta{Workload: "app", WallCycles: int64(e)}); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	// Readers: hammer OpenReader the whole time. Sealed epochs must read
	// back complete (meta present implies all four profile updates are
	// merged and durable, because the meta is written last).
	readerErrs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db, err := OpenReader(dir)
				if err != nil {
					readerErrs <- err
					return
				}
				es, err := db.Epochs()
				if err != nil {
					readerErrs <- err
					return
				}
				for _, e := range es {
					if !db.Sealed(e) {
						continue
					}
					meta, ok, err := db.MetaAt(e)
					if err != nil || !ok {
						readerErrs <- err
						return
					}
					profiles, err := db.ProfilesAt(e)
					if err != nil {
						readerErrs <- err
						return
					}
					var total uint64
					for _, p := range profiles {
						total += p.Total()
					}
					wantTotal := uint64(meta.WallCycles)
					if e > 1 {
						wantTotal = 4 * uint64(e)
					}
					if total != wantTotal {
						t.Errorf("sealed epoch %d read back %d samples, want %d", e, total, wantTotal)
						readerErrs <- nil
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}
	select {
	case err := <-readerErrs:
		t.Fatalf("reader: %v", err)
	default:
	}

	if _, err := os.Stat(stale); err != nil {
		t.Errorf("reader mutated the database: planted .tmp file gone (%v)", err)
	}

	// A writer reopening the directory still recovers its current epoch
	// (deleting stale temp files) — read-only restraint is a property of
	// OpenReader alone, not a regression of writer recovery.
	staleLatest := filepath.Join(dir, "epoch-0040", "inflight.prof.tmp")
	if err := os.WriteFile(staleLatest, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(staleLatest); !os.IsNotExist(err) {
		t.Errorf("writer Open did not clean the stale .tmp (err=%v)", err)
	}
}
