package profiledb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"dcpi/internal/sim"
)

func TestProfileRoundTrip(t *testing.T) {
	p := NewProfile("/usr/shlib/libm.so", sim.EvCycles)
	p.Add(0, 5)
	p.Add(4096, 100)
	p.Add(8, 1)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ImagePath != p.ImagePath || got.Event != p.Event {
		t.Errorf("header = %s/%v", got.ImagePath, got.Event)
	}
	if len(got.Counts) != 3 || got.Counts[4096] != 100 || got.Counts[8] != 1 || got.Counts[0] != 5 {
		t.Errorf("counts = %v", got.Counts)
	}
}

// Property: arbitrary profiles round-trip exactly.
func TestProfileRoundTripProperty(t *testing.T) {
	f := func(offsets []uint32, counts []uint16) bool {
		p := NewProfile("/bin/x", sim.EvIMiss)
		for i, off := range offsets {
			n := uint64(1)
			if len(counts) > 0 {
				n = uint64(counts[i%len(counts)]) + 1
			}
			p.Add(uint64(off)*4, n)
		}
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			return false
		}
		got, err := DecodeProfile(buf.Bytes())
		if err != nil {
			return false
		}
		if len(got.Counts) != len(p.Counts) {
			return false
		}
		for off, n := range p.Counts {
			if got.Counts[off] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := DecodeProfile([]byte("not a profile at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeProfile(nil); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated valid prefix.
	p := NewProfile("/bin/x", sim.EvCycles)
	p.Add(100, 7)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := DecodeProfile(trunc); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestMergeMismatch(t *testing.T) {
	a := NewProfile("/bin/a", sim.EvCycles)
	b := NewProfile("/bin/b", sim.EvCycles)
	if err := a.Merge(b); err == nil {
		t.Error("cross-image merge accepted")
	}
	c := NewProfile("/bin/a", sim.EvIMiss)
	if err := a.Merge(c); err == nil {
		t.Error("cross-event merge accepted")
	}
	d := NewProfile("/bin/a", sim.EvCycles)
	d.Add(4, 2)
	a.Add(4, 1)
	if err := a.Merge(d); err != nil {
		t.Fatal(err)
	}
	if a.Counts[4] != 3 {
		t.Errorf("merged count = %d", a.Counts[4])
	}
	if a.Total() != 3 {
		t.Errorf("total = %d", a.Total())
	}
}

func TestDBUpdateAndLoad(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfile("/usr/shlib/X11/libos.so", sim.EvCycles)
	p.Add(16, 3)
	if err := db.Update(p); err != nil {
		t.Fatal(err)
	}
	// Second update merges.
	q := NewProfile("/usr/shlib/X11/libos.so", sim.EvCycles)
	q.Add(16, 2)
	q.Add(32, 9)
	if err := db.Update(q); err != nil {
		t.Fatal(err)
	}
	got, err := db.Load("/usr/shlib/X11/libos.so", sim.EvCycles)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts[16] != 5 || got.Counts[32] != 9 {
		t.Errorf("counts = %v", got.Counts)
	}
	// Missing profile loads empty.
	empty, err := db.Load("/nonexistent", sim.EvCycles)
	if err != nil || len(empty.Counts) != 0 {
		t.Errorf("missing profile: %v, %v", empty, err)
	}
}

func TestDBSeparateFilesPerImageAndEvent(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []sim.Event{sim.EvCycles, sim.EvIMiss} {
		for _, img := range []string{"/vmunix", "/bin/app"} {
			p := NewProfile(img, ev)
			p.Add(0, 1)
			if err := db.Update(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	all, err := db.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("profiles = %d, want 4", len(all))
	}
	// Sorted by path then event.
	if all[0].ImagePath != "/bin/app" || all[0].Event != sim.EvCycles {
		t.Errorf("first profile = %s/%v", all[0].ImagePath, all[0].Event)
	}
}

func TestDBEpochs(t *testing.T) {
	root := t.TempDir()
	db, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 1 {
		t.Errorf("initial epoch = %d", db.Epoch())
	}
	p := NewProfile("/bin/app", sim.EvCycles)
	p.Add(0, 1)
	if err := db.Update(p); err != nil {
		t.Fatal(err)
	}
	if err := db.NewEpoch(); err != nil {
		t.Fatal(err)
	}
	// The new epoch is empty.
	got, err := db.Load("/bin/app", sim.EvCycles)
	if err != nil || len(got.Counts) != 0 {
		t.Errorf("new epoch should be empty: %v %v", got.Counts, err)
	}
	// Reopening resumes the latest epoch.
	db2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Epoch() != 2 {
		t.Errorf("reopened epoch = %d", db2.Epoch())
	}
}

func TestDiskUsage(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.DiskUsage(); err != nil || n != 0 {
		t.Errorf("empty usage = %d, %v", n, err)
	}
	p := NewProfile("/bin/app", sim.EvCycles)
	for i := uint64(0); i < 1000; i++ {
		p.Add(i*4, i+1)
	}
	if err := db.Update(p); err != nil {
		t.Fatal(err)
	}
	n, err := db.DiskUsage()
	if err != nil || n <= 0 {
		t.Fatalf("usage = %d, %v", n, err)
	}
	// Compactness: 1000 hot instructions = 4KB of code; the profile should
	// be within the same order of magnitude, not 16 bytes per sample.
	if n > 8000 {
		t.Errorf("profile size = %d bytes for 1000 entries, not compact", n)
	}
}

func TestCompactness(t *testing.T) {
	// Dense consecutive offsets with small counts: ~2 bytes per entry.
	p := NewProfile("/bin/app", sim.EvCycles)
	for i := uint64(0); i < 10000; i++ {
		p.Add(i*4, 3)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	perEntry := float64(buf.Len()) / 10000
	if perEntry > 3 {
		t.Errorf("bytes per entry = %.2f, want <= 3", perEntry)
	}
}

func TestFileNameMangling(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := db.Path("/usr/shlib/X11/lib_dec_ffb_ev5.so", sim.EvCycles)
	base := filepath.Base(path)
	if base != "usr_shlib_X11_lib_dec_ffb_ev5.so.cycles.prof" {
		t.Errorf("file name = %q", base)
	}
	// Update must actually create that file.
	p := NewProfile("/usr/shlib/X11/lib_dec_ffb_ev5.so", sim.EvCycles)
	p.Add(0, 1)
	if err := db.Update(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("profile file missing: %v", err)
	}
}

func TestParseEpochNameStrict(t *testing.T) {
	good := map[string]int{"epoch-1": 1, "epoch-0004": 4, "epoch-12": 12}
	for name, want := range good {
		if n, ok := parseEpochName(name); !ok || n != want {
			t.Errorf("parseEpochName(%q) = %d, %v; want %d", name, n, ok, want)
		}
	}
	for _, name := range []string{
		"epoch-12x", "epoch-", "epoch-+3", "epoch--3", "epoch-1 2", "epoch", "x-3", "epoch-0",
	} {
		if n, ok := parseEpochName(name); ok {
			t.Errorf("parseEpochName(%q) accepted as %d", name, n)
		}
	}
}

func TestOpenIgnoresJunkEpochDirs(t *testing.T) {
	dir := t.TempDir()
	// Sscanf prefix matching used to read "epoch-12x" as epoch 12; strict
	// parsing must ignore it (and non-directories) and resume epoch 2.
	for _, d := range []string{"epoch-0001", "epoch-0002", "epoch-12x", "notes"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "epoch-9"), nil, 0o644); err != nil {
		t.Fatal(err) // a *file* named like an epoch must not count either
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", db.Epoch())
	}
}

func TestOpenQuarantinesCorruptProfiles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	intact := NewProfile("/bin/app", sim.EvCycles)
	intact.Add(16, 3)
	if err := db.Update(intact); err != nil {
		t.Fatal(err)
	}
	// A truncated file (torn write) and a stale temp file, as a crashed
	// writer would leave them.
	var buf bytes.Buffer
	other := NewProfile("/bin/other", sim.EvCycles)
	other.Add(8, 5)
	if err := other.Write(&buf); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "epoch-0001", "bin_other.cycles.prof")
	if err := os.WriteFile(torn, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "epoch-0001", "bin_x.cycles.prof.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with corrupt profile failed: %v", err)
	}
	profs, err := db2.Profiles()
	if err != nil {
		t.Fatalf("Profiles after recovery: %v", err)
	}
	if len(profs) != 1 || profs[0].ImagePath != "/bin/app" || profs[0].Counts[16] != 3 {
		t.Errorf("intact profiles after recovery = %+v", profs)
	}
	if _, err := os.Stat(torn + ".bad"); err != nil {
		t.Errorf("torn file not quarantined: %v", err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn file still present: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file not removed: %v", err)
	}
}

func TestRecoverReport(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := db.Recover(); err != nil || len(rep.Quarantined)+len(rep.Removed) != 0 {
		t.Errorf("recovery on clean epoch = %+v, %v", rep, err)
	}
	bad := filepath.Join(dir, "epoch-0001", "junk.cycles.prof")
	if err := os.WriteFile(bad, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "junk.cycles.prof" {
		t.Errorf("report = %+v", rep)
	}
	// Quarantined bytes are preserved for post-mortem.
	data, err := os.ReadFile(bad + ".bad")
	if err != nil || string(data) != "not a profile" {
		t.Errorf("quarantined content = %q, %v", data, err)
	}
}

func TestWriteTorn(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prior := NewProfile("/bin/app", sim.EvCycles)
	prior.Add(4, 7)
	prior.Add(8, 2)
	if err := db.Update(prior); err != nil {
		t.Fatal(err)
	}
	p := NewProfile("/bin/app", sim.EvCycles)
	p.Add(12, 1)
	destroyed, err := db.WriteTorn(p)
	if err != nil {
		t.Fatal(err)
	}
	if destroyed != 9 {
		t.Errorf("destroyed = %d, want the 9 samples the file held", destroyed)
	}
	if _, err := db.Load("/bin/app", sim.EvCycles); err == nil {
		t.Error("torn file still decodes; WriteTorn did not tear")
	}
	if rep, err := db.Recover(); err != nil || len(rep.Quarantined) != 1 {
		t.Errorf("recovery of torn file = %+v, %v", rep, err)
	}
	// After quarantine the slot is writable again.
	if err := db.Update(p); err != nil {
		t.Errorf("update after recovery: %v", err)
	}
}

// errWriter takes n bytes and then fails, the way a full disk does: a write
// it cannot finish returns the short count with an error, as io.Writer
// requires (Write hands the sink one buffer, so nothing else would notice).
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, os.ErrClosed
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteErrorsPropagate(t *testing.T) {
	p := NewProfile("/bin/app", sim.EvCycles)
	for i := uint64(0); i < 10000; i++ {
		p.Add(i*4, i+1)
	}
	for _, limit := range []int{0, 4, 100, 6000} {
		if err := p.Write(&errWriter{n: limit}); err == nil {
			t.Errorf("Write with %d-byte sink reported success", limit)
		}
		if err := p.WriteCompressed(&errWriter{n: limit}); err == nil {
			t.Errorf("WriteCompressed with %d-byte sink reported success", limit)
		}
	}
}

func TestUpdateLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfile("/bin/app", sim.EvCycles)
	p.Add(4, 1)
	if err := db.Update(p); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteMeta(Meta{Workload: "x"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "epoch-0001"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}
