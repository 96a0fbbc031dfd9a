package daemon

import (
	"testing"

	"dcpi/internal/driver"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

func note(pid uint32, path string, base, size uint64, kind image.Kind) loader.Notification {
	return loader.Notification{PID: pid, Path: path, Base: base, Size: size, Kind: kind}
}

func testDaemon(t *testing.T, cfg Config) (*Daemon, *driver.Driver) {
	t.Helper()
	drv := driver.New(driver.Config{NumCPUs: 1})
	d := New(cfg, drv)
	d.HandleNotification(note(100, "/bin/app", loader.UserTextBase, 0x1000, image.KindExecutable))
	d.HandleNotification(note(100, "/usr/shlib/libc.so", loader.SharedLibBase, 0x2000, image.KindShared))
	d.HandleNotification(note(100, "/vmunix", loader.KernelBase, 0x4000, image.KindKernel))
	return d, drv
}

func TestClassification(t *testing.T) {
	d, drv := testDaemon(t, Config{})
	drv.Record(0, 100, loader.UserTextBase+16, sim.EvCycles)
	drv.Record(0, 100, loader.SharedLibBase+32, sim.EvCycles)
	drv.Record(0, 100, loader.KernelBase+8, sim.EvCycles)
	drv.Record(0, 0, loader.KernelBase+8, sim.EvCycles) // idle PID 0: kernel fallback
	drv.Record(0, 100, 0xdead0000, sim.EvCycles)        // unmapped
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	byPath := map[string]*profiledb.Profile{}
	for _, p := range d.Profiles() {
		byPath[p.ImagePath] = p
	}
	if p := byPath["/bin/app"]; p == nil || p.Counts[16] != 1 {
		t.Errorf("/bin/app profile = %+v", p)
	}
	if p := byPath["/usr/shlib/libc.so"]; p == nil || p.Counts[32] != 1 {
		t.Errorf("libc profile = %+v", p)
	}
	if p := byPath["/vmunix"]; p == nil || p.Counts[8] != 2 {
		t.Errorf("vmunix profile = %+v (want both PID 100 and PID 0 samples)", p)
	}
	if p := byPath[UnknownImage]; p == nil || p.Total() != 1 {
		t.Errorf("unknown profile = %+v", p)
	}
	st := d.Stats()
	if st.Unknown != 1 || st.Samples != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.UnknownRate() < 0.19 || st.UnknownRate() > 0.21 {
		t.Errorf("unknown rate = %v", st.UnknownRate())
	}
}

func TestAggregatedCountsPreserved(t *testing.T) {
	d, drv := testDaemon(t, Config{})
	for i := 0; i < 500; i++ {
		drv.Record(0, 100, loader.UserTextBase+uint64(i%10)*4, sim.EvCycles)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, p := range d.Profiles() {
		total += p.Total()
	}
	if total != 500 {
		t.Errorf("total samples = %d, want 500", total)
	}
	st := d.Stats()
	if st.Samples != 500 {
		t.Errorf("stats samples = %d", st.Samples)
	}
	// Aggregation: far fewer entries than samples.
	if st.Entries >= 50 {
		t.Errorf("entries = %d, expected heavy aggregation", st.Entries)
	}
}

func TestDaemonCostScalesWithAggregation(t *testing.T) {
	// A loopy stream (high aggregation) must cost less per sample than a
	// scattered stream (low aggregation) — Table 4's key relationship.
	runStream := func(pcs func(i int) uint64) float64 {
		drv := driver.New(driver.Config{NumCPUs: 1})
		d := New(Config{}, drv)
		d.HandleNotification(note(1, "/bin/app", 0, 1<<30, image.KindExecutable))
		for i := 0; i < 20000; i++ {
			drv.Record(0, 1, pcs(i), sim.EvCycles)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		return d.Stats().CostPerSample()
	}
	loopy := runStream(func(i int) uint64 { return uint64(i%20) * 4 })
	scattered := runStream(func(i int) uint64 { return uint64(i) * 4 })
	if loopy >= scattered {
		t.Errorf("loopy cost %.1f >= scattered cost %.1f", loopy, scattered)
	}
	if loopy > 100 {
		t.Errorf("loopy per-sample cost = %.1f, want heavily amortized", loopy)
	}
}

func TestPollDrainsPeriodically(t *testing.T) {
	d, drv := testDaemon(t, Config{DrainInterval: 1000})
	drv.Record(0, 100, loader.UserTextBase, sim.EvCycles)
	// First poll arms the timer; second (past the interval) drains.
	d.Poll(0, 100)
	if len(d.Profiles()) != 0 {
		t.Error("drained too early")
	}
	d.Poll(0, 2000)
	if len(d.Profiles()) == 0 {
		t.Error("poll did not drain the driver")
	}
	if d.Stats().Drains != 1 {
		t.Errorf("drains = %d", d.Stats().Drains)
	}
}

func TestPollChargesCost(t *testing.T) {
	d, drv := testDaemon(t, Config{DrainInterval: 10})
	drv.Record(0, 100, loader.UserTextBase, sim.EvCycles)
	d.Poll(0, 0)
	cost := d.Poll(0, 50)
	if cost != costPerEntry {
		t.Errorf("poll cost = %d, want %d (one entry)", cost, costPerEntry)
	}
	if c := d.Poll(0, 51); c != 0 {
		t.Errorf("idle poll cost = %d", c)
	}
}

func TestMergeToDisk(t *testing.T) {
	db, err := profiledb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, drv := testDaemon(t, Config{DB: db})
	drv.Record(0, 100, loader.UserTextBase+4, sim.EvCycles)
	drv.Record(0, 100, loader.UserTextBase+4, sim.EvIMiss)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(d.Profiles()) != 0 {
		t.Error("in-memory profiles not dropped after merge")
	}
	onDisk, err := db.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 2 {
		t.Fatalf("disk profiles = %d, want 2", len(onDisk))
	}
	// A second flush merges increments with existing files.
	drv.Record(0, 100, loader.UserTextBase+4, sim.EvCycles)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := db.Load("/bin/app", sim.EvCycles)
	if err != nil {
		t.Fatal(err)
	}
	if p.Counts[4] != 2 {
		t.Errorf("merged disk count = %d, want 2", p.Counts[4])
	}
}

func TestPerProcessProfiles(t *testing.T) {
	drv := driver.New(driver.Config{NumCPUs: 1})
	d := New(Config{PerProcessPIDs: []uint32{7}}, drv)
	d.HandleNotification(note(7, "/bin/app", 0, 0x1000, image.KindExecutable))
	d.HandleNotification(note(8, "/bin/app", 0, 0x1000, image.KindExecutable))
	drv.Record(0, 7, 16, sim.EvCycles)
	drv.Record(0, 8, 16, sim.EvCycles)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	var aggregate, perProc *profiledb.Profile
	for _, p := range d.Profiles() {
		switch p.ImagePath {
		case "/bin/app":
			aggregate = p
		case "/bin/app#7":
			perProc = p
		}
	}
	if aggregate == nil || aggregate.Counts[16] != 2 {
		t.Errorf("aggregate = %+v", aggregate)
	}
	if perProc == nil || perProc.Counts[16] != 1 {
		t.Errorf("per-process = %+v", perProc)
	}
}

func TestDuplicateNotificationsIgnored(t *testing.T) {
	d, _ := testDaemon(t, Config{})
	before := d.MemoryBytes()
	// Startup scan re-reports the same mappings.
	d.HandleNotification(note(100, "/bin/app", loader.UserTextBase, 0x1000, image.KindExecutable))
	if d.MemoryBytes() != before {
		t.Error("duplicate notification grew the loadmap")
	}
}

func TestMemoryAccounting(t *testing.T) {
	d, drv := testDaemon(t, Config{})
	base := d.MemoryBytes()
	if base <= 0 {
		t.Fatal("no memory accounted for loadmaps")
	}
	for i := 0; i < 1000; i++ {
		drv.Record(0, 100, loader.UserTextBase+uint64(i)*4, sim.EvCycles)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush with no DB keeps profiles in memory.
	grown := d.MemoryBytes()
	if grown <= base {
		t.Error("profiles not accounted")
	}
	if d.PeakMemoryBytes() < grown {
		t.Error("peak below current")
	}
	d.NoteExit(100)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.MemoryBytes() >= grown {
		t.Error("reap did not release loadmap memory")
	}
}

func TestBufferFullDelivery(t *testing.T) {
	drv := driver.New(driver.Config{NumCPUs: 1, Buckets: 1, OverflowEntries: 8})
	d := New(Config{}, drv)
	d.HandleNotification(note(1, "/bin/app", 0, 1<<20, image.KindExecutable))
	// Distinct PCs colliding in one bucket force evictions into the
	// overflow buffer; 8-entry buffers fill and auto-deliver.
	for i := 0; i < 100; i++ {
		drv.Record(0, 1, uint64(i)*4, sim.EvCycles)
	}
	if d.Stats().BuffersFull == 0 {
		t.Error("no full-buffer deliveries")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, p := range d.Profiles() {
		total += p.Total()
	}
	if total != 100 {
		t.Errorf("samples preserved = %d, want 100", total)
	}
}

// Flush and the periodic merge check cfg.DB before they merge; mergeToDisk
// still refuses on its own rather than dereference a nil database.
func TestMergeWithoutDBErrors(t *testing.T) {
	d, _ := testDaemon(t, Config{})
	if _, err := d.mergeToDisk(0, nil); err == nil {
		t.Error("mergeToDisk without DB should error")
	}
}

func TestProfileNameRoundTrip(t *testing.T) {
	for _, c := range []struct {
		path string
		pid  uint32
		name string
	}{
		{"/bin/app", 0, "/bin/app"},
		{"/bin/app", 7, "/bin/app#7"},
		{"/bin/a#b", 100, "/bin/a#b#100"},
		{"/bin/app", 1<<32 - 1, "/bin/app#4294967295"},
	} {
		if got := ProfileName(c.path, c.pid); got != c.name {
			t.Errorf("ProfileName(%q, %d) = %q, want %q", c.path, c.pid, got, c.name)
		}
		if path, pid := ParseProfileName(c.name); path != c.path || pid != c.pid {
			t.Errorf("ParseProfileName(%q) = %q, %d; want %q, %d", c.name, path, pid, c.path, c.pid)
		}
	}
	// Names ProfileName never builds are an image's aggregate profile.
	for _, name := range []string{"/bin/app#", "/bin/app#0", "/bin/app#007", "/bin/app#+7", "/bin/app#x", "/bin/app#4294967296", "#"} {
		if path, pid := ParseProfileName(name); path != name || pid != 0 {
			t.Errorf("ParseProfileName(%q) = %q, %d; want the name itself and pid 0", name, path, pid)
		}
	}
}
