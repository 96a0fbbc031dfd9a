package daemon

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/driver"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/par"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

func TestFaultPlanParseRoundTrip(t *testing.T) {
	spec := "stall=1M-3M,drain-latency=500K,crash=2M,crash-merge=2,merge-profiles=1,restart=250K"
	p, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.DrainLatency != 500_000 || p.CrashAt != 2_000_000 ||
		p.CrashAtMerge != 2 || p.CrashMergeProfiles != 1 || p.RestartDelay != 250_000 {
		t.Errorf("parsed = %+v", p)
	}
	if len(p.Stalls) != 1 || p.Stalls[0] != (Window{From: 1_000_000, To: 3_000_000}) {
		t.Errorf("stalls = %+v", p.Stalls)
	}
	// String renders the canonical form, which must parse back to the same
	// plan (it doubles as the runner cache-key component).
	p2, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != p.String() {
		t.Errorf("round trip: %q != %q", p2.String(), p.String())
	}
}

func TestFaultPlanParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nope", "stall=5", "stall=9-3", "stall=-3-9",
		"crash-merge=0", "crash-merge=x", "drain-latency=1X", "restart=-5",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
	p, err := ParseFaultPlan("  ")
	if err != nil || !p.Empty() {
		t.Errorf("blank spec = %+v, %v", p, err)
	}
	if (FaultPlan{}).String() != "" {
		t.Errorf("zero plan renders %q", FaultPlan{}.String())
	}
}

// A stalled daemon refuses deliveries; the driver's buffers fill and the
// excess is dropped -- but counted, so recorded == merged + lost.
func TestStallConservation(t *testing.T) {
	drv := driver.New(driver.Config{NumCPUs: 1, Buckets: 1, OverflowEntries: 8})
	d := New(Config{
		DrainInterval: 1_000_000, // never drains within the run
		Fault:         FaultPlan{Stalls: []Window{{From: 0, To: 1 << 62}}},
	}, drv)
	d.HandleNotification(note(1, "/bin/app", 0, 1<<20, image.KindExecutable))
	for i := 0; i < 500; i++ {
		drv.RecordAt(0, 1, uint64(i)*4, sim.EvCycles, int64(i))
		d.Poll(0, int64(i))
	}
	if drv.TotalStats().Lost == 0 {
		t.Fatal("stalled daemon cost no samples; fault plan had no effect")
	}
	if drv.TotalStats().Deferred == 0 {
		t.Fatal("no deliveries deferred during stall")
	}
	if d.Stats().Deferred == 0 {
		t.Fatal("daemon did not count refused deliveries")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := drv.TotalStats()
	dm := d.Stats()
	if ds.Samples != dm.Samples+ds.Lost {
		t.Errorf("conservation: recorded %d != merged %d + lost %d",
			ds.Samples, dm.Samples, ds.Lost)
	}
}

// A crash drops the in-memory profiles -- counted in CrashDropped -- and the
// restarted daemon resumes collecting.
func TestCrashAtDropsCountedAndRestarts(t *testing.T) {
	drv := driver.New(driver.Config{NumCPUs: 1})
	d := New(Config{
		DrainInterval: 100,
		Fault:         FaultPlan{CrashAt: 500, RestartDelay: 200},
	}, drv)
	d.HandleNotification(note(1, "/bin/app", 0, 1<<20, image.KindExecutable))
	for i := 0; i < 2000; i++ {
		drv.RecordAt(0, 1, uint64(i%64)*4, sim.EvCycles, int64(i))
		d.Poll(0, int64(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := drv.TotalStats()
	dm := d.Stats()
	if dm.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", dm.Crashes)
	}
	if dm.Restarts == 0 {
		t.Fatal("daemon never restarted")
	}
	if dm.CrashDropped == 0 {
		t.Fatal("crash dropped nothing; CrashAt had no effect")
	}
	var merged uint64
	for _, p := range d.Profiles() {
		merged += p.Total()
	}
	if ds.Samples != merged+ds.Lost+dm.CrashDropped {
		t.Errorf("conservation: recorded %d != merged %d + lost %d + crash-dropped %d",
			ds.Samples, merged, ds.Lost, dm.CrashDropped)
	}
}

// Killing the daemon mid-merge leaves a torn profile file. The restarted
// daemon's recovery pass quarantines it, intact profiles still load, and
// merging resumes -- the acceptance scenario for crash-safe merges. The
// tear lands on the same profile, and the epoch holds the same bytes,
// whether the writes before it run on one goroutine (every budget slot
// held) or fan out over free slots.
func TestCrashMidMergeRecovery(t *testing.T) {
	var epochs [2]map[string][]byte
	for i, held := range []int{par.Default().Total(), 0} {
		par.Default().Acquire(held)
		epochs[i] = crashMidMerge(t)
		par.Default().Release(held)
	}
	if !reflect.DeepEqual(epochs[0], epochs[1]) {
		t.Error("the crashed epoch's files differ between a serial and a concurrent merge")
	}
}

// crashMidMerge runs the crash-mid-merge scenario and returns the epoch
// directory's files by name.
func crashMidMerge(t *testing.T) map[string][]byte {
	dir := t.TempDir()
	db, err := profiledb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	drv := driver.New(driver.Config{NumCPUs: 1})
	d := New(Config{
		DB:            db,
		DrainInterval: 100,
		MergeInterval: 250,
		Fault:         FaultPlan{CrashAtMerge: 2, CrashMergeProfiles: 2, RestartDelay: 100},
	}, drv)
	d.HandleNotification(note(1, "/bin/app", 0, 1<<20, image.KindExecutable))
	d.HandleNotification(note(1, "/usr/shlib/libc.so", loader.SharedLibBase, 1<<20, image.KindShared))
	// Four profiles per merge. In sorted key order (image, then event) the
	// two /bin/app profiles land, and libc's cycles profile, at index
	// CrashMergeProfiles, is torn.
	events := []sim.Event{sim.EvCycles, sim.EvIMiss}
	for i := 0; i < 3000; i++ {
		pc := uint64(i%64) * 4
		if i%2 == 1 {
			pc += loader.SharedLibBase
		}
		drv.RecordAt(0, 1, pc, events[i/2%2], int64(i))
		d.Poll(0, int64(i))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	dm := d.Stats()
	if dm.Crashes != 1 {
		t.Fatalf("crashes = %d, want exactly the injected mid-merge crash", dm.Crashes)
	}
	if dm.Restarts == 0 {
		t.Fatal("crashed daemon never restarted")
	}
	if dm.CrashDropped == 0 {
		t.Fatal("torn merge destroyed no counted samples")
	}

	// The torn file was quarantined by the restart's recovery pass.
	var quarantined []string
	epoch := map[string][]byte{}
	entries, err := os.ReadDir(filepath.Join(dir, "epoch-0001"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bad") {
			quarantined = append(quarantined, e.Name())
		}
		if epoch[e.Name()], err = os.ReadFile(filepath.Join(dir, "epoch-0001", e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Base(db.Path("/usr/shlib/libc.so", sim.EvCycles)) + ".bad"
	if len(quarantined) != 1 || quarantined[0] != torn {
		t.Fatalf("quarantined files = %v, want exactly the torn %s", quarantined, torn)
	}
	for _, ev := range events {
		if p, err := db.Load("/bin/app", ev); err != nil || p.Total() == 0 {
			t.Errorf("/bin/app %v, written before the tear, did not load intact (%v)", ev, err)
		}
	}

	// Intact profiles load, and post-restart merging resumed into them.
	onDisk, err := db.Profiles()
	if err != nil {
		t.Fatalf("database unreadable after crash recovery: %v", err)
	}
	var merged uint64
	for _, p := range onDisk {
		merged += p.Total()
	}
	ds := drv.TotalStats()
	if ds.Samples != merged+ds.Lost+dm.CrashDropped {
		t.Errorf("conservation: recorded %d != merged %d + lost %d + crash-dropped %d",
			ds.Samples, merged, ds.Lost, dm.CrashDropped)
	}

	// A fresh Open of the same directory recovers cleanly too.
	db2, err := profiledb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Profiles(); err != nil {
		t.Errorf("reopened database unreadable: %v", err)
	}
	return epoch
}

// Drain latency delays periodic drains and refuses deliveries while the
// daemon is overdue; small lag costs nothing, huge lag costs samples.
func TestDrainLatencyLossOnset(t *testing.T) {
	run := func(lag int64) (lost, samples uint64) {
		drv := driver.New(driver.Config{NumCPUs: 1, Buckets: 1, OverflowEntries: 8})
		d := New(Config{DrainInterval: 500, Fault: FaultPlan{DrainLatency: lag}}, drv)
		d.HandleNotification(note(1, "/bin/app", 0, 1<<20, image.KindExecutable))
		for i := 0; i < 4000; i++ {
			drv.RecordAt(0, 1, uint64(i)*4, sim.EvCycles, int64(i))
			d.Poll(0, int64(i))
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		ds := drv.TotalStats()
		if ds.Samples != d.Stats().Samples+ds.Lost {
			t.Errorf("lag %d: conservation violated", lag)
		}
		return ds.Lost, ds.Samples
	}
	if lost, _ := run(0); lost != 0 {
		t.Errorf("lost %d samples with no lag", lost)
	}
	lost, samples := run(1 << 30)
	if lost == 0 {
		t.Error("huge lag lost nothing; lag injection had no effect")
	}
	if lost >= samples {
		t.Errorf("lost %d of %d: final flush should still save buffered samples", lost, samples)
	}
}
