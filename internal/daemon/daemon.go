// Package daemon implements the DCPI user-mode daemon of paper §4.3: it
// drains aggregated samples from the device driver, associates each with its
// executable image using loadmap notifications, maintains in-memory
// per-(image, event) profiles, and periodically merges them into the on-disk
// profile database. It also accounts for its own memory (Table 5) and
// processing cost (Table 4's "daemon cost" column).
package daemon

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dcpi/internal/driver"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/obs"
	"dcpi/internal/par"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

// UnknownImage is the pseudo-image that collects samples the daemon cannot
// classify (paper: "aggregated into a special profile"; typically < 1%).
const UnknownImage = "unknown"

// Config tunes the daemon.
type Config struct {
	// DB is the on-disk database; nil keeps profiles in memory only.
	DB *profiledb.DB
	// DrainInterval is the cycle interval between driver hash-table flushes
	// (the paper's default is 5 minutes of wall time).
	DrainInterval int64
	// MergeInterval is the cycle interval between disk merges (paper: 10
	// minutes).
	MergeInterval int64
	// ZeroCost makes processing an entry cost no cycles instead of
	// costPerEntry, as driver.Config.ZeroCost does for the handler.
	ZeroCost bool
	// PerProcessPIDs lists processes whose samples should additionally be
	// recorded in separate per-process profiles (paper §4.3: "Users may
	// also request separate, per-process profiles").
	PerProcessPIDs []uint32
	// Fault injects stalls, lag, and crashes into this daemon (see
	// FaultPlan); the zero value runs fault-free.
	Fault FaultPlan
	// Obs attaches the optional self-observability sinks; the zero value
	// keeps every instrumentation site a no-op.
	Obs obs.Hooks
}

func (c Config) withDefaults() Config {
	if c.DrainInterval == 0 {
		c.DrainInterval = 2_000_000
	}
	if c.MergeInterval == 0 {
		c.MergeInterval = 4_000_000
	}
	return c
}

// costPerEntry models the daemon cycles spent processing one aggregated
// entry (three hash lookups per the paper's §5.4 discussion). The daemon's
// per-sample cost is costPerEntry divided by the aggregation factor,
// reproducing Table 4's inverse relation.
const costPerEntry = 800

// entryCost is the cycles charged for processing one entry.
func (d *Daemon) entryCost() int64 {
	if d.cfg.ZeroCost {
		return 0
	}
	return costPerEntry
}

// Stats describes daemon activity.
type Stats struct {
	Entries       uint64 // aggregated entries processed
	Samples       uint64 // raw samples those entries represent
	Unknown       uint64 // samples that could not be classified
	Drains        uint64 // driver flushes initiated
	Merges        uint64 // disk merges completed
	BuffersFull   uint64 // full overflow buffers delivered by the driver
	Deferred      uint64 // full-buffer deliveries refused while stalled or down
	Crashes       uint64 // injected crashes taken
	Restarts      uint64 // recoveries from a crash
	CrashDropped  uint64 // raw samples lost to crashes (in-memory + torn writes)
	CostCycles    int64  // total processing cycles charged
	Notifications uint64 // loadmap events received
}

// UnknownRate returns Unknown/Samples.
func (s Stats) UnknownRate() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.Unknown) / float64(s.Samples)
}

// CostPerSample returns mean daemon cycles per raw sample (Table 4).
func (s Stats) CostPerSample() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.CostCycles) / float64(s.Samples)
}

type mapping struct {
	base, end uint64
	path      string
}

type profKey struct {
	path string
	ev   sim.Event
	pid  uint32 // 0 for aggregate profiles
}

// shard is the daemon state owned by one simulated CPU's sample stream.
// Sharding is what makes parallel CPU simulation deterministic: a CPU's
// drains, processing cost, and in-memory profiles depend only on that CPU's
// own (deterministic) execution, never on how the host interleaved the
// other CPUs. Shards fold together — commutative profile merges, in CPU
// order — at the final flush.
type shard struct {
	profiles    map[profKey]*profiledb.Profile
	pendingCost int64 // processing cycles to charge at this CPU's next poll
	nextDrain   int64
	armed       bool // nextDrain initialized (first poll arms, second drains)
}

func newShard() *shard {
	return &shard{profiles: make(map[profKey]*profiledb.Profile)}
}

// Daemon is the profiling daemon. One mutex serializes every entry point
// (buffer deliveries, polls, notifications, the final flush): the real
// daemon is a single user-mode process receiving per-CPU streams, and the
// mutex plus per-CPU shards give the same semantics when the simulated CPUs
// run on concurrent goroutines. Happens-before story: a CPU goroutine's
// samples reach the daemon only via its own driver state (single-owner) and
// these locked entry points; everything cross-CPU (stats, loadmaps, fault
// state) is only touched under mu.
type Daemon struct {
	cfg Config
	drv *driver.Driver

	mu sync.Mutex

	loadmaps   map[uint32][]mapping // PID -> sorted mappings
	kernelPath string
	perProcess map[uint32]bool

	shards    []*shard
	nextMerge int64
	exited    []uint32
	inFlush   bool // Flush is running single-threaded, post-barrier

	// Fault-injection state: a crashed daemon is down until restartAt;
	// crashAtFired latches the one-shot CrashAt trigger and mergeAttempts
	// counts disk merges started (CrashAtMerge is matched against it).
	down          bool
	restartAt     int64
	crashAtFired  bool
	mergeAttempts int

	stats     Stats
	peakBytes int

	// Self-observability (nil-safe; see internal/obs). lastClock remembers
	// the most recent simulated cycle the daemon has seen so the final
	// Flush — which has no clock of its own — can stamp its trace events
	// (it also anchors restart-at-flush recovery).
	obsOn     bool
	tracer    *obs.Tracer
	batchHist *obs.Histogram // entries per processed batch
	lastClock int64
}

// New builds a daemon attached to drv and subscribes to its full-buffer
// notifications.
func New(cfg Config, drv *driver.Driver) *Daemon {
	d := &Daemon{
		cfg:        cfg.withDefaults(),
		drv:        drv,
		loadmaps:   make(map[uint32][]mapping),
		perProcess: make(map[uint32]bool),
	}
	for _, pid := range d.cfg.PerProcessPIDs {
		d.perProcess[pid] = true
	}
	if d.cfg.Obs.Enabled() {
		d.obsOn = true
		d.tracer = d.cfg.Obs.Tracer
		d.batchHist = d.cfg.Obs.Registry.Histogram("daemon.batch_entries",
			obs.ExpBuckets(16, 2, 12))
		d.tracer.NameProcess(obs.PIDDaemon, "daemon (user-mode)")
		d.tracer.NameProcess(obs.PIDDB, "profile database")
	}
	if drv != nil {
		drv.OnBufferFull = d.onBufferFull
	}
	return d
}

// shard returns cpu's state, growing the table on demand (the daemon does
// not know the machine size up front; CPU ids are small and dense).
func (d *Daemon) shard(cpu int) *shard {
	for cpu >= len(d.shards) {
		d.shards = append(d.shards, newShard())
	}
	return d.shards[cpu]
}

// HandleNotification records a loadmap event (wire this to loader.Notify).
func (d *Daemon) HandleNotification(n loader.Notification) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Notifications++
	if n.Kind == image.KindKernel {
		d.kernelPath = n.Path
	}
	maps := d.loadmaps[n.PID]
	for _, m := range maps {
		if m.base == n.Base && m.path == n.Path {
			return // duplicate (e.g. startup scan after live notification)
		}
	}
	maps = append(maps, mapping{base: n.Base, end: n.Base + n.Size, path: n.Path})
	sort.Slice(maps, func(i, j int) bool { return maps[i].base < maps[j].base })
	d.loadmaps[n.PID] = maps
	d.trackPeak()
}

// classify maps (pid, pc) to (image path, offset). Caller holds mu.
func (d *Daemon) classify(pid uint32, pc uint64) (string, uint64, bool) {
	maps := d.loadmaps[pid]
	i := sort.Search(len(maps), func(i int) bool { return maps[i].base > pc })
	if i > 0 {
		m := maps[i-1]
		if pc < m.end {
			return m.path, pc - m.base, true
		}
	}
	// The kernel is mapped in every context, including PID 0 (idle), which
	// has no loadmap of its own.
	if pc >= loader.KernelBase && d.kernelPath != "" {
		return d.kernelPath, pc - loader.KernelBase, true
	}
	return "", 0, false
}

// onBufferFull is the driver's full-overflow-buffer notification. It
// returns false — deferring delivery, and eventually costing samples — when
// the daemon is stalled, down, or lagging behind its drain schedule; the
// driver parks the buffer and retries.
func (d *Daemon) onBufferFull(cpu int, clock int64, entries []driver.Entry) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down || d.cfg.Fault.stalledAt(clock) || d.lagging(cpu, clock) {
		d.stats.Deferred++
		return false
	}
	d.stats.BuffersFull++
	d.processBatch(cpu, clock, "process:overflow_buffer", entries)
	return true
}

// lagging reports whether injected DrainLatency has put the daemon past
// cpu's nominal drain time without having drained yet: a daemon behind
// schedule is busy catching up and does not service buffer deliveries
// either. This is what makes drain lag cost samples once the lag window
// outgrows the driver's two overflow buffers (the §4.2.3 breakdown point).
func (d *Daemon) lagging(cpu int, clock int64) bool {
	lat := d.cfg.Fault.DrainLatency
	if lat <= 0 {
		return false
	}
	sh := d.shard(cpu)
	return sh.armed && clock >= sh.nextDrain-lat
}

// processBatch wraps process with the observability batch accounting: one
// trace slice per delivered batch, spanning the modeled processing cost.
// Caller holds mu.
func (d *Daemon) processBatch(cpu int, clock int64, kind string, entries []driver.Entry) {
	d.process(cpu, entries)
	if !d.obsOn {
		return
	}
	if clock > d.lastClock {
		d.lastClock = clock
	}
	d.batchHist.Observe(float64(len(entries)))
	d.tracer.Slice("daemon", kind, obs.PIDDaemon, cpu, clock,
		int64(len(entries))*d.entryCost(),
		map[string]any{"entries": len(entries)})
	d.tracer.Counter("daemon", "daemon_memory", obs.PIDDaemon, clock,
		map[string]float64{"bytes": float64(d.memoryBytesLocked())})
}

// process merges cpu's driver entries into that CPU's profile shard.
// Caller holds mu.
func (d *Daemon) process(cpu int, entries []driver.Entry) {
	sh := d.shard(cpu)
	for _, e := range entries {
		d.stats.Entries++
		d.stats.Samples += uint64(e.Count)
		sh.pendingCost += d.entryCost()

		path, off, ok := d.classify(e.PID, e.PC)
		if !ok {
			d.stats.Unknown += uint64(e.Count)
			d.profile(sh, profKey{UnknownImage, e.Event, 0}).Add(e.PC, uint64(e.Count))
			continue
		}
		if e.Event == sim.EvEdge {
			// Double-sampling pair: keep only intra-image edges (the
			// analysis does not follow interprocedural flow), keyed by the
			// packed (from, to) offsets.
			path2, off2, ok2 := d.classify(e.PID, e.PC2)
			if !ok2 || path2 != path || off >= 1<<32 || off2 >= 1<<32 {
				d.stats.Unknown += uint64(e.Count)
				continue
			}
			d.profile(sh, profKey{path, e.Event, 0}).Add(PackEdge(off, off2), uint64(e.Count))
			continue
		}
		d.profile(sh, profKey{path, e.Event, 0}).Add(off, uint64(e.Count))
		if d.perProcess[e.PID] {
			d.profile(sh, profKey{path, e.Event, e.PID}).Add(off, uint64(e.Count))
		}
	}
	d.trackPeakCPU(cpu)
}

// PackEdge packs an intra-image (from, to) offset pair into one profile
// key: from in the high 32 bits, to in the low.
func PackEdge(from, to uint64) uint64 { return from<<32 | to }

// UnpackEdge returns the (from, to) offset pair PackEdge packed into key.
func UnpackEdge(key uint64) (from, to uint64) { return key >> 32, key & 0xffffffff }

func (d *Daemon) profile(sh *shard, k profKey) *profiledb.Profile {
	p, ok := sh.profiles[k]
	if !ok {
		p = profiledb.NewProfile(ProfileName(k.path, k.pid), k.ev)
		sh.profiles[k] = p
	}
	return p
}

// ProfileName names a profile of the image at path: the path itself for
// the image's aggregate profile (pid 0), which counts each of its samples
// once, and path#pid for the per-process profile kept for pid (paper §4.3),
// whose samples the aggregate counts too.
func ProfileName(path string, pid uint32) string {
	if pid == 0 {
		return path
	}
	return path + "#" + strconv.FormatUint(uint64(pid), 10)
}

// ParseProfileName is ProfileName's inverse: the image path a profile
// named name counts samples of, and the process it was kept for, 0 for the
// image's aggregate profile.
func ParseProfileName(name string) (path string, pid uint32) {
	i := strings.LastIndexByte(name, '#')
	if i < 0 {
		return name, 0
	}
	n, err := strconv.ParseUint(name[i+1:], 10, 32)
	if err != nil || name[i+1] == '0' { // no pid ProfileName writes: 0, or a leading zero
		return name, 0
	}
	return name[:i], uint32(n)
}

// Poll performs the daemon's periodic work for one CPU: draining the
// driver's hash table on the drain interval and merging to disk on the
// merge interval. It returns the cycles to charge the polling CPU. Fault
// injection hooks in here: a stalled daemon does nothing, a crashed one
// stays down until its restart, and the CrashAt trigger fires on the first
// poll past its cycle.
func (d *Daemon) Poll(cpu int, clock int64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if clock > d.lastClock {
		d.lastClock = clock
	}
	if d.down {
		if clock < d.restartAt {
			return 0
		}
		d.restart(clock)
	}
	if f := d.cfg.Fault; f.CrashAt > 0 && !d.crashAtFired && clock >= f.CrashAt {
		d.crashAtFired = true
		d.crash(clock, "fault:crash_at", nil)
		return 0
	}
	if d.cfg.Fault.stalledAt(clock) {
		return 0
	}
	sh := d.shard(cpu)
	if !sh.armed || clock >= sh.nextDrain {
		if sh.armed {
			d.stats.Drains++
			d.processBatch(cpu, clock, "process:drain", d.drv.FlushCPUAt(cpu, clock))
		}
		sh.nextDrain = clock + d.cfg.DrainInterval + d.cfg.Fault.DrainLatency
		sh.armed = true
	}
	if cpu == 0 && d.cfg.DB != nil && clock >= d.nextMerge {
		if d.nextMerge != 0 {
			// Periodic merges write only CPU 0's shard: the merge is driven
			// by CPU 0's polls, and writing other CPUs' live shards would
			// make disk state depend on how far the host happened to run
			// them. (Sequentially this matches the seed exactly: CPU 0 runs
			// first, so the global map held only CPU 0's data at merge time.)
			detached := sh.profiles
			sh.profiles = make(map[profKey]*profiledb.Profile)
			crashed, err := d.mergeToDisk(clock, detached)
			if crashed {
				return 0
			}
			if err == nil {
				d.stats.Merges++
			} else {
				d.reattach(sh, detached) // keep unwritten profiles for retry
			}
		}
		d.nextMerge = clock + d.cfg.MergeInterval
	}
	cost := sh.pendingCost
	sh.pendingCost = 0
	d.stats.CostCycles += cost
	return cost
}

// reattach folds profiles that failed to reach disk back into sh.
func (d *Daemon) reattach(sh *shard, m map[profKey]*profiledb.Profile) {
	for k, p := range m {
		if q, ok := sh.profiles[k]; ok {
			q.Merge(p) //nolint:errcheck // same key ⇒ same image/event
		} else {
			sh.profiles[k] = p
		}
	}
}

// crash models the daemon process dying: every in-memory profile is lost —
// but counted, so the pipeline's sample conservation stays checkable —
// and the daemon stays down until restartAt. The driver keeps collecting
// into its buffers; deliveries are deferred, and its own loss accounting
// takes over when they fill.
// inflight is the detached map of a merge in progress, if any; its unwritten
// profiles die with the process too.
func (d *Daemon) crash(clock int64, cause string, inflight map[profKey]*profiledb.Profile) {
	d.stats.Crashes++
	var dropped uint64
	for _, p := range inflight {
		dropped += p.Total()
	}
	for _, sh := range d.shards {
		for _, p := range sh.profiles {
			dropped += p.Total()
		}
		sh.profiles = make(map[profKey]*profiledb.Profile)
		sh.pendingCost = 0
	}
	d.stats.CrashDropped += dropped
	d.down = true
	delay := d.cfg.Fault.RestartDelay
	if delay <= 0 {
		delay = d.cfg.DrainInterval
	}
	d.restartAt = clock + delay
	if d.obsOn {
		d.tracer.Instant("daemon", cause, obs.PIDDaemon, 0, clock,
			map[string]any{"dropped_samples": dropped})
	}
}

// restart brings a crashed daemon back: drain timers re-arm from scratch
// (a fresh process has no state) and the database runs its recovery pass,
// quarantining any file the crash left unreadable, so merging can resume.
func (d *Daemon) restart(clock int64) {
	d.down = false
	d.stats.Restarts++
	for _, sh := range d.shards {
		sh.armed = false
	}
	if d.cfg.DB != nil {
		d.cfg.DB.Recover() //nolint:errcheck // best-effort; unreadable files stay quarantine candidates
	}
	if d.obsOn {
		d.tracer.Instant("daemon", "daemon_restart", obs.PIDDaemon, 0, clock, nil)
	}
}

// Flush drains every CPU's driver state and merges everything to disk. Call
// it at the end of a run (the paper's "complete flush ... initiated by a
// user-level command"). A daemon still down from an injected crash is
// restarted first — the operator restarting the dead process — which runs
// the database recovery pass before merging resumes.
func (d *Daemon) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inFlush = true
	defer func() { d.inFlush = false }()
	if d.down {
		d.restart(d.lastClock)
	}
	if d.drv != nil {
		for cpu := 0; cpu < d.drv.NumCPUs(); cpu++ {
			d.stats.Drains++
			d.processBatch(cpu, d.lastClock, "process:final_flush", d.drv.FlushCPUAt(cpu, d.lastClock))
		}
	}
	for _, sh := range d.shards {
		d.stats.CostCycles += sh.pendingCost
		sh.pendingCost = 0
	}
	d.reapExited()
	if d.cfg.DB == nil {
		return nil
	}
	combined := d.detachAll()
	crashed, err := d.mergeToDisk(d.lastClock, combined)
	if crashed {
		// The injected crash hit the final merge. Restart and re-merge:
		// the crash dropped (and counted) the unwritten profiles, so this
		// leaves the database consistent for readers.
		d.restart(d.lastClock)
		_, err = d.mergeToDisk(d.lastClock, d.detachAll())
	} else if err != nil {
		d.reattach(d.shard(0), combined)
	}
	if err == nil {
		d.stats.Merges++
	}
	return err
}

// detachAll folds every shard's profiles into one map — the commutative
// profile merge that reunites per-CPU streams — and leaves the shards empty.
func (d *Daemon) detachAll() map[profKey]*profiledb.Profile {
	combined := make(map[profKey]*profiledb.Profile)
	for _, sh := range d.shards {
		for k, p := range sh.profiles {
			if q, ok := combined[k]; ok {
				q.Merge(p) //nolint:errcheck // same key ⇒ same image/event
			} else {
				combined[k] = p
			}
		}
		sh.profiles = make(map[profKey]*profiledb.Profile)
	}
	return combined
}

// mergeToDisk writes the detached profiles map into the database, deleting
// each profile from the map as it lands; entries left behind on error are
// the caller's to reattach. Fault injection: when the plan's CrashAtMerge
// matches this attempt, the merge writes the first CrashMergeProfiles
// profiles in sorted key order intact, tears the next one mid-file, and
// crashes the daemon. The writes before the tear fan out over spare budget
// slots: distinct keys are distinct files and db.Update is an atomic
// read-merge-rename per file, so the bytes — and the returned error, first
// in key order — do not depend on scheduling.
func (d *Daemon) mergeToDisk(clock int64, profiles map[profKey]*profiledb.Profile) (crashed bool, err error) {
	if d.cfg.DB == nil {
		return false, fmt.Errorf("daemon: no database configured")
	}
	d.mergeAttempts++
	injectAt := -1
	if f := d.cfg.Fault; f.CrashAtMerge > 0 && d.mergeAttempts == f.CrashAtMerge {
		injectAt = f.CrashMergeProfiles
	}
	keys := make([]profKey, 0, len(profiles))
	for k := range profiles {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.path != b.path {
			return a.path < b.path
		}
		if a.ev != b.ev {
			return a.ev < b.ev
		}
		return a.pid < b.pid
	})
	n := len(keys)
	if injectAt >= 0 {
		n = min(injectAt, n)
	}
	errs := make([]error, n)
	par.Default().Each(n, func(i int) { errs[i] = d.cfg.DB.Update(profiles[keys[i]]) })
	for i, k := range keys[:n] {
		if errs[i] == nil {
			delete(profiles, k)
		} else if err == nil {
			err = errs[i]
		}
	}
	if err != nil {
		return false, err
	}
	if n < len(keys) {
		// Torn write: the crash interrupts this profile mid-file, also
		// destroying whatever the file held from earlier merges. Both
		// losses are counted so recorded == merged + lost still holds.
		destroyed, _ := d.cfg.DB.WriteTorn(profiles[keys[n]])
		d.stats.CrashDropped += destroyed
		d.crash(clock, "fault:crash_merge", profiles)
		return true, nil
	}
	if d.obsOn {
		d.tracer.Instant("db", "epoch_flush", obs.PIDDB, 0, clock,
			map[string]any{"profiles": n, "epoch": d.cfg.DB.Epoch()})
	}
	return false, nil
}

// Profiles returns the in-memory profiles, sorted by image then event. A
// key split across CPU shards is returned as one merged clone, so callers
// see the same single-profile-per-key view the sequential daemon had.
func (d *Daemon) Profiles() []*profiledb.Profile {
	d.mu.Lock()
	defer d.mu.Unlock()
	merged := make(map[profKey]*profiledb.Profile)
	for _, sh := range d.shards {
		for k, p := range sh.profiles {
			q, ok := merged[k]
			if !ok {
				q = profiledb.NewProfile(p.ImagePath, p.Event)
				merged[k] = q
			}
			q.Merge(p) //nolint:errcheck // same key ⇒ same image/event
		}
	}
	out := make([]*profiledb.Profile, 0, len(merged))
	for _, p := range merged {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ImagePath != out[j].ImagePath {
			return out[i].ImagePath < out[j].ImagePath
		}
		return out[i].Event < out[j].Event
	})
	return out
}

// Stats returns a copy of the daemon statistics. Safe while CPUs run: the
// mutex guarantees a consistent snapshot, never a half-updated struct.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Memory accounting for Table 5: approximate resident bytes of the daemon's
// data structures.
const (
	bytesPerMapping      = 48
	bytesPerProfileEntry = 40
	bytesPerProfile      = 160
)

// MemoryBytes estimates current resident data bytes.
func (d *Daemon) MemoryBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memoryBytesLocked()
}

// memoryBytesLocked models the real daemon's single hash table: a profile
// key split across CPU shards counts once, with its offset sets unioned —
// otherwise sharding would inflate the Table 5 estimate by one profile
// header (and any shared offsets) per extra CPU that touched the image.
func (d *Daemon) memoryBytesLocked() int {
	total := d.loadmapBytes()
	populated := 0
	for _, sh := range d.shards {
		if len(sh.profiles) > 0 {
			populated++
		}
	}
	if populated <= 1 {
		for _, sh := range d.shards {
			total += sh.profileBytes()
		}
		return total
	}
	union := make(map[profKey]map[uint64]struct{})
	for _, sh := range d.shards {
		for k, p := range sh.profiles {
			offs, ok := union[k]
			if !ok {
				offs = make(map[uint64]struct{}, len(p.Counts))
				union[k] = offs
			}
			for off := range p.Counts {
				offs[off] = struct{}{}
			}
		}
	}
	for _, offs := range union {
		total += bytesPerProfile + len(offs)*bytesPerProfileEntry
	}
	return total
}

func (d *Daemon) loadmapBytes() int {
	total := 0
	for _, maps := range d.loadmaps {
		total += len(maps) * bytesPerMapping
	}
	return total
}

func (sh *shard) profileBytes() int {
	total := 0
	for _, p := range sh.profiles {
		total += bytesPerProfile + len(p.Counts)*bytesPerProfileEntry
	}
	return total
}

// PeakMemoryBytes returns the high-water mark of MemoryBytes.
func (d *Daemon) PeakMemoryBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakBytes
}

// trackPeak samples global memory. Only called from deterministic points:
// loadmap notifications (setup) and the single-threaded final flush.
func (d *Daemon) trackPeak() {
	if b := d.memoryBytesLocked(); b > d.peakBytes {
		d.peakBytes = b
	}
}

// trackPeakCPU samples memory after cpu processed a batch. Mid-run it looks
// only at loadmaps plus CPU 0's shard — global memory at that instant
// depends on how far the host happened to run the other CPUs, and the peak
// must not. Other CPUs' mid-run contribution is still captured: their
// shards only grow until the final flush, whose last batch (tracked
// globally via the inFlush path) therefore dominates any mid-run global
// value they could have produced.
func (d *Daemon) trackPeakCPU(cpu int) {
	if d.inFlush {
		d.trackPeak()
		return
	}
	if cpu != 0 {
		return
	}
	if b := d.loadmapBytes() + d.shard(0).profileBytes(); b > d.peakBytes {
		d.peakBytes = b
	}
}

// NoteExit marks a process as terminated; its loadmap is reaped at the next
// full flush (after any samples still in driver buffers are classified).
func (d *Daemon) NoteExit(pid uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exited = append(d.exited, pid)
}

// reapExited drops loadmaps of processes that exited. Caller holds mu.
func (d *Daemon) reapExited() {
	for _, pid := range d.exited {
		delete(d.loadmaps, pid)
	}
	d.exited = nil
}

// PublishMetrics writes the daemon's cumulative self-measurements into reg
// (call once, at the end of a run). Keys mirror the paper's Table 4 daemon
// column and Table 5 memory rows.
func (d *Daemon) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	reg.Counter("daemon.entries").Add(s.Entries)
	reg.Counter("daemon.samples").Add(s.Samples)
	reg.Counter("daemon.unknown_samples").Add(s.Unknown)
	reg.Counter("daemon.drains").Add(s.Drains)
	reg.Counter("daemon.merges").Add(s.Merges)
	reg.Counter("daemon.buffers_full").Add(s.BuffersFull)
	reg.Counter("daemon.deferred_deliveries").Add(s.Deferred)
	reg.Counter("daemon.crashes").Add(s.Crashes)
	reg.Counter("daemon.restarts").Add(s.Restarts)
	reg.Counter("daemon.crash_dropped_samples").Add(s.CrashDropped)
	reg.Counter("daemon.notifications").Add(s.Notifications)
	reg.Counter("daemon.cost_cycles").Add(uint64(s.CostCycles))
	reg.Gauge("daemon.unknown_rate").Set(s.UnknownRate())
	reg.Gauge("daemon.cycles_per_sample").Set(s.CostPerSample())
	reg.Gauge("daemon.memory_bytes").Set(float64(d.memoryBytesLocked()))
	reg.Gauge("daemon.peak_memory_bytes").Set(float64(d.peakBytes))
}
