package dcpi

// The persistent run cache (internal/runcache) stores completed runs on
// disk keyed by their content key (runner.Key). This file is the codec
// between a *Result and that on-disk blob.
//
// A run is serialized as its measurement snapshot: wall cycles, machine
// size, driver/daemon statistics, exact execution counts, the raw sample
// trace, and every collected profile (reusing profiledb's delta-varint
// profile codec). Everything else a Result offers — symbolization, CFGs,
// the §6 analysis — is a pure function of that snapshot plus the
// workload's images, and the images come from the shell the process shares
// between all results of the same shape (shell.go): what the workload's
// set-up registers, with no process data, exactly what OpenView resolves
// an on-disk database against. Decoding therefore costs a varint pass over
// the blob, and returns a Result whose accessors (Profiles, ProcRows,
// AnalyzeProc, Summarize, ...) produce byte-identical output to the freshly
// simulated run; only the live Driver/Daemon/Machine pointers are absent:
// the shell carries the model and the CPU count.
//
// A blob is untrusted: its envelope CRC says it arrived intact, not that
// this build wrote it (cache entries travel between machines). It is read
// through internal/wire, which checks every count against the bytes that
// remain before anything is sized from it.
//
// Versioning: SnapshotVersion stamps the blob layout; bump it whenever the
// encoding below changes. Callers additionally mix SimVersion into the
// cache's version stamp so persisted results are invalidated wholesale
// when the simulator's semantics change (new stall model, new workload
// encoding, ...) even though the configuration key is unchanged.

import (
	"fmt"
	"sort"

	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

// SnapshotVersion identifies the blob layout written by EncodeSnapshot.
// v2 added the machine's ground-truth hardware statistics (MachineStats);
// v3 embeds the canonical hardware description (hw.Config.String) so a blob
// can never be rehydrated under a different machine than it was measured on.
const SnapshotVersion = 3

// SimVersion names the simulator generation whose results are on disk.
// Bump it whenever a change alters simulation output for an unchanged
// configuration (pipeline model, workload definitions, sampling logic);
// persisted cache entries from older generations then miss instead of
// resurrecting stale results.
const SimVersion = "sim-1"

// CacheStamp is the combined version stamp a persistent run cache should
// be opened with: it invalidates entries on either a blob-layout or a
// simulator-semantics change.
func CacheStamp() string {
	return fmt.Sprintf("%s/snap-%d", SimVersion, SnapshotVersion)
}

// EncodeSnapshot serializes a completed run's measurement snapshot. Encoding
// appends to memory and cannot fail: the error is always nil, kept for the
// callers that compile against this signature.
func EncodeSnapshot(r *Result) ([]byte, error) {
	var w wire.Enc

	w.Uvarint(SnapshotVersion)
	w.Str(r.Config.HW.String())
	w.Varint(r.Wall)
	w.Uvarint(uint64(r.NumCPUs))

	// Driver stats (order pinned; see TestSnapshotPinsStatsFields).
	ds := r.DriverStats
	w.Uvarint(ds.Samples)
	w.Uvarint(ds.Hits)
	w.Uvarint(ds.Misses)
	w.Uvarint(ds.Evictions)
	w.Uvarint(ds.Inserts)
	w.Uvarint(ds.FlushIPIs)
	w.Uvarint(ds.BufSwaps)
	w.Uvarint(ds.Direct)
	w.Uvarint(ds.Lost)
	w.Uvarint(ds.Deferred)
	w.Varint(ds.CostCycles)
	w.Uvarint(uint64(r.DriverKernelBytes))

	// Daemon stats.
	ms := r.DaemonStats
	w.Uvarint(ms.Entries)
	w.Uvarint(ms.Samples)
	w.Uvarint(ms.Unknown)
	w.Uvarint(ms.Drains)
	w.Uvarint(ms.Merges)
	w.Uvarint(ms.BuffersFull)
	w.Uvarint(ms.Deferred)
	w.Uvarint(ms.Crashes)
	w.Uvarint(ms.Restarts)
	w.Uvarint(ms.CrashDropped)
	w.Varint(ms.CostCycles)
	w.Uvarint(ms.Notifications)
	w.Uvarint(uint64(r.DaemonMemBytes))
	w.Uvarint(uint64(r.DaemonPeakBytes))
	w.Varint(r.DBDiskBytes)

	// Machine hardware statistics (order pinned like the stats above).
	hs := r.MachineStats
	w.Varint(hs.Cycles)
	w.Uvarint(hs.Instructions)
	w.Uvarint(hs.IssueGroups)
	w.Uvarint(hs.Samples)
	w.Uvarint(hs.ICacheMisses)
	w.Uvarint(hs.DCacheMisses)
	w.Uvarint(hs.ITBMisses)
	w.Uvarint(hs.DTBMisses)
	w.Uvarint(hs.Mispredicts)
	w.Uvarint(hs.WBOverflows)
	w.Uvarint(hs.Faults)

	// Exact execution counts, sorted by image ID for a canonical encoding.
	if r.Exact == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(1)
		ids := make([]uint32, 0, len(r.Exact.Exec))
		for id := range r.Exact.Exec {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Count(len(ids))
		for _, id := range ids {
			w.Uvarint(uint64(id))
			exec := r.Exact.Exec[id]
			taken := r.Exact.Taken[id]
			w.Count(len(exec))
			for _, n := range exec {
				w.Uvarint(n)
			}
			w.Count(len(taken))
			for _, n := range taken {
				w.Uvarint(n)
			}
		}
	}

	// Raw sample trace (order preserved — ablations replay it).
	w.Count(len(r.Trace))
	for _, s := range r.Trace {
		w.Uvarint(uint64(s.CPU))
		w.Uvarint(uint64(s.PID))
		w.Uvarint(s.PC)
		w.Uvarint(s.PC2)
		w.Uvarint(uint64(s.Event))
		w.Varint(s.Clock)
	}

	// Profiles, each length-prefixed in profiledb's own self-validating
	// format, in the order the run produced them.
	w.Count(len(r.profiles))
	for _, p := range r.profiles {
		w.Bytes(p.Encode())
	}
	return w.B, nil
}

// DecodeSnapshot reconstructs a run from its serialized snapshot. cfg must
// be the configuration the blob was keyed under (the caller looked the
// blob up by runner.Key(cfg), so it has the config in hand); it selects
// the shared shell the result's Loader and model come from (see Result).
func DecodeSnapshot(blob []byte, cfg Config) (*Result, error) {
	r := wire.Dec{B: blob}

	if v := r.Uvarint(); r.Err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("dcpi: snapshot version %d, want %d", v, SnapshotVersion)
	}
	if hwSpec := r.Str(); r.Err == nil && hwSpec != cfg.HW.String() {
		return nil, fmt.Errorf("dcpi: snapshot measured on machine %q, config wants %q",
			hwSpec, cfg.HW.String())
	}
	res := &Result{Config: cfg}
	res.Wall = r.Varint()
	res.NumCPUs = int(r.Uvarint())

	ds := &res.DriverStats
	ds.Samples = r.Uvarint()
	ds.Hits = r.Uvarint()
	ds.Misses = r.Uvarint()
	ds.Evictions = r.Uvarint()
	ds.Inserts = r.Uvarint()
	ds.FlushIPIs = r.Uvarint()
	ds.BufSwaps = r.Uvarint()
	ds.Direct = r.Uvarint()
	ds.Lost = r.Uvarint()
	ds.Deferred = r.Uvarint()
	ds.CostCycles = r.Varint()
	res.DriverKernelBytes = int(r.Uvarint())

	ms := &res.DaemonStats
	ms.Entries = r.Uvarint()
	ms.Samples = r.Uvarint()
	ms.Unknown = r.Uvarint()
	ms.Drains = r.Uvarint()
	ms.Merges = r.Uvarint()
	ms.BuffersFull = r.Uvarint()
	ms.Deferred = r.Uvarint()
	ms.Crashes = r.Uvarint()
	ms.Restarts = r.Uvarint()
	ms.CrashDropped = r.Uvarint()
	ms.CostCycles = r.Varint()
	ms.Notifications = r.Uvarint()
	res.DaemonMemBytes = int(r.Uvarint())
	res.DaemonPeakBytes = int(r.Uvarint())
	res.DBDiskBytes = r.Varint()

	hs := &res.MachineStats
	hs.Cycles = r.Varint()
	hs.Instructions = r.Uvarint()
	hs.IssueGroups = r.Uvarint()
	hs.Samples = r.Uvarint()
	hs.ICacheMisses = r.Uvarint()
	hs.DCacheMisses = r.Uvarint()
	hs.ITBMisses = r.Uvarint()
	hs.DTBMisses = r.Uvarint()
	hs.Mispredicts = r.Uvarint()
	hs.WBOverflows = r.Uvarint()
	hs.Faults = r.Uvarint()

	if r.Uvarint() == 1 {
		exact := &sim.Counts{Exec: map[uint32][]uint64{}, Taken: map[uint32][]uint64{}}
		nimg := r.Count(3) // an id and two lengths
		for i := 0; i < nimg && r.Err == nil; i++ {
			id := uint32(r.Uvarint())
			exec := make([]uint64, r.Count(1))
			for j := range exec {
				exec[j] = r.Uvarint()
			}
			taken := make([]uint64, r.Count(1))
			for j := range taken {
				taken[j] = r.Uvarint()
			}
			exact.Exec[id] = exec
			exact.Taken[id] = taken
		}
		res.Exact = exact
	}

	if n := r.Count(6); n > 0 { // six varints a sample
		res.Trace = make([]sim.Sample, n)
		for i := range res.Trace {
			s := &res.Trace[i]
			s.CPU = int(r.Uvarint())
			s.PID = uint32(r.Uvarint())
			s.PC = r.Uvarint()
			s.PC2 = r.Uvarint()
			s.Event = sim.Event(r.Uvarint())
			s.Clock = r.Varint()
		}
	}

	nprof := r.Count(1)
	for i := 0; i < nprof && r.Err == nil; i++ {
		p, err := profiledb.DecodeProfile(r.Bytes())
		if err != nil {
			r.Fail(err)
		}
		res.profiles = append(res.profiles, p)
	}
	if r.Err != nil {
		return nil, fmt.Errorf("dcpi: decoding snapshot: %w", r.Err)
	}

	sh, err := sharedShell(cfg)
	if err != nil {
		return nil, err
	}
	// Run records the machine size it resolved from the same configuration;
	// a blob that disagrees was not measured under cfg.
	if res.NumCPUs != sh.ncpu {
		return nil, fmt.Errorf("dcpi: snapshot measured on %d CPUs, config wants %d", res.NumCPUs, sh.ncpu)
	}
	res.Loader = sh.loader
	res.model = sh.model
	res.reg = cfg.Obs.Registry
	return res, nil
}

// PlaceholderResult builds an empty but structurally complete run for a
// configuration: the shared shell's images, model and CPU count, zero
// samples, zero stats, empty (non-nil) exact counts. Sharded evaluation
// (dcpieval -shard) hands these to experiment code for runs belonging to
// other shards, so sections can keep iterating — and keep submitting their
// remaining runs — while their rendered output is discarded.
func PlaceholderResult(cfg Config) (*Result, error) {
	sh, err := sharedShell(cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Config:  cfg,
		Loader:  sh.loader,
		model:   sh.model,
		NumCPUs: sh.ncpu,
		Exact:   &sim.Counts{Exec: map[uint32][]uint64{}, Taken: map[uint32][]uint64{}},
	}, nil
}
