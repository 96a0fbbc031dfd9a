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
// set-up registers, with no process data, exactly what OfflineView resolves
// an on-disk database against. Decoding therefore costs a varint pass over
// the blob, and returns a Result whose accessors (Profiles, ProcRows,
// AnalyzeProc, Summarize, ...) produce byte-identical output to the freshly
// simulated run; only the live Driver/Daemon pointers are absent, and the
// Machine is the shell's, which never ran and carries the model and CPU
// count.
//
// A blob is untrusted: its envelope CRC says it arrived intact, not that
// this build wrote it (shard archives travel between machines). Every count
// in it is checked against the bytes that remain before anything is sized
// from it.
//
// Versioning: SnapshotVersion stamps the blob layout; bump it whenever the
// encoding below changes. Callers additionally mix SimVersion into the
// cache's version stamp so persisted results are invalidated wholesale
// when the simulator's semantics change (new stall model, new workload
// encoding, ...) even though the configuration key is unchanged.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"dcpi/internal/atomicio"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
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

// EncodeSnapshot serializes a completed run's measurement snapshot.
func EncodeSnapshot(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := &snapWriter{w: bw}

	w.uvarint(SnapshotVersion)
	w.str(r.Config.HW.String())
	w.varint(r.Wall)
	w.uvarint(uint64(r.NumCPUs))

	// Driver stats (order pinned; see TestSnapshotPinsStatsFields).
	ds := r.DriverStats
	w.uvarint(ds.Samples)
	w.uvarint(ds.Hits)
	w.uvarint(ds.Misses)
	w.uvarint(ds.Evictions)
	w.uvarint(ds.Inserts)
	w.uvarint(ds.FlushIPIs)
	w.uvarint(ds.BufSwaps)
	w.uvarint(ds.Direct)
	w.uvarint(ds.Lost)
	w.uvarint(ds.Deferred)
	w.varint(ds.CostCycles)
	w.uvarint(uint64(r.DriverKernelBytes))

	// Daemon stats.
	ms := r.DaemonStats
	w.uvarint(ms.Entries)
	w.uvarint(ms.Samples)
	w.uvarint(ms.Unknown)
	w.uvarint(ms.Drains)
	w.uvarint(ms.Merges)
	w.uvarint(ms.BuffersFull)
	w.uvarint(ms.Deferred)
	w.uvarint(ms.Crashes)
	w.uvarint(ms.Restarts)
	w.uvarint(ms.CrashDropped)
	w.varint(ms.CostCycles)
	w.uvarint(ms.Notifications)
	w.uvarint(uint64(r.DaemonMemBytes))
	w.uvarint(uint64(r.DaemonPeakBytes))
	w.varint(r.DBDiskBytes)

	// Machine hardware statistics (order pinned like the stats above).
	hs := r.MachineStats
	w.varint(hs.Cycles)
	w.uvarint(hs.Instructions)
	w.uvarint(hs.IssueGroups)
	w.uvarint(hs.Samples)
	w.uvarint(hs.ICacheMisses)
	w.uvarint(hs.DCacheMisses)
	w.uvarint(hs.ITBMisses)
	w.uvarint(hs.DTBMisses)
	w.uvarint(hs.Mispredicts)
	w.uvarint(hs.WBOverflows)
	w.uvarint(hs.Faults)

	// Exact execution counts, sorted by image ID for a canonical encoding.
	if r.Exact == nil {
		w.uvarint(0)
	} else {
		w.uvarint(1)
		ids := make([]uint32, 0, len(r.Exact.Exec))
		for id := range r.Exact.Exec {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.uvarint(uint64(id))
			exec := r.Exact.Exec[id]
			taken := r.Exact.Taken[id]
			w.uvarint(uint64(len(exec)))
			for _, n := range exec {
				w.uvarint(n)
			}
			w.uvarint(uint64(len(taken)))
			for _, n := range taken {
				w.uvarint(n)
			}
		}
	}

	// Raw sample trace (order preserved — ablations replay it).
	w.uvarint(uint64(len(r.Trace)))
	for _, s := range r.Trace {
		w.uvarint(uint64(s.CPU))
		w.uvarint(uint64(s.PID))
		w.uvarint(s.PC)
		w.uvarint(s.PC2)
		w.uvarint(uint64(s.Event))
		w.varint(s.Clock)
	}

	// Profiles, each length-prefixed in profiledb's own self-validating
	// format, in the order the run produced them.
	w.uvarint(uint64(len(r.profiles)))
	for _, p := range r.profiles {
		var pb bytes.Buffer
		if err := p.Write(&pb); err != nil {
			return nil, err
		}
		w.uvarint(uint64(pb.Len()))
		if w.err == nil {
			_, w.err = bw.Write(pb.Bytes())
		}
	}

	if w.err != nil {
		return nil, w.err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reconstructs a run from its serialized snapshot. cfg must
// be the configuration the blob was keyed under (the caller looked the
// blob up by runner.Key(cfg), so it has the config in hand); it selects
// the shared shell the result's Loader and Machine point at (see Result).
func DecodeSnapshot(blob []byte, cfg Config) (*Result, error) {
	r := &snapReader{r: bytes.NewReader(blob)}

	if v := r.uvarint(); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("dcpi: snapshot version %d, want %d", v, SnapshotVersion)
	}
	if hwSpec := r.str(); r.err == nil && hwSpec != cfg.HW.String() {
		return nil, fmt.Errorf("dcpi: snapshot measured on machine %q, config wants %q",
			hwSpec, cfg.HW.String())
	}
	res := &Result{Config: cfg}
	res.Wall = r.varint()
	res.NumCPUs = int(r.uvarint())

	ds := &res.DriverStats
	ds.Samples = r.uvarint()
	ds.Hits = r.uvarint()
	ds.Misses = r.uvarint()
	ds.Evictions = r.uvarint()
	ds.Inserts = r.uvarint()
	ds.FlushIPIs = r.uvarint()
	ds.BufSwaps = r.uvarint()
	ds.Direct = r.uvarint()
	ds.Lost = r.uvarint()
	ds.Deferred = r.uvarint()
	ds.CostCycles = r.varint()
	res.DriverKernelBytes = int(r.uvarint())

	ms := &res.DaemonStats
	ms.Entries = r.uvarint()
	ms.Samples = r.uvarint()
	ms.Unknown = r.uvarint()
	ms.Drains = r.uvarint()
	ms.Merges = r.uvarint()
	ms.BuffersFull = r.uvarint()
	ms.Deferred = r.uvarint()
	ms.Crashes = r.uvarint()
	ms.Restarts = r.uvarint()
	ms.CrashDropped = r.uvarint()
	ms.CostCycles = r.varint()
	ms.Notifications = r.uvarint()
	res.DaemonMemBytes = int(r.uvarint())
	res.DaemonPeakBytes = int(r.uvarint())
	res.DBDiskBytes = r.varint()

	hs := &res.MachineStats
	hs.Cycles = r.varint()
	hs.Instructions = r.uvarint()
	hs.IssueGroups = r.uvarint()
	hs.Samples = r.uvarint()
	hs.ICacheMisses = r.uvarint()
	hs.DCacheMisses = r.uvarint()
	hs.ITBMisses = r.uvarint()
	hs.DTBMisses = r.uvarint()
	hs.Mispredicts = r.uvarint()
	hs.WBOverflows = r.uvarint()
	hs.Faults = r.uvarint()

	if r.uvarint() == 1 {
		exact := &sim.Counts{Exec: map[uint32][]uint64{}, Taken: map[uint32][]uint64{}}
		nimg := r.count(3) // an id and two lengths
		for i := 0; i < nimg && r.err == nil; i++ {
			id := uint32(r.uvarint())
			exec := make([]uint64, r.count(1))
			for j := range exec {
				exec[j] = r.uvarint()
			}
			taken := make([]uint64, r.count(1))
			for j := range taken {
				taken[j] = r.uvarint()
			}
			exact.Exec[id] = exec
			exact.Taken[id] = taken
		}
		res.Exact = exact
	}

	if n := r.count(6); n > 0 { // six varints a sample
		res.Trace = make([]sim.Sample, n)
		for i := range res.Trace {
			s := &res.Trace[i]
			s.CPU = int(r.uvarint())
			s.PID = uint32(r.uvarint())
			s.PC = r.uvarint()
			s.PC2 = r.uvarint()
			s.Event = sim.Event(r.uvarint())
			s.Clock = r.varint()
		}
	}

	nprof := r.count(1)
	for i := 0; i < nprof && r.err == nil; i++ {
		pb := r.bytes()
		if r.err != nil {
			break
		}
		p, err := profiledb.ReadProfile(bytes.NewReader(pb))
		if err != nil {
			r.err = err
			break
		}
		res.profiles = append(res.profiles, p)
	}
	if r.err != nil {
		return nil, fmt.Errorf("dcpi: decoding snapshot: %w", r.err)
	}

	sh, err := sharedShell(cfg)
	if err != nil {
		return nil, err
	}
	// Run records the machine size it resolved from the same configuration;
	// a blob that disagrees was not measured under cfg.
	if ncpu := len(sh.machine.CPUs); res.NumCPUs != ncpu {
		return nil, fmt.Errorf("dcpi: snapshot measured on %d CPUs, config wants %d", res.NumCPUs, ncpu)
	}
	res.Loader = sh.loader
	res.Machine = sh.machine
	return res, nil
}

// PlaceholderResult builds an empty but structurally complete run for a
// configuration: the shared shell's images and machine, zero samples, zero
// stats, empty (non-nil) exact counts. Sharded evaluation (dcpieval -shard)
// hands these to experiment code for runs belonging to other shards, so
// sections can keep iterating — and keep submitting their remaining runs —
// while their rendered output is discarded.
func PlaceholderResult(cfg Config) (*Result, error) {
	sh, err := sharedShell(cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Config:  cfg,
		Loader:  sh.loader,
		Machine: sh.machine,
		NumCPUs: len(sh.machine.CPUs),
		Exact:   &sim.Counts{Exec: map[uint32][]uint64{}, Taken: map[uint32][]uint64{}},
	}, nil
}

// snapWriter/snapReader thread one sticky error through the varint codec.
type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (s *snapWriter) uvarint(v uint64) {
	if s.err == nil {
		s.err = atomicio.WriteUvarint(s.w, v)
	}
}

func (s *snapWriter) varint(v int64) {
	if s.err == nil {
		s.err = atomicio.WriteVarint(s.w, v)
	}
}

func (s *snapWriter) str(v string) {
	s.uvarint(uint64(len(v)))
	if s.err == nil {
		_, s.err = s.w.WriteString(v)
	}
}

type snapReader struct {
	r   *bytes.Reader
	err error
}

// count reads the number of elements that follow, each at least width bytes
// long on the wire, and fails if the blob is too short to hold them, so a
// corrupt count can never size an allocation.
func (s *snapReader) count(width int) int {
	n := s.uvarint()
	if s.err == nil && n > uint64(s.r.Len()/width) {
		s.err = fmt.Errorf("count %d exceeds the %d bytes that remain", n, s.r.Len())
	}
	if s.err != nil {
		return 0 // a failed read still returns the bits it got
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing nothing.
func (s *snapReader) bytes() []byte {
	b := make([]byte, s.count(1))
	if s.err == nil {
		_, s.err = io.ReadFull(s.r, b)
	}
	return b
}

func (s *snapReader) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	v, err := atomicio.ReadUvarint(s.r)
	s.err = err
	return v
}

func (s *snapReader) varint() int64 {
	if s.err != nil {
		return 0
	}
	v, err := atomicio.ReadVarint(s.r)
	s.err = err
	return v
}

func (s *snapReader) str() string { return string(s.bytes()) }
