// Package expo is dcpid's HTTP exposition surface: it serves a machine's
// profile database, live collection-stack statistics, and self-metrics
// over stdlib net/http so a dcpicollect scraper (or a curious human with
// curl) can pull them. This is the paper's fleet story made concrete —
// every machine runs the profiler continuously, and the profiles leave the
// machine through a cheap pull endpoint rather than an operator's shell.
//
// Endpoints:
//
//	/epochs           JSON list of profiledb epochs and their seal state
//	                  (?after=N lists only epochs above N, found by probing
//	                  N+1, N+2, … rather than listing the directory, so a
//	                  scraper that already holds 1..N pays for what is new)
//	/profiles?epoch=N JSON payload of one epoch's profiles (default: latest
//	                  sealed; ?full=1 adds per-offset counts; ?procs=1 adds
//	                  a per-procedure breakdown when the source finds images)
//	/stats            driver/daemon/loss counters as JSON
//	/metrics          the obs registry as flat "name value" text
//	                  (?format=json for the full snapshot)
//	/debug/pprof/     Go's own profiler, so the profiler profiles itself
//
// All reads go through one profiledb.OpenReader handle per Source, opened
// the first time the database has an epoch. OpenReader never mutates the
// database directory — the daemon can keep appending while scrapes are in
// flight (see the profiledb read-while-write contract) — and no handler
// uses the handle's own latest-epoch position, which is fixed at open:
// every request names its epoch, probes upward from one, or lists the
// directory. /epochs, /profiles and /stats answer in compact JSON; the
// snapshot of /metrics?format=json keeps obs's indented file format. With
// a Registry, /epochs counts the epoch directories it probes
// (expo.epochs_probed) and the directory listings it makes
// (expo.dir_listings).
package expo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"

	"dcpi/internal/daemon"
	"dcpi/internal/driver"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/profiledb"
)

// StatsSnapshot is the live view served on /stats. dcpid refreshes it at
// epoch boundaries (and once more at shutdown) through an atomic pointer,
// so the handler never races the simulation loop.
type StatsSnapshot struct {
	Machine      string       `json:"machine"`
	Workload     string       `json:"workload"`
	Epoch        int          `json:"epoch"`
	EpochsDone   int          `json:"epochs_done"`
	Running      bool         `json:"running"`
	WallCycles   int64        `json:"wall_cycles"`
	Driver       driver.Stats `json:"driver"`
	Daemon       daemon.Stats `json:"daemon"`
	LossRate     float64      `json:"loss_rate"`
	SamplesTotal uint64       `json:"samples_total"`
}

// Source is what one exposed machine provides to the handler.
type Source struct {
	Machine  string // fleet label, e.g. "m07"
	Workload string
	DBDir    string               // read through one profiledb.OpenReader handle
	Stats    func() StatsSnapshot // nil: /stats serves 404
	Registry *obs.Registry        // nil: /metrics serves an empty body
	// Image finds the image a profile's path names, whose SplitCounts
	// divides the profile among its procedures. nil disables the
	// /profiles?procs=1 per-procedure breakdown.
	Image func(path string) (*image.Image, bool)
	Hook  func(r *http.Request) // optional per-request tap (fault injection in tests)

	db atomic.Pointer[profiledb.DB] // set by reader once DBDir has an epoch
}

// EpochInfo is one entry of the /epochs listing.
type EpochInfo struct {
	Epoch  int  `json:"epoch"`
	Sealed bool `json:"sealed"`
}

// EpochsPayload is the /epochs response.
type EpochsPayload struct {
	Machine  string      `json:"machine"`
	Workload string      `json:"workload"`
	Epochs   []EpochInfo `json:"epochs"`
}

// ProfileRecord is one (image, event) profile in a /profiles payload.
type ProfileRecord struct {
	Image   string `json:"image"`
	Event   string `json:"event"`
	Samples uint64 `json:"samples"`
	// Insts is the image's exact executed-instruction count from the epoch
	// metadata (0 when the run did not collect exact counts).
	Insts uint64 `json:"insts,omitempty"`
	// Offsets holds the raw (offset, count) pairs when ?full=1.
	Offsets [][2]uint64 `json:"offsets,omitempty"`
	// Procs holds the per-procedure sample breakdown when ?procs=1 and the
	// source finds images: the image's split, and "(unknown)" for the
	// samples at no procedure's offset (all of them when the source does not
	// find the image), so the breakdown always sums to Samples.
	Procs []ProcSample `json:"procs,omitempty"`
}

// ProcSample is one procedure's share of an image's samples.
type ProcSample struct {
	Proc    string `json:"proc"`
	Samples uint64 `json:"samples"`
}

// ProfilesPayload is the /profiles response: one epoch-stamped snapshot of
// a machine's profile database.
type ProfilesPayload struct {
	Machine  string          `json:"machine"`
	Workload string          `json:"workload"`
	Epoch    int             `json:"epoch"`
	Sealed   bool            `json:"sealed"`
	Meta     *profiledb.Meta `json:"meta,omitempty"`
	Profiles []ProfileRecord `json:"profiles"`
}

// Handler builds the exposition mux for one source.
func Handler(src *Source) http.Handler {
	mux := http.NewServeMux()
	wrap := func(h http.HandlerFunc) http.HandlerFunc {
		if src.Hook == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			src.Hook(r)
			h(w, r)
		}
	}
	mux.HandleFunc("/epochs", wrap(src.serveEpochs))
	mux.HandleFunc("/profiles", wrap(src.serveProfiles))
	mux.HandleFunc("/stats", wrap(src.serveStats))
	mux.HandleFunc("/metrics", wrap(src.serveMetrics))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON writes v as compact JSON: the scrape protocol is machine to
// machine, and a human reading along can pipe it through jq.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// reader returns the source's read-only handle, opening it the first time
// DBDir has an epoch; until then it returns OpenReader's error. Concurrent
// first requests may each open one, and all keep the first one stored.
func (src *Source) reader() (*profiledb.DB, error) {
	if db := src.db.Load(); db != nil {
		return db, nil
	}
	db, err := profiledb.OpenReader(src.DBDir)
	if err != nil {
		return nil, err
	}
	src.db.CompareAndSwap(nil, db)
	return src.db.Load(), nil
}

func (src *Source) serveEpochs(w http.ResponseWriter, r *http.Request) {
	after := 0
	vs, hasAfter := r.URL.Query()["after"]
	if hasAfter {
		n, err := strconv.Atoi(vs[0])
		if err != nil || n < 0 {
			http.Error(w, "bad after", http.StatusBadRequest)
			return
		}
		after = n
	}
	payload := EpochsPayload{Machine: src.Machine, Workload: src.Workload, Epochs: []EpochInfo{}}
	if db, err := src.reader(); err == nil {
		epochs, lerr := src.epochsAfter(db, after, hasAfter)
		if lerr != nil {
			http.Error(w, lerr.Error(), http.StatusInternalServerError)
			return
		}
		for _, e := range epochs {
			payload.Epochs = append(payload.Epochs, EpochInfo{Epoch: e, Sealed: db.Sealed(e)})
		}
	}
	writeJSON(w, payload)
}

// epochsAfter lists the epochs /epochs reports and counts what finding them
// cost: the root listings (expo.dir_listings) and the epoch directories
// stat'ed (expo.epochs_probed). With after given it walks up from after+1
// (profiledb's EpochsAfter), so a scrape from the collector's high-water
// mark costs what is new; without, it lists the whole root.
func (src *Source) epochsAfter(db *profiledb.DB, after int, hasAfter bool) ([]int, error) {
	reg := src.Registry
	if !hasAfter {
		reg.Counter("expo.dir_listings").Inc()
		return db.Epochs()
	}
	epochs, err := db.EpochsAfter(after)
	if len(epochs) > 0 && epochs[0] == after+1 {
		// Each epoch returned was stat'ed, and so was the first one missing.
		reg.Counter("expo.epochs_probed").Add(uint64(len(epochs)) + 1)
	} else {
		// Epoch after+1 was missing: one stat, then one listing.
		reg.Counter("expo.epochs_probed").Inc()
		reg.Counter("expo.dir_listings").Inc()
	}
	return epochs, err
}

func (src *Source) serveProfiles(w http.ResponseWriter, r *http.Request) {
	db, err := src.reader()
	if err != nil {
		http.Error(w, fmt.Sprintf("profile database not ready: %v", err), http.StatusServiceUnavailable)
		return
	}
	epoch := 0
	if s := r.URL.Query().Get("epoch"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			http.Error(w, "bad epoch", http.StatusBadRequest)
			return
		}
		epoch = n
	} else {
		// Default to the latest sealed epoch: the newest snapshot whose
		// contents can no longer change under the reader. Walking down
		// from the top stops at it, whatever the history below.
		epochs, err := db.Epochs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for i := len(epochs) - 1; i >= 0 && epoch == 0; i-- {
			if db.Sealed(epochs[i]) {
				epoch = epochs[i]
			}
		}
		if epoch == 0 {
			http.Error(w, "no sealed epoch yet", http.StatusServiceUnavailable)
			return
		}
	}

	// The seal is read first: epoch.meta is written after the epoch's last
	// profile, so profiles read after it are the sealed set, while a seal
	// read after them could cover profiles written in between.
	meta, hasMeta, err := db.MetaAt(epoch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	profiles, err := db.ProfilesAt(epoch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	payload := ProfilesPayload{
		Machine:  src.Machine,
		Workload: src.Workload,
		Epoch:    epoch,
		Sealed:   hasMeta,
		Profiles: []ProfileRecord{},
	}
	if hasMeta {
		payload.Meta = &meta
	}
	full := r.URL.Query().Get("full") == "1"
	procs := r.URL.Query().Get("procs") == "1" && src.Image != nil
	for _, p := range profiles {
		rec := ProfileRecord{
			Image:   p.ImagePath,
			Event:   p.Event.String(),
			Samples: p.Total(),
		}
		if hasMeta {
			rec.Insts = meta.ImageInsts[p.ImagePath]
		}
		if full {
			offs := make([]uint64, 0, len(p.Counts))
			for off := range p.Counts {
				offs = append(offs, off)
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			for _, off := range offs {
				rec.Offsets = append(rec.Offsets, [2]uint64{off, p.Counts[off]})
			}
		}
		if procs {
			byProc := map[string]uint64{}
			unknown := rec.Samples
			if im, ok := src.Image(p.ImagePath); ok {
				var perProc []uint64
				perProc, _, unknown = im.SplitCounts(p.Counts)
				for s, n := range perProc {
					if n > 0 {
						byProc[im.Symbols[s].Name] += n
					}
				}
			}
			if unknown > 0 {
				byProc["(unknown)"] += unknown
			}
			names := make([]string, 0, len(byProc))
			for name := range byProc {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				rec.Procs = append(rec.Procs, ProcSample{Proc: name, Samples: byProc[name]})
			}
		}
		payload.Profiles = append(payload.Profiles, rec)
	}
	writeJSON(w, payload)
}

func (src *Source) serveStats(w http.ResponseWriter, r *http.Request) {
	if src.Stats == nil {
		http.Error(w, "no live stats", http.StatusNotFound)
		return
	}
	writeJSON(w, src.Stats())
}

func (src *Source) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		src.Registry.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	src.Registry.WriteFlat(w)
}
