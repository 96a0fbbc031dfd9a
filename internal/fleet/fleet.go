// Package fleet spins up a simulated fleet of profiled machines for the
// continuous-profiling service: N in-process "machines", each with its own
// on-disk profile database and an HTTP exposition endpoint
// (internal/expo), advancing through epochs so a dcpicollect scraper has
// something real to pull.
//
// Each machine's profiles derive from one genuine simulation of its
// assigned workload (internal/dcpi at a small scale, with exact counts so
// CPI is computable). Per-epoch variation is a deterministic, seeded
// perturbation of that base profile — machine m at epoch e always produces
// the same counts — so the whole fleet is reproducible and the scraped
// store can be verified bit-for-bit against the per-machine databases
// (Check, in check.go).
// An optional anomaly inflates one image's samples on a slice of the fleet
// after a chosen epoch, giving the top-delta and CPI-regression queries
// real signal; an optional fault injector makes one machine's endpoint
// fail requests, exercising the collector's retry/backoff/staleness path.
package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/expo"
	"dcpi/internal/loader"
	"dcpi/internal/par"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

// Options configures Start.
type Options struct {
	// Dir is the root directory; machine databases live at Dir/mNN.
	Dir string
	// Machines is the fleet size (default 4).
	Machines int
	// Workloads are assigned round-robin (default {"wave5"}).
	Workloads []string
	// Seed drives the base simulations and all per-epoch jitter.
	Seed uint64
	// Scale is the base-run workload scale (default 0.1).
	Scale float64
	// AnomalyAfter, when > 0, triples the samples of the base run's hottest
	// non-kernel image (AnomalyImage) on every anomalous machine (indices
	// 1, 5, 9, ... — m%4 == 1) for epochs strictly greater than
	// AnomalyAfter. Samples grow while executed instructions do not: a CPI
	// regression.
	AnomalyAfter int
	// FaultMachine, when >= 0, wraps that machine's endpoint in a fault
	// injector: the first 6 requests fail outright with HTTP 500 (two
	// scrapes at two retries), and afterwards every 3rd request still fails
	// (recoverable via retry).
	FaultMachine int
}

const anomalyFactor, faultHardFails, faultEvery = 3, 6, 3

// template is the per-workload base profile a machine perturbs per epoch.
type template struct {
	workload string
	wall     int64
	period   float64
	profiles []profileTemplate
	insts    map[string]uint64
	hotImage string
	loader   *loader.Loader // base run's images, for symbolizing offsets
}

type profileTemplate struct {
	image   string
	event   sim.Event
	offsets []uint64
	counts  []uint64
}

// Machine is one simulated fleet member.
type Machine struct {
	Name     string
	Workload string
	URL      string
	DBDir    string

	fleet *Fleet
	tmpl  *template
	db    *profiledb.DB
	epoch int
	srv   *http.Server
	lis   net.Listener
	anom  bool
}

// Fleet is a running set of machines.
type Fleet struct {
	Machines []*Machine
	opts     Options

	mu          sync.Mutex
	lastWorkers int // goroutines the last AdvanceEpoch sealed on
}

// injectFaults deterministically fails requests to h (see Options).
func injectFaults(h http.Handler) http.Handler {
	var requests atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := requests.Add(1); n <= faultHardFails || n%faultEvery == 0 {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// Start builds the fleet: one base simulation per distinct workload, then
// a profile database and a listening exposition endpoint per machine.
// Call Close when done.
func Start(opts Options) (*Fleet, error) {
	if opts.Machines <= 0 {
		opts.Machines = 4
	}
	if len(opts.Workloads) == 0 {
		opts.Workloads = []string{"wave5"}
	}
	if opts.Scale <= 0 {
		opts.Scale = 0.1
	}

	tmpls := map[string]*template{}
	for _, wl := range opts.Workloads {
		if _, ok := tmpls[wl]; ok {
			continue
		}
		t, err := buildTemplate(wl, opts.Seed, opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("fleet: base run for %s: %w", wl, err)
		}
		tmpls[wl] = t
	}

	f := &Fleet{opts: opts}
	for i := 0; i < opts.Machines; i++ {
		wl := opts.Workloads[i%len(opts.Workloads)]
		name := fmt.Sprintf("m%02d", i)
		dbDir := filepath.Join(opts.Dir, name)
		db, err := profiledb.Open(dbDir)
		if err != nil {
			f.Close()
			return nil, err
		}
		m := &Machine{
			Name:     name,
			Workload: wl,
			DBDir:    dbDir,
			fleet:    f,
			tmpl:     tmpls[wl],
			db:       db,
			anom:     opts.AnomalyAfter > 0 && i%4 == 1,
		}
		handler := http.Handler(expo.Handler(&expo.Source{
			Machine:  name,
			Workload: wl,
			DBDir:    dbDir,
			Image:    tmpls[wl].loader.ImageByPath,
		}))
		if i == opts.FaultMachine {
			handler = injectFaults(handler)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		m.lis = lis
		m.URL = "http://" + lis.Addr().String()
		m.srv = &http.Server{Handler: handler}
		go m.srv.Serve(lis)
		f.Machines = append(f.Machines, m)
	}
	return f, nil
}

// buildTemplate runs the workload once (exact counts on) and captures its
// aggregate profiles as the machine template.
func buildTemplate(wl string, seed uint64, scale float64) (*template, error) {
	r, err := dcpi.Run(dcpi.Config{
		Workload:     wl,
		Mode:         sim.ModeDefault,
		Seed:         seed,
		Scale:        scale,
		CollectExact: true,
	})
	if err != nil {
		return nil, err
	}
	t := &template{
		workload: wl,
		wall:     r.Wall,
		period:   r.AvgCyclesPeriod(),
		insts:    r.ExactImageInsts(),
		loader:   r.Loader,
	}
	var hotSamples uint64
	for _, p := range r.Profiles() {
		if _, pid := daemon.ParseProfileName(p.ImagePath); pid != 0 {
			continue // per-process duplicates of the aggregate
		}
		pt := profileTemplate{image: p.ImagePath, event: p.Event}
		offs := make([]uint64, 0, len(p.Counts))
		for off := range p.Counts {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		var total uint64
		for _, off := range offs {
			pt.offsets = append(pt.offsets, off)
			pt.counts = append(pt.counts, p.Counts[off])
			total += p.Counts[off]
		}
		t.profiles = append(t.profiles, pt)
		if p.Event == sim.EvCycles && total > hotSamples && p.ImagePath != "/vmunix" {
			hotSamples = total
			t.hotImage = p.ImagePath
		}
	}
	if len(t.profiles) == 0 {
		return nil, fmt.Errorf("base run of %s produced no profiles", wl)
	}
	return t, nil
}

// jitter returns the deterministic per-(machine, epoch, image, event)
// scale factor in [0.85, 1.15).
func (f *Fleet) jitter(machine string, epoch int, image string, ev sim.Event) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%s|%d", f.opts.Seed, machine, epoch, image, ev)
	return 0.85 + 0.3*float64(h.Sum64()%10000)/10000
}

func scaleCount(n uint64, factor float64) uint64 {
	return uint64(math.Round(float64(n) * factor))
}

// AdvanceEpoch appends one sealed epoch to every machine (see seal). The
// machines seal concurrently, on the caller and whatever the worker budget
// has free, as real ones would: each owns its database and epoch counter,
// the templates they share are read-only, and jitter is a pure hash, so
// every file's bytes are those of a serial pass. The errors are joined in
// machine order.
func (f *Fleet) AdvanceEpoch() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	errs := make([]error, len(f.Machines))
	f.lastWorkers = par.Default().Each(len(f.Machines), func(i int) { errs[i] = f.seal(f.Machines[i]) })
	return errors.Join(errs...)
}

// seal appends one sealed epoch to m: perturbed profiles, then the
// metadata seal, then a fresh (unsealed) epoch for the next round — the
// same write-meta-last protocol dcpid follows.
func (f *Fleet) seal(m *Machine) error {
	m.epoch++
	insts := make(map[string]uint64, len(m.tmpl.insts))
	for _, pt := range m.tmpl.profiles {
		factor := f.jitter(m.Name, m.epoch, pt.image, pt.event)
		if m.anom && pt.image == m.tmpl.hotImage && m.epoch > f.opts.AnomalyAfter {
			factor *= anomalyFactor
		}
		p := profiledb.NewProfile(pt.image, pt.event)
		for i, off := range pt.offsets {
			if c := scaleCount(pt.counts[i], factor); c > 0 {
				p.Add(off, c)
			}
		}
		if p.Total() == 0 {
			continue
		}
		if err := m.db.Update(p); err != nil {
			return fmt.Errorf("fleet: %s epoch %d: %w", m.Name, m.epoch, err)
		}
	}
	for image, n := range m.tmpl.insts {
		// Executed instructions jitter with the cycles profile's factor
		// but are never inflated by the anomaly — that is what makes
		// the anomaly a CPI regression rather than just more work.
		insts[image] = scaleCount(n, f.jitter(m.Name, m.epoch, image, sim.EvCycles))
	}
	if err := m.db.WriteMeta(profiledb.Meta{
		Workload:     m.Workload,
		Mode:         sim.ModeDefault.String(),
		CyclesPeriod: m.tmpl.period,
		WallCycles:   m.tmpl.wall,
		Seed:         f.opts.Seed,
		ImageInsts:   insts,
	}); err != nil {
		return fmt.Errorf("fleet: %s epoch %d meta: %w", m.Name, m.epoch, err)
	}
	return m.db.NewEpoch()
}

// AdvanceEpochs appends n sealed epochs to every machine.
func (f *Fleet) AdvanceEpochs(n int) error {
	for i := 0; i < n; i++ {
		if err := f.AdvanceEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// AnomalyImage returns the image the anomaly targets on the first
// anomalous machine (the demo's query subject); with no anomaly
// configured it falls back to the first machine's hottest image.
func (f *Fleet) AnomalyImage() string {
	for _, m := range f.Machines {
		if m.anom {
			return m.tmpl.hotImage
		}
	}
	return f.Machines[0].tmpl.hotImage
}

// Epoch returns the number of sealed epochs every machine has. (Start
// builds at least one machine.)
func (f *Fleet) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.Machines[0].epoch
}

// Close shuts every endpoint down.
func (f *Fleet) Close() {
	for _, m := range f.Machines {
		if m.srv != nil {
			m.srv.Close()
		}
	}
}
