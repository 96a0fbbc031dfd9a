package runner

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcpi/internal/dcpi"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
)

// stub replaces the simulation with a counting fake.
func stub(r *Runner, calls *atomic.Int64, delay time.Duration) {
	r.runFn = func(cfg dcpi.Config) (*dcpi.Result, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return &dcpi.Result{Config: cfg, Wall: int64(cfg.Seed)}, nil
	}
}

func TestDuplicateConfigsSimulateOnce(t *testing.T) {
	r := New(4)
	var calls atomic.Int64
	stub(r, &calls, 10*time.Millisecond)

	cfg := dcpi.Config{Workload: "compress", Scale: 0.1, Mode: sim.ModeCycles, Seed: 7}
	const requests = 16
	results := make([]*dcpi.Result, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(cfg)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("duplicate config simulated %d times, want exactly 1", got)
	}
	for i, res := range results {
		if res != results[0] {
			t.Errorf("request %d got a different *Result than request 0", i)
		}
	}
	st := r.Stats()
	sims, deduped := st.Simulated, st.MemHits
	if sims != 1 || deduped != requests-1 {
		t.Errorf("Stats() = %d simulated, %d deduped; want 1, %d", sims, deduped, requests-1)
	}

	// A later duplicate is served from the completed cache entry.
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != results[0] || calls.Load() != 1 {
		t.Error("completed run not served from cache")
	}
}

func TestDistinctConfigsAllSimulate(t *testing.T) {
	r := New(4)
	var calls atomic.Int64
	stub(r, &calls, 0)

	base := dcpi.Config{Workload: "compress", Scale: 0.1, Mode: sim.ModeCycles}
	variants := []dcpi.Config{base}
	v := base
	v.Seed = 1
	variants = append(variants, v)
	v = base
	v.Mode = sim.ModeDefault
	variants = append(variants, v)
	v = base
	v.CyclesPeriod = sim.PeriodSpec{Base: 512, Spread: 64}
	variants = append(variants, v)
	v = base
	v.ZeroCostCollection = true
	variants = append(variants, v)
	v = base
	v.CollectExact = true
	variants = append(variants, v)

	seen := map[string]bool{}
	for _, cfg := range variants {
		if seen[Key(cfg)] {
			t.Fatalf("config variants collide on key %q", Key(cfg))
		}
		seen[Key(cfg)] = true
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != int64(len(variants)) {
		t.Errorf("%d distinct configs simulated %d times", len(variants), got)
	}
}

// A run that writes a profile database is its caller's: Submit refuses it,
// naming dcpi.Run, and simulates nothing.
func TestSubmitRefusesDBDir(t *testing.T) {
	r := New(2)
	var calls atomic.Int64
	stub(r, &calls, 0)

	cfg := dcpi.Config{Workload: "compress", Scale: 0.1, Mode: sim.ModeCycles, DBDir: "/tmp/dcpi-db"}
	if res, err := r.Run(cfg); err == nil || !strings.Contains(err.Error(), "dcpi.Run") || res != nil {
		t.Errorf("Run with DBDir = %v, %v; want an error naming dcpi.Run", res, err)
	}
	if got, st := calls.Load(), r.Stats(); got != 0 || st.Simulated != 0 || st.Requests() != 0 {
		t.Errorf("refused run simulated %d times, stats %+v", got, st)
	}
}

func TestWorkerPoolBound(t *testing.T) {
	const workers = 2
	r := New(workers)
	var inFlight, peak atomic.Int64
	r.runFn = func(cfg dcpi.Config) (*dcpi.Result, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		return &dcpi.Result{Config: cfg}, nil
	}

	var pending []*Pending
	for i := 0; i < 10; i++ {
		pending = append(pending, r.Submit(dcpi.Config{Workload: "compress", Seed: uint64(i + 1)}))
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds pool bound %d", got, workers)
	}
}

// TestRunTimingWithMetricsOnly: with a registry but no tracer (dcpieval
// -metrics-out without -trace-out) the runner still needs a clock. Both
// histograms used to be fed from the nil tracer's Now and held only zeros.
func TestRunTimingWithMetricsOnly(t *testing.T) {
	const runs, delay = 4, 5 * time.Millisecond
	r := New(1)
	r.Obs = obs.Hooks{Registry: obs.NewRegistry()}
	var calls atomic.Int64
	stub(r, &calls, delay)
	var pending []*Pending
	for i := 0; i < runs; i++ {
		pending = append(pending, r.Submit(dcpi.Config{Workload: "compress", Seed: uint64(i + 1)}))
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	wall := r.Obs.Registry.Histogram("runner.run_wall_us", runWallBuckets())
	if wall.Count() != runs || wall.Min() < float64(delay.Microseconds()) {
		t.Errorf("run_wall_us: %d observations, min %v us; want %d of at least %d us",
			wall.Count(), wall.Min(), runs, delay.Microseconds())
	}
	// One worker: every run but the first waits for those ahead of it.
	wait := r.Obs.Registry.Histogram("runner.queue_wait_us", queueWaitBuckets())
	if wait.Count() != runs || wait.Max() < float64(delay.Microseconds()) {
		t.Errorf("queue_wait_us: %d observations, max %v us; want %d with one of at least %d us",
			wait.Count(), wait.Max(), runs, delay.Microseconds())
	}
}

// TestRealSimulation exercises the runner against the actual simulator:
// the deduplicated result must be byte-for-byte the run a fresh simulation
// produces.
func TestRealSimulation(t *testing.T) {
	r := New(2)
	cfg := dcpi.Config{Workload: "compress", Scale: 0.05, Mode: sim.ModeCycles, Seed: 42}

	a := r.Submit(cfg)
	b := r.Submit(cfg)
	ra, err := a.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("duplicate submissions returned different results")
	}
	if ra.Wall <= 0 || ra.TotalSamples(sim.EvCycles) == 0 {
		t.Errorf("implausible run: wall=%d samples=%d", ra.Wall, ra.TotalSamples(sim.EvCycles))
	}

	fresh, err := dcpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Wall != ra.Wall {
		t.Errorf("cached wall %d != fresh wall %d (simulation not deterministic?)", ra.Wall, fresh.Wall)
	}
	st := r.Stats()
	sims, deduped := st.Simulated, st.MemHits
	if sims != 1 || deduped != 1 {
		t.Errorf("Stats() = %d, %d; want 1, 1", sims, deduped)
	}
}
