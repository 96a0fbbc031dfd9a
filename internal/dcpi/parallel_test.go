package dcpi

import (
	"fmt"
	"reflect"
	"testing"

	"dcpi/internal/daemon"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
)

// profileCounts flattens a run's profiles into (image, event, offset) ->
// samples for structural comparison.
func profileCounts(r *Result) map[string]uint64 {
	out := make(map[string]uint64)
	for _, p := range r.Profiles() {
		for off, n := range p.Counts {
			out[fmt.Sprintf("%s|%d|%#x", p.ImagePath, p.Event, off)] = n
		}
	}
	return out
}

// TestParallelMatchesSequential is the differential matrix behind the
// PR's core claim: running the simulated CPUs on goroutines changes
// nothing observable. Each cell runs one workload twice — sequentially
// (SimCPUs=0, the seed behavior) and with the given parallelism — and
// demands identical machine statistics, exact execution counts, driver
// and daemon statistics, per-(image, offset) sample counts, and the raw
// sample trace.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		workload string
		scale    float64
		seeds    []uint64
		simcpus  []int
	}{
		{"altavista", 0.15, []uint64{3, 11}, []int{2, 4}},
		{"dss", 0.1, []uint64{5}, []int{4}},
		{"timeshare", 0.15, []uint64{7}, []int{2}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			base := func(simcpus int) Config {
				return Config{
					Workload:     tc.workload,
					Mode:         sim.ModeDefault,
					Seed:         seed,
					Scale:        tc.scale,
					CyclesPeriod: fastPeriods,
					CollectExact: true,
					TraceSamples: true,
					SimCPUs:      simcpus,
				}
			}
			seq, err := Run(base(0))
			if err != nil {
				t.Fatalf("%s/seed=%d sequential: %v", tc.workload, seed, err)
			}
			for _, n := range tc.simcpus {
				t.Run(fmt.Sprintf("%s/seed=%d/simcpus=%d", tc.workload, seed, n), func(t *testing.T) {
					par, err := Run(base(n))
					if err != nil {
						t.Fatal(err)
					}
					if seq.Wall != par.Wall {
						t.Errorf("wall: sequential %d, parallel %d", seq.Wall, par.Wall)
					}
					if s, p := seq.Machine.Stats(), par.Machine.Stats(); s != p {
						t.Errorf("machine stats:\nsequential %+v\nparallel   %+v", s, p)
					}
					if !reflect.DeepEqual(seq.Exact, par.Exact) {
						t.Error("exact execution counts differ")
					}
					if s, p := seq.Driver.TotalStats(), par.Driver.TotalStats(); s != p {
						t.Errorf("driver stats:\nsequential %+v\nparallel   %+v", s, p)
					}
					for cpu := range seq.Machine.CPUs {
						if s, p := seq.Driver.Stats(cpu), par.Driver.Stats(cpu); s != p {
							t.Errorf("driver cpu %d stats:\nsequential %+v\nparallel   %+v", cpu, s, p)
						}
					}
					if s, p := seq.Daemon.Stats(), par.Daemon.Stats(); s != p {
						t.Errorf("daemon stats:\nsequential %+v\nparallel   %+v", s, p)
					}
					if s, p := seq.Daemon.PeakMemoryBytes(), par.Daemon.PeakMemoryBytes(); s != p {
						t.Errorf("daemon peak memory: sequential %d, parallel %d", s, p)
					}
					if s, p := profileCounts(seq), profileCounts(par); !reflect.DeepEqual(s, p) {
						t.Errorf("profile contents differ: sequential %d keys, parallel %d keys", len(s), len(p))
					}
					if !reflect.DeepEqual(seq.Trace, par.Trace) {
						t.Errorf("sample traces differ: sequential %d samples, parallel %d", len(seq.Trace), len(par.Trace))
					}
				})
			}
		}
	}
}

// TestParallelFaultConservation checks the pipeline's conservation
// invariant — every generated sample is merged, lost, or crash-dropped,
// each loss counted — while the CPUs run on goroutines AND the daemon is
// being stalled and crashed under it. Parallel faulty runs are not
// byte-deterministic (the contract only covers fault-free runs), but the
// accounting identity must survive any interleaving.
func TestParallelFaultConservation(t *testing.T) {
	for _, simcpus := range []int{2, 4} {
		t.Run(fmt.Sprintf("simcpus=%d", simcpus), func(t *testing.T) {
			r, err := Run(Config{
				Workload:       "altavista",
				Mode:           sim.ModeCycles,
				Seed:           9,
				Scale:          0.2,
				CyclesPeriod:   fastPeriods,
				SimCPUs:        simcpus,
				DriverBuckets:  2, // tiny hash table evicts into the overflow buffers,
				DriverOverflow: 8, // and tiny buffers overflow into real loss under the stall
				DrainInterval:  50_000,
				// The long stall guarantees loss on every CPU regardless of
				// interleaving (refusals depend only on each CPU's own
				// clock); the crash lands after it ends.
				Fault: daemon.FaultPlan{
					Stalls:       []daemon.Window{{From: 100_000, To: 1_000_000}},
					CrashAt:      1_200_000,
					RestartDelay: 100_000,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ms := r.Machine.Stats()
			ds := r.Driver.TotalStats()
			dm := r.Daemon.Stats()
			if ms.Samples != ds.Samples {
				t.Errorf("machine generated %d samples, driver recorded %d", ms.Samples, ds.Samples)
			}
			if ds.Lost == 0 {
				t.Errorf("fault plan cost no samples (driver %+v, daemon %+v); the scenario is too gentle to test conservation", ds, dm)
			}
			if dm.Crashes == 0 {
				t.Error("injected crash never fired")
			}
			var merged uint64
			for _, p := range r.Profiles() {
				merged += p.Total()
			}
			if ds.Samples != merged+ds.Lost+dm.CrashDropped {
				t.Errorf("conservation: recorded %d != merged %d + lost %d + crash-dropped %d",
					ds.Samples, merged, ds.Lost, dm.CrashDropped)
			}
		})
	}
}

// TestAutoIsSequentialUnderFaults: SimCPUs -1 is what the runner and dcpid
// always ask for, so the run itself must notice a fault plan — under which
// parallel simulation is safe but not byte-deterministic — and use one
// worker however many budget slots are free. Two such runs are identical.
func TestAutoIsSequentialUnderFaults(t *testing.T) {
	run := func() (*Result, float64) {
		reg := obs.NewRegistry()
		r, err := Run(Config{
			Workload:       "altavista",
			Mode:           sim.ModeCycles,
			Seed:           9,
			Scale:          0.2,
			CyclesPeriod:   fastPeriods,
			SimCPUs:        -1,
			DriverBuckets:  2,
			DriverOverflow: 8,
			DrainInterval:  50_000,
			Fault: daemon.FaultPlan{
				Stalls:       []daemon.Window{{From: 100_000, To: 1_000_000}},
				CrashAt:      1_200_000,
				RestartDelay: 100_000,
			},
			Obs: obs.Hooks{Registry: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, reg.Snapshot().Gauges["sim.workers"]
	}
	a, workers := run()
	if workers != 1 {
		t.Errorf("sim.workers = %g for an auto run with a fault plan, want 1", workers)
	}
	b, _ := run()
	if a.Wall != b.Wall || a.Machine.Stats() != b.Machine.Stats() ||
		a.Driver.TotalStats() != b.Driver.TotalStats() || a.Daemon.Stats() != b.Daemon.Stats() {
		t.Errorf("two auto runs under one fault plan differ:\n%+v %+v\n%+v %+v",
			a.Driver.TotalStats(), a.Daemon.Stats(), b.Driver.TotalStats(), b.Daemon.Stats())
	}
	if !reflect.DeepEqual(profileCounts(a), profileCounts(b)) {
		t.Error("two auto runs under one fault plan merged different profiles")
	}
}
