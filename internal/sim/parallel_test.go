package sim

import (
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/image"
	"dcpi/internal/loader"
)

// spawnEight builds a 4-CPU machine with eight sum processes (the
// TestMultiCPU workload) under the given extra options.
func spawnEight(t *testing.T, opts Options) (*Machine, []*loader.Process) {
	t.Helper()
	kernel, abi := testKernel()
	l := loader.New(kernel)
	opts.Loader = l
	opts.ABI = abi
	if opts.NumCPUs == 0 {
		opts.NumCPUs = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 9
	}
	m := NewMachine(opts)
	var procs []*loader.Process
	for i := 0; i < 8; i++ {
		exec := image.New("p", "/bin/p", image.KindExecutable, alpha.MustAssemble(sumProgram))
		p, err := l.NewProcess("p", exec)
		if err != nil {
			t.Fatal(err)
		}
		m.Spawn(p)
		procs = append(procs, p)
	}
	return m, procs
}

// TestParallelRunMatchesSequential is the machine-level determinism check:
// fanning the CPUs out over goroutines must leave the aggregate statistics
// and exact execution counts identical to a sequential run.
func TestParallelRunMatchesSequential(t *testing.T) {
	run := func(workers int) (Stats, *Counts, int64) {
		m, procs := spawnEight(t, Options{CollectExact: true, SimWorkers: workers})
		wall := m.Run(1 << 30)
		for i, p := range procs {
			if p.State != loader.ProcExited {
				t.Fatalf("workers=%d: proc %d state = %v", workers, i, p.State)
			}
		}
		return m.Stats(), m.Exact, wall
	}
	seqStats, seqExact, seqWall := run(0)
	for _, workers := range []int{2, 4, -1} {
		parStats, parExact, parWall := run(workers)
		if parStats != seqStats {
			t.Errorf("workers=%d stats:\nsequential %+v\nparallel   %+v", workers, seqStats, parStats)
		}
		if parWall != seqWall {
			t.Errorf("workers=%d wall = %d, sequential %d", workers, parWall, seqWall)
		}
		for img, seq := range seqExact.Exec {
			par := parExact.Exec[img]
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("workers=%d image %d inst %d: exec %d != %d", workers, img, i, par[i], seq[i])
				}
			}
		}
		for img, seq := range seqExact.Taken {
			par := parExact.Taken[img]
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("workers=%d image %d inst %d: taken %d != %d", workers, img, i, par[i], seq[i])
				}
			}
		}
	}
}

// duringRunSink calls do from inside the run, once; the machine must
// refuse (panic) rather than touch state its CPU goroutines own.
type duringRunSink struct {
	t    *testing.T
	what string
	do   func()

	fired bool
}

func (s *duringRunSink) Sample(Sample) int64 {
	if !s.fired {
		s.fired = true
		defer func() {
			if recover() == nil {
				s.t.Errorf("%s during Run did not panic", s.what)
			}
		}()
		s.do()
	}
	return 0
}

func (s *duringRunSink) Poll(int, int64) int64 { return 0 }

// sampledMachine builds a one-CPU machine sampling into sink, with one
// sum process spawned.
func sampledMachine(t *testing.T, sink Sink) (*Machine, *loader.Loader) {
	t.Helper()
	kernel, abi := testKernel()
	l := loader.New(kernel)
	m := NewMachine(Options{Loader: l, ABI: abi, Seed: 3, Profile: ProfileConfig{
		Mode:         ModeCycles,
		Sink:         sink,
		CyclesPeriod: PeriodSpec{Base: 500, Spread: 64},
	}})
	exec := image.New("p", "/bin/p", image.KindExecutable, alpha.MustAssemble(sumProgram))
	p, err := l.NewProcess("p", exec)
	if err != nil {
		t.Fatal(err)
	}
	m.Spawn(p)
	return m, l
}

func TestSpawnWhileRunningPanics(t *testing.T) {
	sink := &duringRunSink{t: t, what: "Spawn"}
	m, l := sampledMachine(t, sink)
	late, err := l.NewProcess("late", image.New("late", "/bin/late", image.KindExecutable, alpha.MustAssemble(sumProgram)))
	if err != nil {
		t.Fatal(err)
	}
	sink.do = func() { m.Spawn(late) }
	m.Run(1 << 30)
	if !sink.fired {
		t.Fatal("sink never sampled; the guard was not exercised")
	}
}

// The CPUs' counters belong to their goroutines while Run executes, so a
// mid-run Stats panics; after Run it sums them exactly
// (TestParallelRunMatchesSequential).
func TestStatsWhileRunningPanics(t *testing.T) {
	sink := &duringRunSink{t: t, what: "Stats"}
	m, _ := sampledMachine(t, sink)
	sink.do = func() { m.Stats() }
	m.Run(1 << 30)
	if !sink.fired {
		t.Fatal("sink never sampled; the guard was not exercised")
	}
}

// sim.merge_wait_us reads 0 when one worker runs every CPU, even after a
// parallel Run, and a forced 4-worker Run cannot wait longer than it ran.
func TestMergeWait(t *testing.T) {
	m, _ := spawnEight(t, Options{})
	m.mergeWaitNano = 1 // what an earlier parallel Run could have left
	m.Run(1 << 30)
	if m.lastWorkers != 1 || m.mergeWaitNano != 0 {
		t.Errorf("sequential Run: %d workers, merge wait %d ns; want 1 and 0", m.lastWorkers, m.mergeWaitNano)
	}
	m, _ = spawnEight(t, Options{SimWorkers: 4})
	m.Run(1 << 30)
	if m.lastWorkers != 4 || m.mergeWaitNano < 0 || m.mergeWaitNano > m.HostRunNanos() {
		t.Errorf("4-worker Run: %d workers, merge wait %d ns of %d ns in Run", m.lastWorkers, m.mergeWaitNano, m.HostRunNanos())
	}
}

// TestSimWorkersClamped: asking for more goroutines than simulated CPUs
// must clamp rather than spin up idle workers.
func TestSimWorkersClamped(t *testing.T) {
	m, _ := spawnEight(t, Options{NumCPUs: 2, SimWorkers: 16})
	m.Run(1 << 30)
	if m.lastWorkers != 2 {
		t.Errorf("lastWorkers = %d, want clamp to 2 CPUs", m.lastWorkers)
	}
}
