package sim

import (
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/image"
	"dcpi/internal/loader"
)

// benchSumProgram sums a1 quadwords from a0 onwards, mixing each into the
// loop counter.
const benchSumProgram = `
main:
	lda t0, 0(zero)
	bis a0, zero, t3
.loop:
	addq t0, 1, t0
	ldq t1, 0(t3)
	xor t1, t0, t2
	and t2, 0xff, t2
	lda t3, 8(t3)
	cmpult t0, a1, t4
	bne t4, .loop
	halt
`

// benchMachine builds a machine running the sum program for iters
// iterations under the given profiling configuration.
func benchMachine(b testing.TB, prof ProfileConfig, iters int) (*Machine, *loader.Process) {
	b.Helper()
	kernel, abi := testKernel()
	l := loader.New(kernel)
	m := NewMachine(Options{Loader: l, ABI: abi, Seed: 7, Profile: prof})
	exec := image.New("bench", "/bin/bench", image.KindExecutable, alpha.MustAssemble(benchSumProgram))
	p, err := l.NewProcess("bench", exec)
	if err != nil {
		b.Fatal(err)
	}
	p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
	p.Regs.WriteI(alpha.RegA1, uint64(iters))
	m.Spawn(p)
	return m, p
}

// BenchmarkSimulatorThroughput measures raw walker speed (instructions
// simulated per second) without profiling.
func BenchmarkSimulatorThroughput(b *testing.B) {
	m, _ := benchMachine(b, ProfileConfig{Mode: ModeOff}, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(1 << 60)
	b.StopTimer()
	st := m.Stats()
	b.ReportMetric(float64(st.Instructions)/float64(b.N), "insts/op")
	b.ReportMetric(float64(st.Cycles)/float64(st.Instructions), "sim-cpi")
}

// BenchmarkSimulatorWithSampling measures the walker with CYCLES sampling
// enabled (no sink costs), isolating the sampling bookkeeping overhead.
func BenchmarkSimulatorWithSampling(b *testing.B) {
	m, _ := benchMachine(b, ProfileConfig{Mode: ModeCycles}, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(1 << 60)
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().Samples), "samples")
}

// BenchmarkStepLoop is the tightest view of the zero-allocation hot path:
// per-dynamic-instruction cost of step()+tryPair() with profiling off.
// The steady state must report 0 allocs/op — a nonzero value here means a
// heap allocation crept back into the inner loop (interface boxing,
// operand slices, or event buffers) and the bench gate should catch it.
func BenchmarkStepLoop(b *testing.B) {
	m, _ := benchMachine(b, ProfileConfig{Mode: ModeOff}, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(1 << 60)
}

// countingSink is the cheapest possible Sink: it counts deliveries so the
// sample path is exercised end to end (overflow, skew queue, interrupt
// delivery, sink call) without measuring any consumer.
type countingSink struct{ n uint64 }

func (s *countingSink) Sample(Sample) int64   { s.n++; return 0 }
func (s *countingSink) Poll(int, int64) int64 { return 0 }

// BenchmarkSamplePath measures the per-sample delivery cost: CYCLES
// sampling at an unrealistically dense period (so samples, not steps,
// dominate) into a trivial sink. Like BenchmarkStepLoop it must stay at
// 0 allocs/op in steady state — the skewed-event buffer and sample
// structs are reused, never reallocated.
func BenchmarkSamplePath(b *testing.B) {
	sink := &countingSink{}
	m, _ := benchMachine(b, densePeriod(sink), b.N)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(1 << 60)
	b.StopTimer()
	b.ReportMetric(float64(sink.n)/float64(b.N), "samples/op")
}

// densePeriod samples CYCLES every 64-68 cycles into sink.
func densePeriod(sink Sink) ProfileConfig {
	return ProfileConfig{Mode: ModeCycles, Sink: sink, CyclesPeriod: PeriodSpec{Base: 64, Spread: 4}}
}

// TestStepAndSamplePathsDoNotAllocate is the two benchmarks above as a
// tier-1 assertion: in steady state an issue group — stepped, paired, and
// with a sample delivered every few groups — allocates nothing, not even
// once every few thousand groups: each measured stretch is 20 000 groups.
func TestStepAndSamplePathsDoNotAllocate(t *testing.T) {
	sink := &countingSink{}
	for name, prof := range map[string]ProfileConfig{
		"step loop":   {Mode: ModeOff},
		"sample path": densePeriod(sink),
	} {
		m, p := benchMachine(t, prof, 1<<40)
		c := m.CPUs[0]
		groups := func() {
			for i := 0; i < 20000; i++ {
				c.step()
			}
		}
		groups() // first touches: the text window, page-map regions, TLB fills
		if n := testing.AllocsPerRun(5, groups); n != 0 {
			t.Errorf("%s: %v allocations per 20000 issue groups in steady state, want 0", name, n)
		}
		if p.State != loader.ProcRunnable || c.instructions < 100000 {
			t.Errorf("%s: process state %v after %d instructions; the loop was not running", name, p.State, c.instructions)
		}
	}
	if sink.n < 1000 {
		t.Errorf("sample path delivered %d samples; it was not exercised", sink.n)
	}
}
