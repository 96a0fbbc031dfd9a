package sim_test

import (
	"testing"

	"dcpi/internal/loader"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

// compressMachine sets up the compress workload at scale 0.05 on the
// default machine, counting CYCLES and IMISS as a profiled run does, with no
// sink behind the counters.
func compressMachine(b *testing.B) *sim.Machine {
	b.Helper()
	spec, ok := workload.Get("compress")
	if !ok {
		b.Fatal("workload compress is not registered")
	}
	kernel, abi := workload.Kernel()
	l := loader.New(kernel)
	m := sim.NewMachine(sim.Options{NumCPUs: spec.NumCPUs, ABI: abi, Loader: l, Seed: 1,
		Profile: sim.ProfileConfig{Mode: sim.ModeDefault}})
	if err := spec.Setup(&workload.Ctx{Loader: l, Machine: m, Scale: 0.05}); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepWorkload steps a real workload, so it sees what the eval
// sweep's simulations see: a codec loop with table lookups, stores and a
// data-dependent branch over 32 KB of input (four times the D-cache), and
// timer interrupts into the kernel. BenchmarkStepLoop's seven-instruction
// loop hides costs that grow with any of those. One op is one simulated
// instruction; ns/inst is the same quantity counted exactly (the machine
// runs in slices of cycles, so it overshoots b.N a little). A finished run
// is replaced with a fresh one outside the timer, so set-up is never
// measured. It must report 0 allocs/op.
func BenchmarkStepWorkload(b *testing.B) {
	const slice = 20_000 // cycles between looks at the instruction count
	m := compressMachine(b)
	var clock int64
	var done uint64 // instructions of the machines already replaced
	b.ReportAllocs()
	b.ResetTimer()
	for done+m.Stats().Instructions < uint64(b.N) {
		clock += slice
		if m.Run(clock) < clock { // every process has exited
			b.StopTimer()
			done += m.Stats().Instructions
			m, clock = compressMachine(b), 0
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done+m.Stats().Instructions), "ns/inst")
}
