package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// This file wires Go's own profiler into the tools, closing the loop the
// paper opens: the profiling system is itself profiled. The CLIs expose
// these as -cpuprofile/-memprofile flags; docs/PERFORMANCE.md shows how to
// read the results.

// StartCPUProfile begins a runtime/pprof CPU profile writing to path and
// returns a stop function. The stop function is safe to call more than
// once; callers should invoke it on every exit path (including error
// exits) so the profile is flushed.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes a heap profile to path after forcing a GC, so
// the profile reflects live objects rather than garbage awaiting
// collection. Call it once, at process exit.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// PublishRuntimeMemStats exports the Go runtime's allocation counters into
// reg, giving the metrics artifact a steady-state allocation view of the
// tool run itself (the denominator callers divide by simulated
// instructions to get allocs per simulated op). It collects first, so that
// runtime.heap_alloc_bytes is what the process still holds on to rather
// than that plus however much garbage the last cycle happened to leave.
func PublishRuntimeMemStats(reg *Registry) {
	if reg == nil {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("runtime.mallocs").Set(float64(ms.Mallocs))
	reg.Gauge("runtime.total_alloc_bytes").Set(float64(ms.TotalAlloc))
	reg.Gauge("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	reg.Gauge("runtime.gc_cycles").Set(float64(ms.NumGC))
}
