// Sqlquery recreates the paper's motivating anecdote: "our tools pinpointed
// a performance problem in a commercial database system; fixing the problem
// reduced the response time of an SQL query from 180 to 14 hours."
//
// A query joins two tables. The slow plan is an index-nested-loop join that
// chases pointers through an unclustered index — every probe a D-cache and
// board-cache miss. Continuous profiling pinpoints the probe loop and the
// analysis blames the D-cache; the fixed plan (a hash join with sequential
// scans) removes the pointer chase. The example profiles both and compares.
//
//	go run ./examples/sqlquery
package main

import (
	"fmt"
	"log"
	"os"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/daemon"
	"dcpi/internal/driver"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

// The slow plan: for each outer row, walk the index chain to find the match
// (pointer chasing, cache-hostile), then accumulate.
const slowPlan = `
sql_exec:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
	bsr  ra, nested_loop_join
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	halt

nested_loop_join:
	; a0 = outer table, a1 = index chain heads, a2 = rows
	bis  a0, zero, t1
	bis  a2, zero, t0
	lda  t5, 0(zero)
.outer:
	ldq  t2, 0(t1)          ; outer key
	and  t2, 0x7f, t3
	s8addq t3, a1, t4
	ldq  t4, 0(t4)          ; index chain head
	lda  t6, 12(zero)       ; chain length
.probe:
	ldq  t7, 0(t4)          ; chase the chain (misses)
	ldq  t4, 8(t4)
	subq t6, 1, t6
	bne  t6, .probe
	addq t5, t7, t5
	lda  t1, 32(t1)
	subq t0, 1, t0
	bne  t0, .outer
	ret  (ra)
`

// The fixed plan: build a hash table over the inner table, then stream the
// outer table sequentially.
const fastPlan = `
sql_exec:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
	bsr  ra, hash_build
	bsr  ra, hash_probe
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	halt

hash_build:
	; a3 = inner table, a4 = hash area, a2 = rows
	bis  a3, zero, t1
	bis  a2, zero, t0
.build:
	ldq  t2, 0(t1)
	and  t2, 0x7f, t3
	s8addq t3, a4, t4
	stq  t2, 0(t4)
	lda  t1, 32(t1)
	subq t0, 1, t0
	bne  t0, .build
	ret  (ra)

hash_probe:
	; a0 = outer table (sequential scan), a4 = hash area
	bis  a0, zero, t1
	bis  a2, zero, t0
	lda  t5, 0(zero)
.scan:
	ldq  t2, 0(t1)
	and  t2, 0x7f, t3
	s8addq t3, a4, t4
	ldq  t6, 0(t4)
	addq t5, t6, t5
	lda  t1, 32(t1)
	subq t0, 1, t0
	bne  t0, .scan
	ret  (ra)
`

const rows = 20000

// period is the CYCLES sampling period of both plans' runs.
var period = sim.PeriodSpec{Base: 2048, Spread: 512}

// runPlan profiles one plan on a machine wired by hand, as in
// examples/quickstart: dcpi.Run runs registered workloads, and each plan
// here is a program assembled from its source with its tables laid out in
// memory before it starts.
func runPlan(name, src string) (int64, *planResult) {
	kernel, abi := workload.Kernel()
	l := loader.New(kernel)
	drv := driver.New(driver.Config{NumCPUs: 1})
	dmn := daemon.New(daemon.Config{}, drv)
	l.Notify = dmn.HandleNotification
	m := sim.NewMachine(sim.Options{
		Loader: l, ABI: abi, Seed: 9,
		Profile: sim.ProfileConfig{
			Mode:         sim.ModeCycles,
			Sink:         planSink{drv, dmn},
			CyclesPeriod: period,
		},
	})
	exec := image.New(name, "/usr/sbin/"+name, image.KindExecutable, alpha.MustAssemble(src))
	p, err := l.NewProcess(name, exec)
	if err != nil {
		log.Fatal(err)
	}
	const (
		outerBase = loader.HeapBase
		innerBase = loader.HeapBase + 16<<20
		indexBase = loader.HeapBase + 32<<20
		chainBase = loader.HeapBase + 48<<20
		hashBase  = loader.HeapBase + 96<<20
	)
	p.Regs.WriteI(alpha.RegA0, outerBase)
	p.Regs.WriteI(alpha.RegA1, indexBase)
	p.Regs.WriteI(alpha.RegA2, rows)
	p.Regs.WriteI(alpha.RegA3, innerBase)
	p.Regs.WriteI(alpha.RegA4, hashBase)
	// Tables: 32-byte rows with pseudo-random keys.
	x := uint64(77)
	for i := 0; i < rows; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.Mem.Store(outerBase+uint64(i)*32, 8, x)
		p.Mem.Store(innerBase+uint64(i)*32, 8, x)
	}
	// The unclustered index: 128 chains of cells scattered across 64MB so
	// every hop misses the board cache.
	for c := uint64(0); c < 128; c++ {
		head := chainBase + c*379*8192
		p.Mem.Store(indexBase+c*8, 8, head)
		cell := head
		for hop := uint64(0); hop < 12; hop++ {
			next := chainBase + ((c*977+hop*131)%6000)*8192
			p.Mem.Store(cell, 8, c+hop) // payload
			p.Mem.Store(cell+8, 8, next)
			cell = next
		}
	}
	m.Spawn(p)
	wall := m.Run(1 << 42)
	if err := dmn.Flush(); err != nil {
		log.Fatal(err)
	}
	return wall, &planResult{daemon: dmn, image: exec, machine: m}
}

// planResult bundles what the analysis step needs from a run.
type planResult struct {
	daemon  *daemon.Daemon
	image   *image.Image
	machine *sim.Machine
}

// cyclesSamples extracts the image's CYCLES profile.
func (r *planResult) cyclesSamples() map[uint64]uint64 {
	for _, p := range r.daemon.Profiles() {
		if p.ImagePath == r.image.Path && p.Event == sim.EvCycles {
			return p.Counts
		}
	}
	return map[uint64]uint64{}
}

type planSink struct {
	drv *driver.Driver
	dmn *daemon.Daemon
}

func (s planSink) Sample(sm sim.Sample) int64 {
	return s.drv.Record(sm.CPU, sm.PID, sm.PC, sm.Event)
}
func (s planSink) Poll(cpu int, clock int64) int64 { return s.dmn.Poll(cpu, clock) }

func main() {
	fmt.Println("Profiling the slow query plan (index nested-loop join)...")
	slowWall, slow := runPlan("sqlslow", slowPlan)
	fmt.Printf("  response time: %d cycles\n\n", slowWall)

	// Where do the cycles go?
	samples := slow.cyclesSamples()
	code, base, err := slow.image.ProcCode("nested_loop_join")
	if err != nil {
		log.Fatal(err)
	}
	pa := analysis.AnalyzeProc("nested_loop_join", code, base, samples, nil,
		slow.machine.Model, period.Mean())
	fmt.Printf("nested_loop_join: best-case %.2f CPI, actual %.2f CPI\n",
		pa.BestCaseCPI, pa.ActualCPI)
	fmt.Printf("dcpicalc blames (Figure 4 view):\n")
	fmt.Printf("  D-cache miss:  %4.1f%% to %4.1f%% of cycles\n",
		100*pa.Summary.DynMin[analysis.CauseDCache], 100*pa.Summary.DynMax[analysis.CauseDCache])
	fmt.Printf("  DTB miss:      %4.1f%% to %4.1f%%\n",
		100*pa.Summary.DynMin[analysis.CauseDTB], 100*pa.Summary.DynMax[analysis.CauseDTB])
	fmt.Printf("  execution:     %4.1f%%\n\n", 100*pa.Summary.Execution)

	// The hottest instruction is the pointer chase.
	var hot *analysis.InstAnalysis
	for i := range pa.Insts {
		if hot == nil || pa.Insts[i].Samples > hot.Samples {
			hot = &pa.Insts[i]
		}
	}
	fmt.Printf("hottest instruction: %06x  %-22s %.1f cycles/execution\n",
		hot.Offset, hot.Inst.DisasmAt(hot.Offset), hot.CPI)
	fmt.Println("→ the index chain walk is memory-bound; replace the unclustered")
	fmt.Println("  index probe with a hash join.")

	fmt.Println("\nProfiling the fixed plan (hash join)...")
	fastWall, _ := runPlan("sqlfast", fastPlan)
	fmt.Printf("  response time: %d cycles\n\n", fastWall)
	fmt.Printf("speedup: %.1fx (the paper's anecdote: 180 hours -> 14 hours, 12.9x)\n",
		float64(slowWall)/float64(fastWall))
	if fastWall >= slowWall {
		fmt.Fprintln(os.Stderr, "unexpected: fixed plan not faster")
		os.Exit(1)
	}
}
