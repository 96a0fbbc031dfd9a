// Quickstart: assemble a small program, run it on the simulated Alpha-like
// machine under continuous profiling, and analyze where its cycles went.
//
// This example wires the pieces together by hand (loader, machine, driver,
// daemon) to show the library's composition, and because its program is
// assembled here and its pointer ring laid out in memory before it runs;
// the higher-level dcpi.Run does all of this for the built-in workloads.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/driver"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

// A program with two behaviours: a dependent multiply chain (static FU
// stalls) and a pointer-chasing loop (dynamic D-cache stalls).
const program = `
main:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
	bsr  ra, mulchain
	bsr  ra, chase
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	halt

mulchain:
	lda  t0, 30000(zero)
	lda  t1, 3(zero)
.m:
	mulq t1, t1, t2
	mulq t2, t1, t3
	and  t3, 0x7f, t1
	addq t1, 3, t1
	subq t0, 1, t0
	bne  t0, .m
	ret  (ra)

chase:
	bis  a0, zero, t1
	lda  t0, 60000(zero)
.c:
	ldq  t1, 0(t1)
	subq t0, 1, t0
	bne  t0, .c
	ret  (ra)
`

// period is the CYCLES sampling period of the run.
var period = sim.PeriodSpec{Base: 2048, Spread: 512}

func main() {
	// 1. Build the machine: kernel, loader, CPU.
	kernel, abi := workload.Kernel()
	l := loader.New(kernel)

	// 2. The collection stack: device driver + daemon, wired as the
	//    machine's sample sink.
	drv := driver.New(driver.Config{NumCPUs: 1})
	dmn := daemon.New(daemon.Config{}, drv)
	l.Notify = dmn.HandleNotification

	m := sim.NewMachine(sim.Options{
		Loader: l,
		ABI:    abi,
		Seed:   42,
		Profile: sim.ProfileConfig{
			Mode:         sim.ModeCycles,
			Sink:         sink{drv, dmn},
			CyclesPeriod: period,
		},
	})

	// 3. Load the program and give the chase loop a pointer ring.
	asm := alpha.MustAssemble(program)
	exec := image.New("quickstart", "/bin/quickstart", image.KindExecutable, asm)
	p, err := l.NewProcess("quickstart", exec)
	if err != nil {
		log.Fatal(err)
	}
	p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
	// A ring of pointers striding 8KB apart: every load misses.
	const cells = 512
	for i := 0; i < cells; i++ {
		addr := loader.HeapBase + uint64(i)*8192
		next := loader.HeapBase + uint64((i+1)%cells)*8192
		p.Mem.Store(addr, 8, next)
	}
	m.Spawn(p)

	// 4. Run to completion and flush the profiles.
	wall := m.Run(1 << 40)
	if err := dmn.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d cycles, %d samples collected\n\n", wall, m.Stats().Samples)

	// 5. Where did the time go? Per-procedure profile first.
	var samples map[uint64]uint64
	for _, prof := range dmn.Profiles() {
		if prof.ImagePath == "/bin/quickstart" && prof.Event == sim.EvCycles {
			samples = prof.Counts
		}
	}
	perProc, _, _ := exec.SplitCounts(samples)
	for s, sym := range exec.Symbols {
		fmt.Printf("%-10s %6d samples\n", sym.Name, perProc[s])
	}

	// 6. Instruction-level analysis of the chase loop: the analysis should
	//    blame the D-cache (and DTB) for the load's stall.
	code, base, err := exec.ProcCode("chase")
	if err != nil {
		log.Fatal(err)
	}
	pa := analysis.AnalyzeProc("chase", code, base, samples, nil, m.Model, period.Mean())
	fmt.Printf("\nchase: best-case %.2f CPI, actual %.2f CPI\n\n", pa.BestCaseCPI, pa.ActualCPI)
	dcpi.FormatCalc(os.Stdout, pa)
}

// sink adapts driver+daemon to the machine's sample interface.
type sink struct {
	drv *driver.Driver
	dmn *daemon.Daemon
}

func (s sink) Sample(sm sim.Sample) int64 {
	return s.drv.Record(sm.CPU, sm.PID, sm.PC, sm.Event)
}

func (s sink) Poll(cpu int, clock int64) int64 { return s.dmn.Poll(cpu, clock) }
