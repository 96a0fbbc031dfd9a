package workload

import (
	"fmt"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/hw"
	"dcpi/internal/loader"
	"dcpi/internal/pipeline"
	"dcpi/internal/sim"
)

// runSpec sets up and runs a workload at small scale, returning the machine.
func runSpec(t *testing.T, name string, scale float64, maxCycles int64) (*sim.Machine, *loader.Loader) {
	t.Helper()
	spec, ok := Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	kernel, abi := Kernel()
	l := loader.New(kernel)
	m := sim.NewMachine(sim.Options{
		NumCPUs: spec.NumCPUs,
		ABI:     abi,
		Loader:  l,
		Seed:    42,
	})
	if err := spec.Setup(&Ctx{Loader: l, Machine: m, Scale: scale}); err != nil {
		t.Fatal(err)
	}
	m.Run(maxCycles)
	return m, l
}

func TestKernelAssembles(t *testing.T) {
	im, abi := Kernel()
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	if abi.SyscallEntry == abi.TimerEntry || abi.TimerEntry == abi.IdleEntry {
		t.Error("kernel entry points collide")
	}
	for _, name := range []string{"syscall_dispatch", "in_checksum", "kbcopy", "hardclock", "idle_thread"} {
		if _, ok := im.Symbol(name); !ok {
			t.Errorf("kernel missing %s", name)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"altavista", "classify", "compress", "dss", "gcc", "go", "li",
		"mccalpin-assign", "mccalpin-saxpy", "mccalpin-scale", "mccalpin-sum",
		"mgrid", "swim", "timeshare", "vortex", "wave5", "x11perf",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range Names() {
		if s, _ := Get(name); s.Description == "" || s.Setup == nil || s.NumCPUs < 1 {
			t.Errorf("spec %q incomplete", s.Name)
		}
	}
}

// TestAllWorkloadsRunToCompletion runs every workload at tiny scale and
// checks that every process exits without faults.
func TestAllWorkloadsRunToCompletion(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		t.Run(spec.Name, func(t *testing.T) {
			m, l := runSpec(t, spec.Name, 0.05, 1<<31)
			st := m.Stats()
			if st.Faults != 0 {
				t.Fatalf("faults: %v", st)
			}
			if st.Instructions == 0 {
				t.Fatal("no instructions executed")
			}
			for _, p := range l.Processes() {
				if p.State != loader.ProcExited {
					t.Errorf("process %s did not exit (state %v, pc %#x)", p.Name, p.State, p.PC)
				}
			}
			t.Logf("%-16s cycles=%-12d insts=%-12d cpi=%.2f", spec.Name, st.Cycles, st.Instructions,
				float64(st.Cycles)/float64(st.Instructions))
		})
	}
}

func TestWave5VarianceAcrossSeeds(t *testing.T) {
	// Different page placements must change wave5's run time (the §3.3
	// effect dcpistats isolates).
	spec, _ := Get("wave5")
	walls := map[int64]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		kernel, abi := Kernel()
		l := loader.New(kernel)
		m := sim.NewMachine(sim.Options{ABI: abi, Loader: l, Seed: seed})
		if err := spec.Setup(&Ctx{Loader: l, Machine: m, Scale: 0.2}); err != nil {
			t.Fatal(err)
		}
		walls[m.Run(1<<31)] = true
	}
	if len(walls) < 2 {
		t.Errorf("wave5 run time identical across seeds: %v", walls)
	}
}

func TestX11UsesSharedLibrariesAndKernel(t *testing.T) {
	m, l := runSpec(t, "x11perf", 0.05, 1<<31)
	_ = m
	paths := map[string]bool{}
	for _, im := range l.Images() {
		paths[im.Path] = true
	}
	for _, want := range []string{
		"/usr/shlib/X11/libdix.so", "/usr/shlib/X11/libos.so",
		"/usr/shlib/X11/libmi.so", "/usr/shlib/X11/lib_dec_ffb_ev5.so",
		"/vmunix", "/usr/bin/X11/x11perf",
	} {
		if !paths[want] {
			t.Errorf("image %s not registered", want)
		}
	}
}

func TestGCCManyPIDs(t *testing.T) {
	_, l := runSpec(t, "gcc", 0.02, 1<<31)
	pids := map[uint32]bool{}
	for _, p := range l.Processes() {
		pids[p.PID] = true
	}
	if len(pids) < 10 {
		t.Errorf("gcc spawned %d PIDs, want many", len(pids))
	}
}

func TestTimeshareSleepsAndWakes(t *testing.T) {
	m, l := runSpec(t, "timeshare", 0.1, 1<<31)
	var switches uint64
	for _, c := range m.CPUs {
		switches += c.ContextSwitches
	}
	if switches < uint64(len(l.Processes())) {
		t.Errorf("context switches = %d", switches)
	}
}

// A Ctx without a machine builds a shell: set-up must produce the same
// processes, registers and mappings as for a run, and write no memory.
func TestSetupWithoutMachineWritesNoMemory(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		t.Run(spec.Name, func(t *testing.T) {
			kernel, abi := Kernel()
			live := loader.New(kernel)
			m := sim.NewMachine(sim.Options{NumCPUs: spec.NumCPUs, ABI: abi, Loader: live})
			if err := spec.Setup(&Ctx{Loader: live, Machine: m, Scale: 0.05}); err != nil {
				t.Fatal(err)
			}
			kernel, _ = Kernel()
			shell := loader.New(kernel)
			if err := spec.Setup(&Ctx{Loader: shell, Scale: 0.05}); err != nil {
				t.Fatal(err)
			}

			lp, sp := live.Processes(), shell.Processes()
			if len(lp) != len(sp) {
				t.Fatalf("shell has %d processes, run %d", len(sp), len(lp))
			}
			written := 0
			for i, want := range lp {
				got := sp[i]
				if got.PID != want.PID || got.Name != want.Name || got.PC != want.PC || got.Regs != want.Regs {
					t.Errorf("process %d (%s): identity or registers differ from the run's", i, want.Name)
				}
				if len(got.Mappings()) != len(want.Mappings()) {
					t.Errorf("%s: %d mappings, run has %d", want.Name, len(got.Mappings()), len(want.Mappings()))
				}
				if n := got.Mem.Pages(); n != 0 {
					t.Errorf("%s: shell holds %d pages", got.Name, n)
				}
				written += want.Mem.Pages()
			}
			if written == 0 {
				t.Error("the run's set-up wrote no memory either; the shell check shows nothing")
			}
		})
	}
}

// The simulator's step path reads pipeline.Decode's records in place of the
// operand decoder, the model's tables and the slotting rule; over every image
// of every workload, and the kernel, each record must be those, field for
// field. Latencies vary with the machine model, so the records are built for
// the default machine, the memlat2x what-if point (its spec) and a machine
// whose every result latency and unit occupancy differs from the default.
func TestStaticInstIsTheRule(t *testing.T) {
	models := map[string]string{"default": "", "memlat2x": "memlat=160",
		"latencies": "intlat=2,cmovlat=3,loadlat=3,mullat=12,fplat=6,divlat=20,mulbusy=6,divbusy=18"}
	def := pipeline.NewTables(hw.Default().Model)
	pairs, pairable, moved := 0, 0, 0
	for name, spec := range models {
		cfg, err := hw.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		tab := pipeline.NewTables(cfg.Resolved().Model)
		for _, wl := range Names() {
			ws, _ := Get(wl)
			kernel, _ := Kernel()
			l := loader.New(kernel)
			if err := ws.Setup(&Ctx{Loader: l, Scale: 0.05}); err != nil {
				t.Fatal(err)
			}
			for _, im := range l.Images() { // the kernel is registered like any image
				code := im.Code
				recs := pipeline.Decode(code, im.MetaTable(), tab)
				if len(recs) != len(code) {
					t.Fatalf("%s %s %s: %d records for %d instructions", name, ws.Name, im.Path, len(recs), len(code))
				}
				for i := range code {
					if err := checkStaticInst(&recs[i], code, i, tab); err != "" {
						t.Errorf("%s %s %s: instruction %d (%v): %s", name, ws.Name, im.Path, i, code[i].Op, err)
					}
					if recs[i].Lat != int32(def.Lat[code[i].Op]) || recs[i].Busy != int32(def.FUBusy[code[i].Op]) {
						moved++
					}
					if i+1 < len(code) {
						pairs++
						if recs[i].PairNext {
							pairable++
						}
					}
				}
			}
		}
	}
	if pairable == 0 || pairable == pairs {
		t.Errorf("%d of %d pairs may pair; the comparison shows nothing", pairable, pairs)
	}
	if moved == 0 {
		t.Error("no record's latency or occupancy differs from the default machine's; the models show nothing")
	}
}

// checkStaticInst compares the record of code[i] with alpha.Inst.Meta, the
// model's tables and pipeline.CanPairMeta, and describes the first field that
// differs ("" when none does).
func checkStaticInst(r *pipeline.StaticInst, code []alpha.Inst, i int, tab *pipeline.Tables) string {
	in := code[i]
	m := in.Meta()
	reg := func(o alpha.Operand) uint8 {
		if o.FP {
			return 32 + o.Reg
		}
		return o.Reg
	}
	if r.Inst != in {
		return fmt.Sprintf("Inst %+v, want %+v", r.Inst, in)
	}
	if r.NSrc != m.NSrc {
		return fmt.Sprintf("NSrc %d, want %d", r.NSrc, m.NSrc)
	}
	for j, o := range m.Sources() {
		if r.Src[j] != reg(o) {
			return fmt.Sprintf("Src[%d] %d, want %d", j, r.Src[j], reg(o))
		}
	}
	wantDst := uint8(pipeline.NoReg)
	if m.HasDst {
		wantDst = reg(m.Dst)
	}
	if r.Dst != wantDst {
		return fmt.Sprintf("Dst %d, want %d", r.Dst, wantDst)
	}
	if r.Load != m.Load || r.Store != m.Store || r.CondBranch != m.CondBranch {
		return fmt.Sprintf("flags load/store/cond %t/%t/%t, want %t/%t/%t",
			r.Load, r.Store, r.CondBranch, m.Load, m.Store, m.CondBranch)
	}
	if r.Lat != int32(tab.Lat[in.Op]) || r.FU != tab.FU[in.Op] || r.Busy != int32(tab.FUBusy[in.Op]) {
		return fmt.Sprintf("lat/fu/busy %d/%v/%d, want %d/%v/%d",
			r.Lat, r.FU, r.Busy, tab.Lat[in.Op], tab.FU[in.Op], tab.FUBusy[in.Op])
	}
	wantPair := false
	if i+1 < len(code) {
		next := code[i+1].Meta()
		wantPair = pipeline.CanPairMeta(in, code[i+1], &m, &next)
	}
	if r.PairNext != wantPair {
		return fmt.Sprintf("PairNext %t, want %t (CanPairMeta with the successor; false for the last)", r.PairNext, wantPair)
	}
	return ""
}
