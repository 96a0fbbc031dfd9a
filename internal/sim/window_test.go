package sim

import (
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/image"
	"dcpi/internal/loader"
)

// Edge cases of the per-CPU text window: every way the PC can leave the
// mapping the window describes, or the window can come to describe the wrong
// mapping.

// execTotal sums a machine's exact counts: every retired instruction is
// counted against the image the window said it came from, exactly once.
func execTotal(m *Machine) (n uint64) {
	for _, exec := range m.Exact.Exec {
		for _, c := range exec {
			n += c
		}
	}
	return n
}

// Two processes on one CPU map different images at the same address. A
// context switch must not go on serving the previous process's image.
func TestWindowDoesNotSurviveContextSwitch(t *testing.T) {
	kernel, abi := testKernel()
	l := loader.New(kernel)
	m := NewMachine(Options{Loader: l, ABI: abi, Seed: 3, Quantum: 700, CollectExact: true})

	// Same shape, same addresses, different step: a process that ran the
	// other's loop body would store the other's result.
	mkProc := func(name string, step int) *loader.Process {
		src := `
main:
	lda t0, 0(zero)
	lda t4, 0(zero)
	lda t2, 3000(zero)
.loop:
	addq t4, ` + itoa(step) + `, t4
	addq t0, 1, t0
	cmplt t0, t2, t1
	bne t1, .loop
	ldah t3, 1(zero)
	stq t4, 0(t3)
	halt
`
		exec := image.New(name, "/bin/"+name, image.KindExecutable, alpha.MustAssemble(src))
		p, err := l.NewProcess(name, exec)
		if err != nil {
			t.Fatal(err)
		}
		m.SpawnOn(0, p)
		return p
	}
	procs := []*loader.Process{mkProc("by3", 3), mkProc("by7", 7)}
	m.Run(1 << 30)

	if cs := m.CPUs[0].ContextSwitches; cs < 10 {
		t.Fatalf("only %d context switches; the processes did not interleave", cs)
	}
	for i, want := range []uint64{3 * 3000, 7 * 3000} {
		p := procs[i]
		if p.State != loader.ProcExited {
			t.Errorf("%s did not exit", p.Name)
		}
		if got := p.Mem.Load(0x10000, 8); got != want {
			t.Errorf("%s stored %d, want %d: it ran another process's text", p.Name, got, want)
		}
		im, _, _ := p.Lookup(loader.UserTextBase)
		if n := m.Exact.Exec[im.ID][3]; n != 3000 {
			t.Errorf("%s: loop head counted %d times against its image, want 3000", p.Name, n)
		}
	}
	if st := m.Stats(); st.Faults != 0 || execTotal(m) != st.Instructions {
		t.Errorf("faults=%d, exact counts sum to %d of %d instructions", st.Faults, execTotal(m), st.Instructions)
	}
}

// The PC leaves the window with no taken branch in the group: CALL_PAL into
// the kernel and back, and the timer interrupt spliced in between groups.
func TestWindowFollowsPALAndTimerTransitions(t *testing.T) {
	const calls = 200
	src := `
main:
	lda t5, 0(zero)
	lda t6, ` + itoa(calls) + `(zero)
.loop:
	lda v0, 4(zero)      ; SysGetPID
	call_pal 0x83
	addq t5, 1, t5
	cmplt t5, t6, t7
	bne t7, .loop
	ldah t3, 1(zero)
	stq v0, 0(t3)
	stq t5, 8(t3)
	halt
`
	m, p := testMachine(t, src, Options{Quantum: 900, CollectExact: true})
	m.Run(1 << 30)
	if p.State != loader.ProcExited {
		t.Fatalf("state = %v", p.State)
	}
	if pid, n := p.Mem.Load(0x10000, 8), p.Mem.Load(0x10008, 8); pid != uint64(p.PID) || n != calls {
		t.Errorf("stored pid %d and count %d, want %d and %d", pid, n, p.PID, calls)
	}

	user, _, _ := p.Lookup(loader.UserTextBase)
	kern := m.Exact.Exec[m.Loader.Kernel().ID]
	if n := m.Exact.Exec[user.ID][3]; n != calls { // the call_pal itself
		t.Errorf("call_pal counted %d times, want %d", n, calls)
	}
	if n := kern[m.ABI.SyscallEntry/alpha.InstBytes]; n != calls {
		t.Errorf("syscall entry counted %d times, want %d", n, calls)
	}
	if n := kern[m.ABI.TimerEntry/alpha.InstBytes]; n < 5 {
		t.Errorf("timer entry counted %d times; the run saw no timer interrupts", n)
	}
	if st := m.Stats(); st.Faults != 0 || execTotal(m) != st.Instructions {
		t.Errorf("faults=%d, exact counts sum to %d of %d instructions", st.Faults, execTotal(m), st.Instructions)
	}
}

// A PC outside every mapping faults the process, whether a jump put it
// there or execution ran off the end of the image — as the head of a group
// or as the candidate for its second slot.
func TestUnmappedPCStillFaults(t *testing.T) {
	for name, tc := range map[string]struct {
		src   string
		insts uint64
	}{
		"jump into a hole": {`
main:
	ldah t0, 64(zero)
	jmp zero, (t0)
	nop
`, 2},
		"off the end as head": {`
main:
	addq t0, 1, t0
	addq t1, 1, t1
`, 2},
		"off the end as candidate": {`
main:
	addq t0, 1, t0
`, 1},
	} {
		t.Run(name, func(t *testing.T) {
			m, p := testMachine(t, tc.src, Options{CollectExact: true})
			m.Run(1 << 30)
			st := m.Stats()
			if p.State != loader.ProcExited || st.Faults != 1 {
				t.Errorf("state = %v, faults = %d; want an exited process and one fault", p.State, st.Faults)
			}
			if st.Instructions != tc.insts || execTotal(m) != tc.insts {
				t.Errorf("retired %d instructions (%d counted), want %d", st.Instructions, execTotal(m), tc.insts)
			}
		})
	}
}

// Fetch that runs off the end of one mapping into an adjacent one refills
// the window mid-group; the instructions on both sides are counted against
// their own images.
func TestWindowCrossesIntoAdjacentMapping(t *testing.T) {
	kernel, abi := testKernel()
	l := loader.New(kernel)
	m := NewMachine(Options{Loader: l, ABI: abi, Seed: 3, CollectExact: true})
	head := image.New("head", "/bin/head", image.KindExecutable, alpha.MustAssemble(`
main:
	lda t0, 5(zero)
	lda t1, 6(zero)
`))
	tail := l.Register(image.New("tail", "/lib/tail", image.KindShared, alpha.MustAssemble(`
rest:
	addq t0, t1, t2
	ldah t3, 1(zero)
	stq t2, 0(t3)
	halt
`)))
	p, err := l.NewProcess("head", head)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Map(tail, loader.UserTextBase+head.Size()); err != nil {
		t.Fatal(err)
	}
	m.Spawn(p)
	m.Run(1 << 30)

	if got := p.Mem.Load(0x10000, 8); p.State != loader.ProcExited || got != 11 {
		t.Errorf("state = %v, stored %d; want exited and 11", p.State, got)
	}
	for _, im := range []*image.Image{head, tail} {
		for i, n := range m.Exact.Exec[im.ID] {
			if n != 1 {
				t.Errorf("%s instruction %d counted %d times, want 1", im.Name, i, n)
			}
		}
	}
	if st := m.Stats(); st.Faults != 0 || st.Instructions != 6 {
		t.Errorf("faults=%d instructions=%d, want 0 and 6", st.Faults, st.Instructions)
	}
}
