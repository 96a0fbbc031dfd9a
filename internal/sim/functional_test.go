package sim

import (
	"bytes"
	"fmt"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/hw"
	"dcpi/internal/image"
	"dcpi/internal/loader"
)

// mulStoreProgram is a multiply chain feeding a burst of four stores per
// iteration, with a round trip through the FP registers.
const mulStoreProgram = `
main:
	lda   t0, 0(zero)       ; i
	lda   t1, 3(zero)       ; acc
	ldah  t2, 2(zero)       ; 0x20000: destination
.loop:
	mulq  t1, 7, t1
	mulq  t1, t0, t3
	umulh t1, t3, t4
	addq  t1, t4, t1
	stq   t1, 0(t2)
	stq   t3, 8(t2)
	stl   t4, 16(t2)
	stq   t0, 24(t2)
	ldt   f1, 0(t2)
	cvtqt f1, f2
	addt  f3, f2, f3
	lda   t2, 32(t2)
	addq  t0, 1, t0
	cmplt t0, 250, t5
	bne   t5, .loop
	halt
`

// functionalCase is a user-mode program without system calls, the memory it
// starts with, and the byte ranges it may write.
type functionalCase struct {
	name   string
	src    string
	setup  func(p *loader.Process)
	ranges [][2]uint64 // [addr, length) compared after the run
}

func functionalCases() []functionalCase {
	fill := func(p *loader.Process, addr uint64, n int) {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + i>>8)
		}
		p.Mem.WriteBytes(addr, b)
	}
	return []functionalCase{
		{name: "sum", src: benchSumProgram, setup: func(p *loader.Process) {
			fill(p, loader.HeapBase, 3000*8)
			p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
			p.Regs.WriteI(alpha.RegA1, 3000)
		}, ranges: [][2]uint64{{loader.HeapBase, 3000 * 8}}},
		{name: "copy", src: copyProgram, setup: func(p *loader.Process) {
			fill(p, 0x40000, 4096*8)
		}, ranges: [][2]uint64{{0x40000, 4096 * 8}, {0x80000, 4096 * 8}}},
		{name: "mul-store", src: mulStoreProgram,
			ranges: [][2]uint64{{0x20000, 250 * 32}}},
	}
}

// TestTimedEqualsFunctional holds the timing simulator to the ISA: a program
// stepped through a Machine — at issue width 1, 2 and 4, with timer
// interrupts taken mid-loop — must end with the registers and memory a plain
// alpha.Execute loop gives. A step path that skipped, repeated or reordered an
// Execute would part the two.
func TestTimedEqualsFunctional(t *testing.T) {
	kernel, abi := testKernel()
	for _, tc := range functionalCases() {
		exec := image.New(tc.name, "/bin/"+tc.name, image.KindExecutable, alpha.MustAssemble(tc.src))
		newProc := func(l *loader.Loader) *loader.Process {
			p, err := l.NewProcess(tc.name, exec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(p)
			}
			return p
		}

		ref := newProc(loader.New(kernel))
		steps := executeToHalt(t, ref)

		for _, width := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/issue%d", tc.name, width), func(t *testing.T) {
				cfg := hw.Default()
				cfg.IssueWidth = width
				l := loader.New(kernel)
				m := NewMachine(Options{HW: cfg, Loader: l, ABI: abi, Seed: 9, TimerInterval: 5000})
				p := newProc(l)
				m.Spawn(p)
				limit := int64(steps) * 200 // far beyond any stall these programs meet
				m.Run(limit)
				if p.State != loader.ProcExited {
					t.Fatalf("process state %v after %d cycles, want exited", p.State, limit)
				}
				st := m.Stats()
				if st.Faults != 0 {
					t.Fatalf("%d faults", st.Faults)
				}
				if st.Instructions <= steps {
					t.Errorf("machine executed %d instructions, the program alone takes %d: no timer interrupt ran", st.Instructions, steps)
				}
				if width > 1 && st.IssueGroups >= st.Instructions {
					t.Errorf("%d groups for %d instructions: nothing co-issued", st.IssueGroups, st.Instructions)
				}
				if p.Regs != ref.Regs {
					for r := range p.Regs.I {
						if p.Regs.I[r] != ref.Regs.I[r] {
							t.Errorf("r%d = %#x, functional %#x", r, p.Regs.I[r], ref.Regs.I[r])
						}
						if p.Regs.F[r] != ref.Regs.F[r] {
							t.Errorf("f%d = %#x, functional %#x", r, p.Regs.F[r], ref.Regs.F[r])
						}
					}
				}
				if p.Mem.Pages() != ref.Mem.Pages() {
					t.Errorf("%d resident pages, functional %d", p.Mem.Pages(), ref.Mem.Pages())
				}
				for _, rg := range tc.ranges {
					if !bytes.Equal(p.Mem.ReadBytes(rg[0], int(rg[1])), ref.Mem.ReadBytes(rg[0], int(rg[1]))) {
						t.Errorf("memory [%#x, +%d) differs from the functional run", rg[0], rg[1])
					}
				}
			})
		}
	}
}

// executeToHalt runs p to its halt with nothing but alpha.Execute, the
// functional reference, and returns the number of instructions executed.
func executeToHalt(t *testing.T, p *loader.Process) uint64 {
	t.Helper()
	var out alpha.Outcome
	pc := p.PC
	for n := uint64(1); n < 1<<24; n++ {
		im, off, ok := p.Lookup(pc)
		if !ok {
			t.Fatalf("pc %#x outside every mapping", pc)
		}
		in := &im.Code[off/alpha.InstBytes]
		alpha.Execute(in, pc, &p.Regs, p.Mem, &out)
		switch out.Kind {
		case alpha.KindHalt:
			return n
		case alpha.KindNone:
		default:
			t.Fatalf("%v at %#x: outcome kind %d in a program without system calls", in.Op, pc, out.Kind)
		}
		pc = out.NextPC
	}
	t.Fatal("no halt")
	return 0
}
