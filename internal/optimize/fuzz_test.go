package optimize

import (
	"fmt"
	"strings"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/pipeline"
)

// FuzzReorderProcedure builds random small procedures — an entry block, a
// chain of arithmetic blocks ending in fall-throughs, unconditional
// forward jumps, or conditional branches in either direction, and a final
// halt — with fuzz-chosen sample counts, and re-lays them. Whatever order
// the chainer picks, the contract is the same one the loop relies on:
// never panic, every emitted branch encodable and in-range, computation
// preserved instruction for instruction, and semantics identical whenever
// the original program halts.
func FuzzReorderProcedure(f *testing.F) {
	f.Add([]byte{0}, uint8(3))
	f.Add([]byte{4, 0x11, 0x22, 0x83, 0x40, 0x95, 0x06, 0xe7}, uint8(17))
	f.Add([]byte{6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(40))
	f.Add([]byte{2, 0xff, 0xfe, 0xfd, 0xfc}, uint8(1))
	f.Add([]byte{5, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89}, uint8(25))

	f.Fuzz(func(t *testing.T, data []byte, t0init uint8) {
		if len(data) == 0 {
			return
		}
		src, ok := fuzzProcSrc(data, t0init)
		if !ok {
			return
		}
		code := alpha.MustAssemble(src).Code

		samples := map[uint64]uint64{}
		for i := range code {
			samples[uint64(i)*alpha.InstBytes] = uint64(data[i%len(data)])
		}
		pa := analysis.AnalyzeProc("fz", code, 0, samples, nil, pipeline.Default(), 1000)
		res, err := ReorderProcedure(pa)
		if err != nil {
			// The generator never emits bsr or computed jumps, so the only
			// legitimate refusal is an unencodable displacement — impossible
			// at these sizes.
			t.Fatalf("reorder refused a safe procedure: %v\n%s", err, src)
		}

		// Structural contract: every branch encodable and inside the body,
		// and the arithmetic preserved instruction for instruction.
		for i, in := range res.Code {
			if in.Op == alpha.Op(0) {
				t.Fatalf("corrupt zero-value Op at %d\n%s", i, src)
			}
			if in.Op.Class() == alpha.ClassBranch {
				if in.Disp < minBranchDisp || in.Disp > maxBranchDisp {
					t.Fatalf("unencodable displacement %d at %d", in.Disp, i)
				}
				if tgt := i + 1 + int(in.Disp); tgt < 0 || tgt >= len(res.Code) {
					t.Fatalf("branch at %d targets %d, outside [0,%d)", i, tgt, len(res.Code))
				}
			}
		}
		if got, want := countArith(res.Code), countArith(code); got != want {
			t.Fatalf("arithmetic instructions %d -> %d; computation dropped\n%s", want, got, src)
		}

		// Semantic contract: if the original halts, the re-laid body halts
		// with the same machine state. (A fuzz-built backward branch can
		// genuinely diverge; then there is no final state to compare.)
		origHalt, origT5, origT0 := fuzzRun(code)
		if !origHalt {
			return
		}
		optHalt, optT5, optT0 := fuzzRun(res.Code)
		if !optHalt {
			t.Fatalf("original halts, re-laid body does not\n%s", src)
		}
		if origT5 != optT5 || origT0 != optT0 {
			t.Fatalf("semantics changed: t5/t0 %d/%d -> %d/%d\n%s",
				origT5, origT0, optT5, optT0, src)
		}
	})
}

// fuzzProcSrc renders the fuzz input as assembly: data[0] picks the block
// count, then each block consumes bytes for its arithmetic op and its
// terminator.
func fuzzProcSrc(data []byte, t0init uint8) (string, bool) {
	nblocks := 1 + int(data[0])%6
	next := 1
	byteAt := func() byte {
		if next >= len(data) {
			return 0
		}
		b := data[next]
		next++
		return b
	}

	var b strings.Builder
	fmt.Fprintf(&b, "p:\n\tlda t0, %d(zero)\n\tlda t5, 0(zero)\n", 1+int(t0init)%40)
	arith := []string{
		"addq t5, 3, t5", "subq t5, 1, t5", "xor t5, t0, t5",
		"sll t5, 1, t5", "and t5, 0xff, t5", "bis t5, t0, t5",
	}
	conds := []string{"beq", "bne", "bgt", "ble", "blt", "bge"}
	for i := 0; i < nblocks; i++ {
		fmt.Fprintf(&b, ".b%d:\n", i)
		fmt.Fprintf(&b, "\t%s\n", arith[int(byteAt())%len(arith)])
		b.WriteString("\tsubq t0, 1, t0\n")
		term := byteAt()
		tgt := int(byteAt()) % (nblocks + 1) // any block or the final halt
		switch term % 4 {
		case 0: // fall through
		case 1: // unconditional: forward only, so br cycles cannot hang
			if tgt <= i {
				tgt = nblocks
			}
			fmt.Fprintf(&b, "\tbr .b%d\n", tgt)
		default: // conditional, either direction
			fmt.Fprintf(&b, "\t%s t0, .b%d\n", conds[int(term)%len(conds)], tgt)
		}
	}
	fmt.Fprintf(&b, ".b%d:\n\thalt\n", nblocks)
	return b.String(), true
}

func countArith(code []alpha.Inst) int {
	n := 0
	for _, in := range code {
		if in.Op.Class() != alpha.ClassBranch && in.Op != alpha.OpHALT {
			n++
		}
	}
	return n
}

// fuzzRun executes a procedure functionally with a step cap; reports
// whether it halted and the final accumulator/counter.
func fuzzRun(code []alpha.Inst) (halted bool, t5, t0 uint64) {
	regs := &alpha.Regs{}
	mem := memMap{}
	pc := uint64(0)
	var out alpha.Outcome
	for steps := 0; steps < 200_000; steps++ {
		idx := pc / alpha.InstBytes
		if idx >= uint64(len(code)) {
			return false, 0, 0
		}
		alpha.Execute(&code[idx], pc, regs, mem, &out)
		if out.Kind == alpha.KindIllegal {
			return false, 0, 0
		}
		if out.Kind == alpha.KindHalt {
			return true, regs.I[alpha.RegT5], regs.I[alpha.RegT0]
		}
		pc = out.NextPC
	}
	return false, 0, 0
}
