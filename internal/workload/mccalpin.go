package workload

import (
	"math"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// The McCalpin STREAM-like workloads (Table 2/3: assign, scale, sum,
// saxpy). Arrays stream through the memory system; the copy (assign) kernel
// is exactly the paper's Figure 2 loop.

const (
	// streamElems x 8 bytes = 2.25MB per array: larger than the 2MB board
	// cache, so the kernels stream from memory on every pass, as the real
	// STREAM benchmark's arrays do.
	streamElems   = 288 * 1024
	streamRepeats = 3
	srcBase       = loader.HeapBase
	dstBase       = loader.HeapBase + 8<<20
	thirdBase     = loader.HeapBase + 16<<20
)

// copySrc is the Figure 2 copy loop, 4x unrolled, wrapped in a repeat loop.
// Registers: a0=src, a1=dst, a2=N (multiple of 4), a3=repeats.
const copySrc = `
main:
.rep:
	bis   a0, zero, t1
	bis   a1, zero, t2
	lda   t0, 4(zero)
	addq  a2, 4, v0
copyloop:
	ldq   t4, 0(t1)
	addq  t0, 0x4, t0
	ldq   t5, 8(t1)
	ldq   t6, 16(t1)
	ldq   a4, 24(t1)
	lda   t1, 32(t1)
	stq   t4, 0(t2)
	cmpult t0, v0, t4
	stq   t5, 8(t2)
	stq   t6, 16(t2)
	stq   a4, 24(t2)
	lda   t2, 32(t2)
	bne   t4, copyloop
	subq  a3, 1, a3
	bne   a3, .rep
	halt
`

// scaleSrc: b[i] = s * c[i] (f0 holds s). 2x unrolled.
const scaleSrc = `
main:
.rep:
	bis   a0, zero, t1
	bis   a1, zero, t2
	srl   a2, 1, t0
scaleloop:
	ldt   f1, 0(t1)
	ldt   f2, 8(t1)
	mult  f0, f1, f3
	mult  f0, f2, f4
	stt   f3, 0(t2)
	lda   t1, 16(t1)
	stt   f4, 8(t2)
	lda   t2, 16(t2)
	subq  t0, 1, t0
	bne   t0, scaleloop
	subq  a3, 1, a3
	bne   a3, .rep
	halt
`

// sumSrc: c[i] = a[i] + b[i]. a0=a, a1=b, a4 set to c by Setup... the jump
// format has no spare args; c comes in a5.
const sumSrc = `
main:
.rep:
	bis   a0, zero, t1
	bis   a1, zero, t2
	bis   a5, zero, t3
	srl   a2, 1, t0
sumloop:
	ldt   f1, 0(t1)
	ldt   f2, 0(t2)
	ldt   f3, 8(t1)
	ldt   f4, 8(t2)
	addt  f1, f2, f5
	addt  f3, f4, f6
	stt   f5, 0(t3)
	lda   t1, 16(t1)
	stt   f6, 8(t3)
	lda   t2, 16(t2)
	lda   t3, 16(t3)
	subq  t0, 1, t0
	bne   t0, sumloop
	subq  a3, 1, a3
	bne   a3, .rep
	halt
`

// saxpySrc: a[i] = b[i] + s*c[i] (the STREAM triad).
const saxpySrc = `
main:
.rep:
	bis   a0, zero, t1
	bis   a1, zero, t2
	bis   a5, zero, t3
	bis   a2, zero, t0
saxpyloop:
	ldt   f1, 0(t2)
	ldt   f2, 0(t3)
	mult  f0, f2, f3
	addt  f1, f3, f4
	stt   f4, 0(t1)
	lda   t1, 8(t1)
	lda   t2, 8(t2)
	lda   t3, 8(t3)
	subq  t0, 1, t0
	bne   t0, saxpyloop
	subq  a3, 1, a3
	bne   a3, .rep
	halt
`

func setupStream(src string, threeArrays bool) func(*Ctx) error {
	return func(ctx *Ctx) error {
		p, err := newProcess(ctx, "mccalpin", "/bin/mccalpin", src)
		if err != nil {
			return err
		}
		p.Regs.WriteI(alpha.RegA0, srcBase)
		p.Regs.WriteI(alpha.RegA1, dstBase)
		p.Regs.WriteI(alpha.RegA2, streamElems)
		p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(streamRepeats)))
		if threeArrays {
			p.Regs.WriteI(alpha.RegA5, thirdBase)
		}
		p.Regs.F[0] = math.Float64bits(3.0)
		if !ctx.runs() {
			return nil
		}
		// Seed the source arrays with FP-friendly values (small integers as
		// floats) so fp kernels compute on sane data.
		for i := 0; i < streamElems; i++ {
			v := math.Float64bits(float64(i%1000) * 0.5)
			p.Mem.Store(srcBase+uint64(i)*8, 8, v)
			if threeArrays {
				p.Mem.Store(thirdBase+uint64(i)*8, 8, v)
			}
		}
		return nil
	}
}

func init() {
	register(Spec{
		Name:        "mccalpin-assign",
		Description: "McCalpin STREAM copy loop (the paper's Figure 2 kernel)",
		Setup:       setupStream(copySrc, false),
	})
	register(Spec{
		Name:        "mccalpin-scale",
		Description: "McCalpin STREAM scale: b[i] = s*c[i]",
		Setup:       setupStream(scaleSrc, false),
	})
	register(Spec{
		Name:        "mccalpin-sum",
		Description: "McCalpin STREAM sum: c[i] = a[i]+b[i]",
		Setup:       setupStream(sumSrc, true),
	})
	register(Spec{
		Name:        "mccalpin-saxpy",
		Description: "McCalpin STREAM saxpy/triad: a[i] = b[i]+s*c[i]",
		Setup:       setupStream(saxpySrc, true),
	})
}
