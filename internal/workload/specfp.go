package workload

import (
	"math"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// SPECfp95-like programs. wave5 reproduces the paper's §3.3 variance study:
// its smooth_ procedure touches several large arrays whose physical page
// placement (randomized per run) determines board-cache conflict misses, so
// run time — and smooth_'s share of samples — varies across runs, which is
// exactly what dcpistats isolates in Figure 3.

// wave5 procedures, sized so parmvr_ dominates (paper: ~59% of samples).
// Registers: a0 = arrays base, a3 = outer iterations.
// Array layout (1MB apart): u (a0), v (+1MB), w (+2MB), work (+3MB).
const wave5Src = `
main:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
.iter:
	bsr  ra, parmvr_
	bsr  ra, smooth_
	bsr  ra, fftb_
	bsr  ra, ffef_
	bsr  ra, putb_
	bsr  ra, vslvip_
	subq a3, 1, a3
	bne  a3, .iter
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	halt

parmvr_:
	; particle move: fp-heavy sweep, the dominant phase
	bis  a0, zero, t1
	lda  t0, 4096(zero)
.pm:
	ldt  f1, 0(t1)
	ldt  f2, 8(t1)
	mult f1, f10, f3
	addt f3, f2, f4
	mult f2, f11, f5
	addt f4, f5, f6
	stt  f6, 0(t1)
	lda  t1, 16(t1)
	subq t0, 1, t0
	bne  t0, .pm
	ret  (ra)

smooth_:
	; field smoothing: repeated page-stride sweeps over three 1MB arrays.
	; Whether a page of one array evicts a page of another in the 2MB
	; direct-mapped board cache depends on physical page placement, and a
	; conflicting pair thrashes on every one of the 8 sweeps — the paper's
	; §3.3 run-to-run variance mechanism.
	lda  t4, 8(zero)      ; sweeps
.sweep:
	bis  a0, zero, t1
	lda  t2, 0(zero)
	ldah t2, 16(t2)       ; +1MB
	addq a0, t2, t2
	addq t2, t2, t3
	subq t3, a0, t3       ; +2MB
	lda  t0, 128(zero)    ; pages per array
.sm:
	ldt  f1, 0(t1)
	ldt  f2, 0(t2)
	ldt  f3, 0(t3)
	addt f1, f2, f4
	addt f4, f3, f5
	mult f5, f12, f6
	addt f7, f6, f7       ; accumulate; conflicts in the loads dominate
	lda  t1, 8192(t1)     ; page stride
	lda  t2, 8192(t2)
	lda  t3, 8192(t3)
	subq t0, 1, t0
	bne  t0, .sm
	subq t4, 1, t4
	bne  t4, .sweep
	stt  f7, 0(a0)
	ret  (ra)

fftb_:
	; butterfly pass
	bis  a0, zero, t1
	lda  t0, 512(zero)
.bf:
	ldt  f1, 0(t1)
	ldt  f2, 4096(t1)
	addt f1, f2, f3
	subt f1, f2, f4
	stt  f3, 0(t1)
	stt  f4, 4096(t1)
	lda  t1, 8(t1)
	subq t0, 1, t0
	bne  t0, .bf
	ret  (ra)

ffef_:
	; forward transform twiddle
	bis  a0, zero, t1
	lda  t0, 512(zero)
.fe:
	ldt  f1, 0(t1)
	mult f1, f10, f2
	addt f2, f11, f3
	stt  f3, 8192(t1)
	lda  t1, 8(t1)
	subq t0, 1, t0
	bne  t0, .fe
	ret  (ra)

putb_:
	; boundary copy
	bis  a0, zero, t1
	lda  t2, 0(zero)
	ldah t2, 48(t2)       ; +3MB work array
	addq a0, t2, t2
	lda  t0, 768(zero)
.pb:
	ldq  t3, 0(t1)
	stq  t3, 0(t2)
	lda  t1, 8(t1)
	lda  t2, 8(t2)
	subq t0, 1, t0
	bne  t0, .pb
	ret  (ra)

vslvip_:
	; tridiagonal solve: divide-bound (FDIV busy stalls)
	bis  a0, zero, t1
	lda  t0, 96(zero)
.vs:
	ldt  f1, 0(t1)
	divt f1, f13, f2
	stt  f2, 0(t1)
	lda  t1, 8(t1)
	subq t0, 1, t0
	bne  t0, .vs
	ret  (ra)
`

func setupWave5(ctx *Ctx) error {
	p, err := newProcess(ctx, "wave5", "/usr/bin/wave5", wave5Src)
	if err != nil {
		return err
	}
	p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
	p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(40)))
	for i, v := range []float64{1.000244, 0.5, 0.333333, 1.000122} {
		p.Regs.F[10+i] = math.Float64bits(v)
	}
	ctx.fillFP(p, loader.HeapBase, 3*1<<20/8)
	return nil
}

// fillFP seeds n quadwords with small floating-point values.
func (c *Ctx) fillFP(p *loader.Process, base uint64, n int) {
	if !c.runs() {
		return
	}
	for i := 0; i < n; i++ {
		p.Mem.Store(base+uint64(i)*8, 8, math.Float64bits(1.0+float64(i%97)/97))
	}
}

// mgrid-like: 3D stencil relaxation flavor.
const mgridSrc = `
main:
.rep:
	bis  a0, zero, t1
	lda  t0, 3000(zero)
.st:
	ldt  f1, 0(t1)
	ldt  f2, 8(t1)
	ldt  f3, 16(t1)
	addt f1, f3, f4
	mult f4, f10, f5
	addt f5, f2, f6
	stt  f6, 8(t1)
	lda  t1, 8(t1)
	subq t0, 1, t0
	bne  t0, .st
	subq a3, 1, a3
	bne  a3, .rep
	halt
`

// swim-like: shallow-water update flavor (two streams in, one out).
const swimSrc = `
main:
.rep:
	bis  a0, zero, t1
	bis  a1, zero, t2
	lda  t0, 2500(zero)
.sw:
	ldt  f1, 0(t1)
	ldt  f2, 0(t2)
	subt f1, f2, f3
	mult f3, f10, f4
	addt f4, f1, f5
	stt  f5, 0(t1)
	lda  t1, 8(t1)
	lda  t2, 8(t2)
	subq t0, 1, t0
	bne  t0, .sw
	subq a3, 1, a3
	bne  a3, .rep
	halt
`

func setupFP(name, src string, repeats int) func(*Ctx) error {
	return func(ctx *Ctx) error {
		p, err := newProcess(ctx, name, "/usr/bin/"+name, src)
		if err != nil {
			return err
		}
		p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
		p.Regs.WriteI(alpha.RegA1, loader.HeapBase+1<<20)
		p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(repeats)))
		p.Regs.F[10] = math.Float64bits(0.25)
		ctx.fillFP(p, loader.HeapBase, 4096)
		ctx.fillFP(p, loader.HeapBase+1<<20, 4096)
		return nil
	}
}

func init() {
	register(Spec{
		Name:        "wave5",
		Description: "wave5-like: parmvr_ dominant, smooth_ page-placement sensitive (the §3.3 variance study)",
		Setup:       setupWave5,
	})
	register(Spec{
		Name:        "mgrid",
		Description: "mgrid-like stencil relaxation",
		Setup:       setupFP("mgrid", mgridSrc, 500),
	})
	register(Spec{
		Name:        "swim",
		Description: "swim-like shallow-water update",
		Setup:       setupFP("swim", swimSrc, 500),
	})
}
