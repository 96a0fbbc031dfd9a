package workload

import (
	"fmt"
	"strings"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// vortex-like: an object-database flavor with a large instruction footprint
// — ~150 small procedures (≈15KB of code, far beyond the 8KB I-cache)
// called in sequence, so steady-state execution misses the I-cache on many
// procedure entries. This is the I-cache-pressure program for the Figure 10
// experiment.

// genVortexSource synthesizes the procedure web.
func genVortexSource(procs, repeats int) string {
	var b strings.Builder
	b.WriteString("main:\n")
	fmt.Fprintf(&b, "\tlda s3, %d(zero)\n", repeats)
	b.WriteString(".txn:\n")
	for i := 0; i < procs; i++ {
		fmt.Fprintf(&b, "\tbsr ra, obj%d\n", i)
	}
	b.WriteString("\tsubq s3, 1, s3\n")
	b.WriteString("\tbne s3, .txn\n")
	b.WriteString("\thalt\n")
	for i := 0; i < procs; i++ {
		// Each "object method" does a short field update: a few loads,
		// integer work, a store, one small inner loop. ~22 instructions.
		fmt.Fprintf(&b, `obj%d:
	s8addq zero, a0, t1
	lda  t1, %d(t1)
	ldq  t2, 0(t1)
	ldq  t3, 8(t1)
	addq t2, t3, t4
	sll  t4, 2, t5
	xor  t5, t2, t5
	and  t5, 0x7f, t6
	lda  t0, %d(zero)
.o%dw:
	addq t6, t0, t6
	srl  t6, 1, t6
	subq t0, 1, t0
	bne  t0, .o%dw
	stq  t6, 16(t1)
	cmplt t6, t3, t7
	beq  t7, .o%ds
	addq t6, 3, t6
	stq  t6, 24(t1)
.o%ds:
	ret  (ra)
`, i, (i%64)*256, 3+i%5, i, i, i, i)
	}
	return b.String()
}

func setupVortex(ctx *Ctx) error {
	p, err := newProcess(ctx, "vortex", "/usr/bin/vortex", genVortexSource(150, ctx.scaled(600)))
	if err != nil {
		return err
	}
	p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
	ctx.fillMemory(p, loader.HeapBase, 4096, 17)
	return nil
}

func init() {
	register(Spec{
		Name:        "vortex",
		Description: "vortex-like object database: ~15KB instruction footprint exercising the I-cache",
		Setup:       setupVortex,
	})
}
