package workload

import (
	"fmt"
	"strings"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// The classify workload is the §7 continuous-optimization target: a token
// classifier whose code layout pessimizes the machine two ways at once.
//
//   - Within the hot loop, the common arm is reached through a taken branch
//     plus an extra unconditional jump (branch-sense inversion and block
//     re-chaining fix this).
//
//   - The loop calls a checksum helper through the PLT every iteration, and
//     cold padding places the helper almost exactly one I-cache of code
//     past the loop. The I-cache is 8KB direct-mapped with 8KB pages, so
//     the cache index is the page offset regardless of page placement: the
//     helper occupies the same cache line as its own call sequence and the
//     two evict each other on every single call. Re-laying the image with
//     the hot helper next to the loop (procedure reordering) removes the
//     conflict entirely.
//
// The call goes through the PLT (ldq pv, 0(gp); jsr ra, (pv)), not bsr, so
// the image stays safely re-layable: PLT addresses resolve from the symbol
// table after the rewritten image is registered.

// classifyPadProcs/classifyPadInsts size the cold padding between the loop
// and the helper: 30 procedures x 68 instructions = 2040 instructions.
// main is 19 instructions, so checksum lands at byte offset 76 + 8160 =
// 8236 — page offset 44, the I-cache line holding the loop's PLT call
// sequence (bytes 32-63). Every call then evicts the caller's own line.
const (
	classifyPadProcs = 30
	classifyPadInsts = 68
)

func classifySrc() string {
	var b strings.Builder
	b.WriteString(`
main:
	; a0 = token buffer, gp = plt, a3 = repeats
.crep:
	bis  a0, zero, s0
	lda  s1, 96(zero)
.cloop:
	ldq  t2, 0(s0)
	and  t2, 0xf, t3
	beq  t3, .crare        ; 1 in 16: rare token
	br   .ccommon          ; common case pays an extra jump
.crare:
	sll  t2, 3, t4
	xor  t4, t5, t5
	addq t5, 7, t5
	br   .cnext
.ccommon:
	addq t5, t2, t5
.cnext:
	ldq  pv, 0(gp)
	jsr  ra, (pv)          ; checksum: a cross-page call before re-layout
	lda  s0, 8(s0)
	subq s1, 1, s1
	bne  s1, .cloop
	subq a3, 1, a3
	bne  a3, .crep
	halt
`)
	for i := 0; i < classifyPadProcs; i++ {
		fmt.Fprintf(&b, "cpad%d:\n", i)
		for j := 0; j < classifyPadInsts-1; j++ {
			b.WriteString("\tnop\n")
		}
		b.WriteString("\tret (ra)\n")
	}
	b.WriteString(`
checksum:
	ldq  t7, 0(s0)
	xor  t6, t7, t6
	srl  t6, 2, t8
	addq t6, t8, t6
	ret  (ra)
`)
	return b.String()
}

func setupClassify(ctx *Ctx) error {
	p, err := newProcess(ctx, "classify", "/bin/classify", classifySrc())
	if err != nil {
		return err
	}
	exec, ok := ctx.Loader.ImageByPath("/bin/classify")
	if !ok {
		return fmt.Errorf("workload classify: image not registered")
	}
	const pltBase = loader.HeapBase + 3<<20
	if err := ctx.plt(p, pltBase, []pltEntry{{exec, "checksum"}}); err != nil {
		return err
	}
	p.Regs.WriteI(alpha.RegGP, pltBase)
	p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
	p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(400)))
	ctx.fillMemory(p, loader.HeapBase, 1024, 21)
	return nil
}

func init() {
	register(Spec{
		Name:        "classify",
		Description: "token classifier with a pessimized layout: hot helper one I-cache away from its call site (continuous-optimization target)",
		Setup:       setupClassify,
	})
}
