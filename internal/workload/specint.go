package workload

import (
	"fmt"
	"strings"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// SPECint95-like programs. The gcc-like workload runs many short-lived
// processes with distinct PIDs over a large code footprint — the paper's
// explanation for gcc's high driver hash-table eviction rate (§5.1): since
// samples with distinct PIDs do not match in the hash table, the eviction
// rate is high.

// genGCCSource synthesizes a compiler-like image: many procedures spread
// over the I-cache, each a small loop with branches, called in sequence.
func genGCCSource(procs, repeats int) string {
	var b strings.Builder
	b.WriteString("main:\n")
	fmt.Fprintf(&b, "\tlda s3, %d(zero)\n", repeats)
	b.WriteString(".passes:\n")
	for i := 0; i < procs; i++ {
		fmt.Fprintf(&b, "\tbsr ra, pass%d\n", i)
	}
	b.WriteString("\tsubq s3, 1, s3\n")
	b.WriteString("\tbne s3, .passes\n")
	b.WriteString("\thalt\n")
	for i := 0; i < procs; i++ {
		// Four body templates rotated for texture: token scan, hash probe,
		// tree walk arithmetic, and emit loop. a0 = token buffer.
		fmt.Fprintf(&b, "pass%d:\n", i)
		switch i % 4 {
		case 0: // token scan with data-dependent branch
			fmt.Fprintf(&b, `	lda t0, %d(zero)
	bis a0, zero, t1
.p%dl:
	ldq t2, 0(t1)
	and t2, 0x1f, t3
	beq t3, .p%ds
	addq t4, t3, t4
.p%ds:
	lda t1, 8(t1)
	subq t0, 1, t0
	bne t0, .p%dl
	ret (ra)
`, 20+i%7, i, i, i, i)
		case 1: // hash probe
			fmt.Fprintf(&b, `	lda t0, %d(zero)
	ldq t5, 0(a0)
.p%dl:
	sll t5, 3, t2
	xor t5, t2, t5
	and t5, 0xff, t3
	s8addq t3, a1, t6
	ldq t2, 0(t6)
	addq t2, 1, t2
	stq t2, 0(t6)
	srl t5, 2, t5
	addq t5, t0, t5
	subq t0, 1, t0
	bne t0, .p%dl
	ret (ra)
`, 14+i%5, i, i)
		case 2: // expression-tree arithmetic
			fmt.Fprintf(&b, `	lda t0, %d(zero)
	lda t1, 3(zero)
.p%dl:
	s4addq t1, t0, t2
	sll t2, 2, t3
	subq t3, t1, t1
	and t1, 0x7f, t1
	cmplt t1, 0x40, t4
	beq t4, .p%ds
	addq t1, 5, t1
.p%ds:
	subq t0, 1, t0
	bne t0, .p%dl
	ret (ra)
`, 18+i%6, i, i, i, i)
		default: // emit loop (stores)
			fmt.Fprintf(&b, `	lda t0, %d(zero)
	bis a2, zero, t1
	lda t9, 8191(zero)
.p%dl:
	stq t0, 0(t1)
	lda t1, 8(t1)
	and t1, t9, t2
	bne t2, .p%dc
	bis a2, zero, t1
.p%dc:
	subq t0, 1, t0
	bne t0, .p%dl
	ret (ra)
`, 16+i%5, i, i, i, i)
		}
	}
	return b.String()
}

func setupGCC(ctx *Ctx) error {
	const nprocs = 14 // distinct compiler invocations (the paper ran 56)
	src := genGCCSource(48, ctx.scaled(30))
	for i := 0; i < nprocs; i++ {
		p, err := newProcess(ctx, fmt.Sprintf("gcc[%d]", i), "/usr/bin/gcc", src)
		if err != nil {
			return err
		}
		p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
		p.Regs.WriteI(alpha.RegA1, loader.HeapBase+1<<20)
		p.Regs.WriteI(alpha.RegA2, loader.HeapBase+2<<20)
		ctx.fillMemory(p, loader.HeapBase, 2048, uint64(100+i))
	}
	return nil
}

// compress-like: bit-twiddling codec loop.
const compressSrc = `
main:
	; a0 = input, a1 = table, a2 = output, a3 = repeats
.rep:
	bis  a0, zero, t1
	bis  a2, zero, t2
	lda  t0, 4000(zero)
	lda  t9, 511(zero)
.code:
	ldq  t3, 0(t1)
	srl  t3, 9, t4
	xor  t3, t4, t4
	and  t4, t9, t5
	s8addq t5, a1, t6
	ldq  t7, 0(t6)
	addq t7, t3, t7
	and  t7, 0xff, t8
	beq  t8, .rare
	stq  t7, 0(t2)
	lda  t2, 8(t2)
.rare:
	lda  t1, 8(t1)
	subq t0, 1, t0
	bne  t0, .code
	subq a3, 1, a3
	bne  a3, .rep
	halt
`

// li-like: lisp interpreter flavor — pointer chasing through cons cells.
const liSrc = `
main:
	; a0 = head of a linked list of cons cells, a3 = repeats
.rep:
	bis  a0, zero, t1
	lda  t0, 6000(zero)
.chase:
	ldq  t2, 0(t1)        ; car
	ldq  t1, 8(t1)        ; cdr (next pointer)
	and  t2, 0x3, t3
	beq  t3, .atom
	addq t4, t2, t4
.atom:
	subq t0, 1, t0
	bne  t0, .chase
	subq a3, 1, a3
	bne  a3, .rep
	halt
`

// go-like: game-tree evaluation flavor — compare-heavy branchy code.
const goSrc = `
main:
	; a0 = board array, a3 = repeats
.rep:
	bis  a0, zero, t1
	lda  t0, 5000(zero)
	lda  t5, 0(zero)
	lda  t10, 16383(zero)
.eval:
	ldq  t2, 0(t1)
	ldq  t3, 8(t1)
	cmplt t2, t3, t4
	beq  t4, .right
	addq t5, t2, t5
	sll  t5, 1, t5
	br   .next
.right:
	subq t5, t3, t5
	srl  t5, 1, t5
.next:
	zapnot t5, 0x3, t5
	lda  t1, 16(t1)
	and  t1, t10, t6
	bne  t6, .nowrap
	bis  a0, zero, t1
.nowrap:
	subq t0, 1, t0
	bne  t0, .eval
	subq a3, 1, a3
	bne  a3, .rep
	halt
`

func setupSimple(name, path, src string, repeats int, listChase bool) func(*Ctx) error {
	return func(ctx *Ctx) error {
		p, err := newProcess(ctx, name, path, src)
		if err != nil {
			return err
		}
		p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
		p.Regs.WriteI(alpha.RegA1, loader.HeapBase+1<<20)
		p.Regs.WriteI(alpha.RegA2, loader.HeapBase+2<<20)
		p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(repeats)))
		if listChase {
			ctx.buildConsList(p, loader.HeapBase, 4096)
		} else {
			ctx.fillMemory(p, loader.HeapBase, 8192, 7)
			ctx.fillMemory(p, loader.HeapBase+1<<20, 1024, 9)
		}
		return nil
	}
}

// buildConsList lays out a pseudo-random circular linked list of (car, cdr)
// cells so the li-like chase has data-dependent addresses.
func (c *Ctx) buildConsList(p *loader.Process, base uint64, cells int) {
	if !c.runs() {
		return
	}
	perm := make([]int, cells)
	for i := range perm {
		perm[i] = i
	}
	x := uint64(0x9e3779b9)
	for i := cells - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < cells; i++ {
		addr := base + uint64(perm[i])*16
		next := base + uint64(perm[(i+1)%cells])*16
		p.Mem.Store(addr, 8, uint64(i)*3+1) // car
		p.Mem.Store(addr+8, 8, next)        // cdr
	}
}

func init() {
	register(Spec{
		Name:        "gcc",
		Description: "gcc-like: many distinct-PID compiler invocations over a large code footprint (high hash-table eviction)",
		Setup:       setupGCC,
	})
	register(Spec{
		Name:        "compress",
		Description: "compress-like bit-twiddling codec loop",
		Setup:       setupSimple("compress", "/usr/bin/compress", compressSrc, 500, false),
	})
	register(Spec{
		Name:        "li",
		Description: "li-like pointer chasing through cons cells",
		Setup:       setupSimple("li", "/usr/bin/li", liSrc, 400, true),
	})
	register(Spec{
		Name:        "go",
		Description: "go-like branchy game-tree evaluation",
		Setup:       setupSimple("go", "/usr/bin/go", goSrc, 400, false),
	})
}
