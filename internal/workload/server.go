package workload

import (
	"fmt"

	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// Multiprocessor workloads (Table 2): an AltaVista-like index-search server
// on 4 CPUs and a DSS-like decision-support scan on 8 CPUs.

// altavistaSrc: each worker services queries: hash the query, walk two
// postings lists in a big inverted index, intersect, then report the result
// via a write syscall.
const altavistaSrc = `
main:
	; a0 = index base, a1 = postings base, a3 = queries, s1 = result buf
	lda  sp, -16(sp)
	stq  ra, 0(sp)
.query:
	bsr  ra, hash_query
	bsr  ra, walk_postings
	bsr  ra, intersect
	bsr  ra, report
	subq a3, 1, a3
	bne  a3, .query
	halt

hash_query:
	bis  a3, zero, t0
	lda  t1, 40(zero)
.h:
	sll  t0, 5, t2
	xor  t0, t2, t0
	srl  t0, 3, t2
	addq t0, t2, t0
	subq t1, 1, t1
	bne  t1, .h
	zapnot t0, 0x3, s4       ; bucket (low 16 bits)
	ret  (ra)

walk_postings:
	; two postings lists, heads chosen by the hash
	s8addq s4, a0, t1
	ldq  t2, 0(t1)           ; list length seed
	and  t2, 0xff, t3
	lda  t3, 192(t3)         ; 192..447 entries
	bis  a1, zero, t4
	s8addq s4, t4, t4
	lda  t5, 0(zero)
.w:
	ldq  t6, 0(t4)
	addq t5, t6, t5
	lda  t4, 64(t4)          ; stride through postings (cache misses)
	subq t3, 1, t3
	bne  t3, .w
	bis  t5, zero, s5
	ret  (ra)

intersect:
	; merge-intersection flavor: compare-advance over two arrays
	bis  a1, zero, t1
	lda  t2, 0(zero)
	ldah t2, 32(t2)
	addq a1, t2, t2          ; second list 2MB away
	lda  t0, 160(zero)
.i:
	ldq  t3, 0(t1)
	ldq  t4, 0(t2)
	cmpult t3, t4, t5
	beq  t5, .adv2
	lda  t1, 8(t1)
	br   .next
.adv2:
	lda  t2, 8(t2)
	addq s5, t4, s5
.next:
	subq t0, 1, t0
	bne  t0, .i
	ret  (ra)

report:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
	stq  s5, 0(s1)
	bis  s1, zero, a0
	lda  a1, 128(zero)
	lda  v0, 3(zero)
	call_pal 0x83            ; write result
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	ret  (ra)
`

func setupAltaVista(ctx *Ctx) error {
	const workers = 8
	for i := 0; i < workers; i++ {
		p, err := newProcess(ctx, fmt.Sprintf("altavista[%d]", i), "/usr/bin/altavista", altavistaSrc)
		if err != nil {
			return err
		}
		p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
		p.Regs.WriteI(alpha.RegA1, loader.HeapBase+8<<20)
		p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(250)))
		p.Regs.WriteI(alpha.RegS1, loader.HeapBase+48<<20)
		ctx.fillMemory(p, loader.HeapBase, 1<<16/8*8, uint64(31+i))
		ctx.fillMemory(p, loader.HeapBase+8<<20, 1<<18, uint64(37+i))
	}
	return nil
}

// dssSrc: table scan with predicate filter and aggregation (TPC-D flavor).
const dssSrc = `
main:
	; a0 = table base, a2 = rows, a3 = passes
.pass:
	bis  a0, zero, t1
	bis  a2, zero, t0
	lda  t5, 0(zero)
	lda  t6, 0(zero)
.row:
	ldq  t2, 0(t1)           ; quantity column
	ldq  t3, 8(t1)           ; price column
	lda  t4, 24(zero)
	cmpult t2, t4, t7
	beq  t7, .skip
	addq t5, t3, t5          ; sum(price)
	addq t6, 1, t6           ; count(*)
.skip:
	lda  t1, 32(t1)          ; row width 32 bytes
	subq t0, 1, t0
	bne  t0, .row
	subq a3, 1, a3
	bne  a3, .pass
	halt
`

func setupDSS(ctx *Ctx) error {
	const workers = 8
	for i := 0; i < workers; i++ {
		p, err := newProcess(ctx, fmt.Sprintf("dss[%d]", i), "/usr/bin/dss", dssSrc)
		if err != nil {
			return err
		}
		p.Regs.WriteI(alpha.RegA0, loader.HeapBase)
		p.Regs.WriteI(alpha.RegA2, 32*1024) // rows
		p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(8)))
		ctx.fillMemory(p, loader.HeapBase, 32*1024*4, uint64(53+i))
	}
	return nil
}

func init() {
	register(Spec{
		Name:        "altavista",
		Description: "AltaVista-like index search: 8 query workers on 4 CPUs",
		NumCPUs:     4,
		Setup:       setupAltaVista,
	})
	register(Spec{
		Name:        "dss",
		Description: "DSS-like decision-support scan: 8 workers on 8 CPUs",
		NumCPUs:     8,
		Setup:       setupDSS,
	})
}
