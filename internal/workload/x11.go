package workload

import (
	"dcpi/internal/alpha"
	"dcpi/internal/loader"
)

// The x11perf-like workload reproduces Figure 1's structure: an X-server
// process whose time splits across shared libraries (the ffb framebuffer
// driver, the mi machine-independent rasterizer, dix dispatch, os transport)
// plus kernel time for request reads (bcopy/in_checksum via the write
// syscall).
//
// PLT layout (gp): 0 Dispatch, 1 ReadRequestFromClient, 2 miCreateETandAET,
// 3 miZeroArcSetup, 4 miInsertEdgeInET, 5 miX1Y1X2Y2InRegion,
// 6 ffb8ZeroPolyArc, 7 ffb8FillPolygon.
//
// Saved registers: s0 = framebuffer, s1 = request buffer, s2 = edge table.

const x11MainSrc = `
main:
	; a3 = query count
.qloop:
	ldq  pv, 0(gp)
	jsr  ra, (pv)          ; Dispatch
	subq a3, 1, a3
	bne  a3, .qloop
	halt
`

const dixSrc = `
Dispatch:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
	; decode the request opcode (a short table walk)
	ldq  t0, 0(s1)
	and  t0, 0x3f, t0
	lda  t1, 24(zero)
.decode:
	addq t0, t1, t0
	and  t0, 0xff, t0
	subq t1, 1, t1
	bne  t1, .decode
	ldq  pv, 8(gp)
	jsr  ra, (pv)          ; ReadRequestFromClient
	ldq  pv, 16(gp)
	jsr  ra, (pv)          ; miCreateETandAET
	ldq  pv, 24(gp)
	jsr  ra, (pv)          ; miZeroArcSetup
	ldq  pv, 32(gp)
	jsr  ra, (pv)          ; miInsertEdgeInET
	ldq  pv, 40(gp)
	jsr  ra, (pv)          ; miX1Y1X2Y2InRegion
	ldq  pv, 48(gp)
	jsr  ra, (pv)          ; ffb8ZeroPolyArc
	ldq  pv, 56(gp)
	jsr  ra, (pv)          ; ffb8FillPolygon
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	ret  (ra)
`

const osSrc = `
ReadRequestFromClient:
	lda  sp, -16(sp)
	stq  ra, 0(sp)
	; read the client request: kernel checksums and copies the buffer
	bis  s1, zero, a0
	lda  a1, 512(zero)
	lda  v0, 3(zero)       ; SysWrite
	call_pal 0x83
	; parse the request header quadwords
	bis  s1, zero, t1
	lda  t0, 56(zero)
.parse:
	ldq  t2, 0(t1)
	srl  t2, 8, t3
	and  t3, 0x7f, t3
	addq t4, t3, t4
	lda  t1, 8(t1)
	subq t0, 1, t0
	bne  t0, .parse
	ldq  ra, 0(sp)
	lda  sp, 16(sp)
	ret  (ra)
`

const miSrc = `
miCreateETandAET:
	; build the edge table: pointer-ish walk with data-dependent branches
	bis  s2, zero, t1
	lda  t0, 96(zero)
.et:
	ldq  t2, 0(t1)
	and  t2, 0x7, t3
	beq  t3, .skip
	addq t4, t3, t4
	stq  t4, 8(t1)
.skip:
	lda  t1, 16(t1)
	subq t0, 1, t0
	bne  t0, .et
	ret  (ra)

miZeroArcSetup:
	; arc parameter arithmetic (integer heavy, no memory)
	lda  t0, 70(zero)
	lda  t1, 3(zero)
	lda  t2, 17(zero)
.setup:
	sll  t1, 2, t3
	subq t3, t2, t3
	s4addq t2, t3, t1
	and  t1, 0xff, t1
	subq t0, 1, t0
	bne  t0, .setup
	ret  (ra)

miInsertEdgeInET:
	; sorted insert probe over the edge table
	bis  s2, zero, t1
	lda  t0, 40(zero)
	ldq  t2, 0(s1)
.probe:
	ldq  t3, 0(t1)
	cmpult t3, t2, t4
	beq  t4, .done
	lda  t1, 16(t1)
	subq t0, 1, t0
	bne  t0, .probe
.done:
	stq  t2, 8(t1)
	ret  (ra)

miX1Y1X2Y2InRegion:
	; clip-rectangle tests
	lda  t0, 36(zero)
	bis  s2, zero, t1
.clip:
	ldq  t2, 0(t1)
	ldq  t3, 8(t1)
	cmplt t2, t3, t4
	addq t5, t4, t5
	lda  t1, 16(t1)
	subq t0, 1, t0
	bne  t0, .clip
	ret  (ra)
`

const ffbSrc = `
ffb8ZeroPolyArc:
	; rasterize arc spans into the framebuffer: 8 spans x 64 pixels
	lda  t0, 8(zero)
	bis  s0, zero, t1
.span:
	lda  t2, 64(zero)
	ldq  t6, 0(s1)
.pixel:
	ldq  t3, 0(t1)
	sll  t6, 1, t4
	subq t4, t2, t4
	addq t3, t4, t3
	stq  t3, 0(t1)
	lda  t1, 8(t1)
	subq t2, 1, t2
	bne  t2, .pixel
	lda  t1, 448(t1)       ; next scanline
	subq t0, 1, t0
	bne  t0, .span
	ret  (ra)

ffb8FillPolygon:
	; fill spans: store-dominated
	lda  t0, 48(zero)
	bis  s0, zero, t1
	lda  t1, 32768(t1)
	ldq  t2, 8(s1)
.fill:
	stq  t2, 0(t1)
	stq  t2, 8(t1)
	lda  t1, 16(t1)
	subq t0, 1, t0
	bne  t0, .fill
	ret  (ra)
`

func setupX11(ctx *Ctx) error {
	libdix := sharedLib("libdix.so", "/usr/shlib/X11/libdix.so", dixSrc)
	libos := sharedLib("libos.so", "/usr/shlib/X11/libos.so", osSrc)
	libmi := sharedLib("libmi.so", "/usr/shlib/X11/libmi.so", miSrc)
	libffb := sharedLib("lib_dec_ffb_ev5.so", "/usr/shlib/X11/lib_dec_ffb_ev5.so", ffbSrc)

	p, err := newProcess(ctx, "x11perf", "/usr/bin/X11/x11perf", x11MainSrc,
		libdix, libos, libmi, libffb)
	if err != nil {
		return err
	}

	const (
		pltBase = loader.HeapBase
		fbBase  = loader.HeapBase + 1<<20
		reqBase = loader.HeapBase + 2<<20
		etBase  = loader.HeapBase + 3<<20
	)
	if err := ctx.plt(p, pltBase, []pltEntry{
		{libdix, "Dispatch"},
		{libos, "ReadRequestFromClient"},
		{libmi, "miCreateETandAET"},
		{libmi, "miZeroArcSetup"},
		{libmi, "miInsertEdgeInET"},
		{libmi, "miX1Y1X2Y2InRegion"},
		{libffb, "ffb8ZeroPolyArc"},
		{libffb, "ffb8FillPolygon"},
	}); err != nil {
		return err
	}
	p.Regs.WriteI(alpha.RegGP, pltBase)
	p.Regs.WriteI(alpha.RegS0, fbBase)
	p.Regs.WriteI(alpha.RegS1, reqBase)
	p.Regs.WriteI(alpha.RegS2, etBase)
	p.Regs.WriteI(alpha.RegA3, uint64(ctx.scaled(3000))) // queries
	ctx.fillMemory(p, reqBase, 512/8, 11)
	ctx.fillMemory(p, etBase, 4096, 13)
	return nil
}

func init() {
	register(Spec{
		Name:        "x11perf",
		Description: "x11perf-like X server: dix dispatch, os transport, mi rasterizer, ffb driver, kernel request handling (Figure 1)",
		Setup:       setupX11,
	})
}
