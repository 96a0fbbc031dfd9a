package image

// Whole-image re-layout: the rewritten-image half of the §7 continuous-
// optimization loop. A Layout is an absolute description of a rewritten
// image — a complete procedure order, each procedure carrying either its
// original body or a replacement (e.g. from optimize.ReorderProcedure) —
// and WithLayout materializes it as a new Image. Because the layout is
// absolute (it names every procedure and pins every body), plans derived
// from an already-rewritten image compose trivially: applying the new plan
// to the original image reproduces the iterated result.
//
// Safety: procedures move relative to each other, so the rewrite is only
// sound when no instruction transfers control PC-relatively across a
// procedure boundary (a bsr or long branch into another procedure would
// silently retarget). Cross-procedure control flow through the PLT
// (ldq pv, 8*i(gp); jsr ra, (pv)) is safe: the addresses are resolved from
// the symbol table after the rewritten image is registered.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"dcpi/internal/alpha"
)

// ProcLayout places one procedure in a rewritten image.
type ProcLayout struct {
	Name string
	// Code, when non-nil, replaces the procedure's body (it may change
	// length); nil keeps the original instructions.
	Code []alpha.Inst
}

// Layout is an absolute re-layout of one image: the complete new procedure
// order. It must list every procedure of the image exactly once, and must
// keep the image's entry procedure (the one at offset 0) first, because
// process creation starts execution at the image base.
type Layout struct {
	Path  string // image path the layout applies to
	Procs []ProcLayout
}

// Digest returns a short stable content digest of the layout, used to make
// rewritten runs cache-addressable (runner.Key) and to detect layout fixed
// points across optimization iterations.
func (l Layout) Digest() string {
	h := sha256.New()
	h.Write([]byte(l.Path))
	var b [8]byte
	for _, p := range l.Procs {
		h.Write([]byte{0})
		h.Write([]byte(p.Name))
		if p.Code == nil {
			h.Write([]byte{1})
			continue
		}
		binary.LittleEndian.PutUint64(b[:], uint64(len(p.Code)))
		h.Write(b[:])
		for _, in := range p.Code {
			binary.LittleEndian.PutUint64(b[:], packInst(in))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// packInst folds an instruction's fields into one word for hashing. Pal and
// Disp share no bits with the register fields, so distinct instructions
// pack distinctly.
func packInst(in alpha.Inst) uint64 {
	v := uint64(in.Op)<<56 | uint64(in.Ra)<<48 | uint64(in.Rb)<<40 | uint64(in.Rc)<<32
	v |= uint64(uint32(in.Disp))
	v ^= uint64(in.Pal) << 16
	if in.UseLit {
		v ^= 1<<31 | uint64(in.Lit)<<23
	}
	return v
}

// LayoutsDigest combines the digests of a rewrite set canonically (order-
// independent over distinct paths).
func LayoutsDigest(ls []Layout) string {
	if len(ls) == 0 {
		return ""
	}
	ds := make([]string, len(ls))
	for i, l := range ls {
		ds[i] = l.Digest()
	}
	// Sort by path for a canonical combination; layouts apply by path
	// match, so their order never matters semantically.
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j-1].Path > ls[j].Path; j-- {
			ds[j-1], ds[j] = ds[j], ds[j-1]
			ls[j-1], ls[j] = ls[j], ls[j-1]
		}
	}
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// WithLayout builds the rewritten image a layout describes. The receiver is
// not modified. It returns an error when the layout is incomplete or the
// rewrite would be unsound (see the package comment on safety).
func (im *Image) WithLayout(lay Layout) (*Image, error) {
	if lay.Path != "" && lay.Path != im.Path {
		return nil, fmt.Errorf("image %s: layout targets %s", im.Name, lay.Path)
	}
	if len(im.Symbols) == 0 {
		return nil, fmt.Errorf("image %s: no procedures to lay out", im.Name)
	}
	// Relocating procedures must not lose code: every instruction has to
	// belong to a procedure.
	var covered uint64
	for _, s := range im.Symbols {
		covered += s.Size
	}
	if covered != im.Size() {
		return nil, fmt.Errorf("image %s: %d bytes of code outside procedure symbols; cannot re-lay",
			im.Name, im.Size()-covered)
	}
	if len(lay.Procs) != len(im.Symbols) {
		return nil, fmt.Errorf("image %s: layout lists %d procedures, image has %d",
			im.Name, len(lay.Procs), len(im.Symbols))
	}
	if lay.Procs[0].Name != im.Symbols[0].Name {
		return nil, fmt.Errorf("image %s: entry procedure %s must stay first (layout starts with %s)",
			im.Name, im.Symbols[0].Name, lay.Procs[0].Name)
	}

	var (
		newCode []alpha.Inst
		newSyms []alpha.Symbol
		newLine []int
		seen    = make(map[string]bool, len(lay.Procs))
	)
	for _, pl := range lay.Procs {
		if seen[pl.Name] {
			return nil, fmt.Errorf("image %s: procedure %s listed twice", im.Name, pl.Name)
		}
		seen[pl.Name] = true
		code, base, err := im.ProcCode(pl.Name)
		if err != nil {
			return nil, err
		}
		lines := make([]int, len(code)) // zeros unless carried below
		if pl.Code != nil {
			code = pl.Code
			lines = make([]int, len(code))
		} else if im.Lines != nil {
			lo := int(base / alpha.InstBytes)
			if lo+len(code) <= len(im.Lines) {
				copy(lines, im.Lines[lo:lo+len(code)])
			}
		}
		// Soundness: every PC-relative transfer must stay inside its own
		// procedure, whose internal distances the move preserves.
		for i, in := range code {
			if in.Op.Class() != alpha.ClassBranch {
				continue
			}
			if t := i + 1 + int(in.Disp); t < 0 || t >= len(code) {
				return nil, fmt.Errorf("image %s: %s branches outside the procedure (%s at +%d); re-layout would retarget it",
					im.Name, pl.Name, in.Op, i)
			}
		}
		newSyms = append(newSyms, alpha.Symbol{
			Name:   pl.Name,
			Offset: uint64(len(newCode)) * alpha.InstBytes,
			Size:   uint64(len(code)) * alpha.InstBytes,
		})
		newCode = append(newCode, code...)
		newLine = append(newLine, lines...)
	}

	out := &Image{
		Name:    im.Name,
		Path:    im.Path,
		Kind:    im.Kind,
		Code:    newCode,
		Symbols: newSyms,
		meta:    alpha.DecodeMeta(newCode),
		graphs:  make([]procGraph, len(newSyms)),
	}
	if im.Lines != nil {
		out.Lines = newLine
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
