// Package image models executable images: the unit the DCPI daemon
// attributes samples to. An image has a path, code, and a symbol table of
// procedures. Samples are stored per (image, offset); SplitCounts divides
// them among the procedures and instructions.
package image

import (
	"fmt"
	"sort"
	"sync"

	"dcpi/internal/alpha"
	"dcpi/internal/cfg"
)

// Kind distinguishes how an image is loaded, mirroring the paper's three
// loadmap sources (§4.3.2).
type Kind uint8

const (
	// KindExecutable is a statically loaded main program (kernel exec path).
	KindExecutable Kind = iota
	// KindShared is a dynamically loaded shared library (/sbin/loader).
	KindShared
	// KindKernel is the kernel image (vmunix), mapped in every context.
	KindKernel
)

func (k Kind) String() string {
	switch k {
	case KindExecutable:
		return "executable"
	case KindShared:
		return "shared"
	case KindKernel:
		return "kernel"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Image is one executable image. Offsets are byte offsets from the image
// start; instruction i lives at offset i*alpha.InstBytes.
type Image struct {
	Name string // short name, e.g. "libm.so"
	Path string // filesystem path, e.g. "/usr/shlib/X11/libm.so"
	Kind Kind
	Code []alpha.Inst
	// Symbols are the image's procedures, sorted by offset and
	// non-overlapping. Every instruction belongs to at most one procedure.
	Symbols []alpha.Symbol

	// Lines holds per-instruction source line numbers when the image was
	// built with them (dcpicalc displays these, like the paper's tools do
	// for images with line-number information); nil otherwise.
	Lines []int

	// ID is a unique identifier assigned by the loader when the image is
	// registered, used in loadmap notifications (paper §4.3.2).
	ID uint32

	// meta is the pre-decoded static metadata table, one entry per
	// instruction, built once at load time so the simulator's per-cycle
	// loop indexes a flat array instead of re-decoding operands.
	meta []alpha.InstMeta

	// graphs memoizes each procedure's CFG, one slot per symbol: a CFG and
	// its equivalence classes are static facts of the code (paper §6.1), so
	// every run and every analysis of the image shares one.
	graphs []procGraph
}

// procGraph is one procedure's CFG slot.
type procGraph struct {
	once sync.Once
	g    *cfg.Graph
}

// New builds an image from assembled code. Symbols must already be sorted by
// offset (the assembler guarantees this).
func New(name, path string, kind Kind, asm *alpha.Assembly) *Image {
	return &Image{
		Name: name, Path: path, Kind: kind,
		Code: asm.Code, Symbols: asm.Symbols, Lines: asm.Lines,
		meta:   alpha.DecodeMeta(asm.Code),
		graphs: make([]procGraph, len(asm.Symbols)),
	}
}

// MetaTable returns the image's pre-decoded instruction metadata, indexed
// like Code. Images built by New carry the table from construction; for a
// hand-assembled Image literal the first call builds it (not safe to race
// with concurrent first calls — construct via New for shared images).
func (im *Image) MetaTable() []alpha.InstMeta {
	if im.meta == nil && len(im.Code) > 0 {
		im.meta = alpha.DecodeMeta(im.Code)
	}
	return im.meta
}

// Size returns the image's code size in bytes.
func (im *Image) Size() uint64 {
	return uint64(len(im.Code)) * alpha.InstBytes
}

// SplitCounts divides one profile's counts, keyed by byte offset into the
// image, among the image's procedures and instructions in one pass: perProc
// by index into Symbols, perInst by instruction index, and rest, the samples
// at no procedure's offset. It is the one place a profile is summed by
// procedure; every tool's per-procedure view reads it.
func (im *Image) SplitCounts(counts map[uint64]uint64) (perProc, perInst []uint64, rest uint64) {
	perInst = make([]uint64, len(im.Code))
	var odd []uint64 // offsets that name no instruction
	for off, n := range counts {
		rest += n
		if i := off / alpha.InstBytes; off%alpha.InstBytes == 0 && i < uint64(len(perInst)) {
			perInst[i] = n
		} else {
			odd = append(odd, off)
		}
	}
	perProc = make([]uint64, len(im.Symbols))
	for s, sym := range im.Symbols {
		for _, n := range perInst[sym.Offset/alpha.InstBytes : (sym.Offset+sym.Size)/alpha.InstBytes] {
			perProc[s] += n
		}
	}
	for _, off := range odd {
		if s, ok := im.SymbolIndexAt(off); ok {
			perProc[s] += counts[off]
		}
	}
	for _, n := range perProc {
		rest -= n
	}
	return perProc, perInst, rest
}

// SymbolIndexAt returns the index in Symbols of the procedure containing
// byte offset off.
func (im *Image) SymbolIndexAt(off uint64) (int, bool) {
	i := sort.Search(len(im.Symbols), func(i int) bool {
		return im.Symbols[i].Offset > off
	})
	if i == 0 || off >= im.Symbols[i-1].Offset+im.Symbols[i-1].Size {
		return 0, false
	}
	return i - 1, true
}

// Symbol looks up a procedure by name.
func (im *Image) Symbol(name string) (alpha.Symbol, bool) {
	if i, ok := im.SymbolIndex(name); ok {
		return im.Symbols[i], true
	}
	return alpha.Symbol{}, false
}

// SymbolIndex returns the index in Symbols of the named procedure.
func (im *Image) SymbolIndex(name string) (int, bool) {
	for i := range im.Symbols {
		if im.Symbols[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// ProcCode returns the instructions of the named procedure and the byte
// offset of its first instruction.
func (im *Image) ProcCode(name string) ([]alpha.Inst, uint64, error) {
	i, ok := im.SymbolIndex(name)
	if !ok {
		return nil, 0, fmt.Errorf("image %s: no procedure %q", im.Name, name)
	}
	return im.symbolCode(i), im.Symbols[i].Offset, nil
}

func (im *Image) symbolCode(i int) []alpha.Inst {
	s := im.Symbols[i]
	return im.Code[s.Offset/alpha.InstBytes : (s.Offset+s.Size)/alpha.InstBytes]
}

// ProcGraph returns the CFG of procedure Symbols[i], with its equivalence
// classes, and whether this call built it. Each procedure's graph is built
// once, by whichever goroutine asks first, and shared read-only from then
// on. The image must come from New or WithLayout.
func (im *Image) ProcGraph(i int) (g *cfg.Graph, built bool) {
	slot := &im.graphs[i]
	slot.once.Do(func() {
		slot.g = cfg.Build(im.symbolCode(i), im.Symbols[i].Offset)
		built = true
	})
	return slot.g, built
}

// Validate checks structural invariants: sorted, non-overlapping symbols that
// stay within the code, and instruction-aligned boundaries.
func (im *Image) Validate() error {
	var prevEnd uint64
	for i, s := range im.Symbols {
		if s.Offset%alpha.InstBytes != 0 || s.Size%alpha.InstBytes != 0 {
			return fmt.Errorf("image %s: symbol %s not instruction aligned", im.Name, s.Name)
		}
		if s.Offset < prevEnd {
			return fmt.Errorf("image %s: symbol %s overlaps predecessor", im.Name, s.Name)
		}
		if s.Offset+s.Size > im.Size() {
			return fmt.Errorf("image %s: symbol %s extends past code end", im.Name, s.Name)
		}
		if i > 0 && s.Offset < im.Symbols[i-1].Offset {
			return fmt.Errorf("image %s: symbols not sorted at %s", im.Name, s.Name)
		}
		prevEnd = s.Offset + s.Size
	}
	return nil
}
