package alpha

// InstBytes is the size of every instruction in bytes.
const InstBytes = 4

// Inst is one decoded instruction. The operand meaning depends on the format:
//
//   - memory:  Ra, Disp(Rb)     — loads/lda write Ra, stores read Ra
//   - operate: Ra, Rb|#Lit, Rc  — writes Rc
//   - branch:  Ra, Disp         — Disp counts instructions from PC+4
//   - jump:    Ra, (Rb)         — writes return address to Ra, target in Rb
type Inst struct {
	Op     Op
	Ra     uint8
	Rb     uint8
	Rc     uint8
	Disp   int32 // memory byte displacement, or branch instruction displacement
	Lit    uint8 // literal operand, when UseLit
	UseLit bool
	Pal    uint16 // CALL_PAL function code
}

// Operand describes a register operand as integer or floating-point. For
// source operands, Slot records which encoding slot ('a', 'b', or 'c') the
// register occupies; the analysis tools report "Ra/Rb/Rc dependency" static
// stalls from it, as dcpicalc does in the paper's Figure 4.
type Operand struct {
	Reg  uint8
	FP   bool
	Slot byte
}

// valid reports whether o names a real architectural destination. Register 31
// reads as zero and discards writes in both register files.
func valid(o Operand) bool { return o.Reg != RegZero }

// InstMeta is the pre-decoded static metadata of one instruction: the
// operand facts Sources and Dest derive, flattened into fixed-size storage
// so the simulator's per-cycle loop can consult them without allocating.
// Images pre-compute one InstMeta per instruction at load time
// (image.Image.MetaTable); colder callers decode on the fly with Meta.
type InstMeta struct {
	// Src holds the source operands in the same order Sources returns
	// them; only the first NSrc entries are meaningful.
	Src  [3]Operand
	NSrc uint8
	// Dst is the destination register; meaningful only when HasDst.
	Dst    Operand
	HasDst bool
	// Static classification flags, pre-resolved from the opcode table.
	Load       bool // reads memory into a register
	Store      bool // writes a register to memory
	CondBranch bool // conditional branch
}

// Meta decodes in's static operand metadata without heap allocation. It is
// the single source of truth for operand decoding: Sources and Dest are
// views over its result, so the three can never disagree.
func (in Inst) Meta() InstMeta {
	fi := opInfo[in.Op]
	var m InstMeta
	add := func(r uint8, fp bool, slot byte) {
		if r == RegZero {
			return
		}
		m.Src[m.NSrc] = Operand{r, fp, slot}
		m.NSrc++
	}
	setDst := func(r uint8, fp bool) {
		o := Operand{Reg: r, FP: fp}
		m.Dst, m.HasDst = o, valid(o)
	}
	switch fi.format {
	case fmtMemory:
		add(in.Rb, false, 'b') // base address
		if in.Op.IsStore() {
			add(in.Ra, fi.fp, 'a') // stored value
			m.Store = true
		} else if in.Op.IsLoad() {
			setDst(in.Ra, fi.fp)
			m.Load = true
		} else if in.Op == OpLDA || in.Op == OpLDAH {
			setDst(in.Ra, fi.fp)
		}
	case fmtOperate:
		add(in.Ra, false, 'a')
		if !in.UseLit {
			add(in.Rb, false, 'b')
		}
		// Conditional moves also read the current destination.
		switch in.Op {
		case OpCMOVEQ, OpCMOVNE, OpCMOVLT, OpCMOVGE:
			add(in.Rc, false, 'c')
		}
		setDst(in.Rc, false)
	case fmtFPOp:
		add(in.Ra, true, 'a')
		add(in.Rb, true, 'b')
		setDst(in.Rc, true)
	case fmtBranch:
		if in.Op.IsCondBranch() {
			add(in.Ra, fi.fp, 'a')
			m.CondBranch = true
		} else if in.Op == OpBR || in.Op == OpBSR {
			setDst(in.Ra, false)
		}
	case fmtJump:
		add(in.Rb, false, 'b')
		setDst(in.Ra, false)
	}
	return m
}

// Sources lists m's source operands (a view over the packed array).
func (m *InstMeta) Sources() []Operand { return m.Src[:m.NSrc] }

// Dest returns the register written by the instruction, if any. The zero
// integer register is never reported as a destination.
func (in Inst) Dest() (Operand, bool) {
	m := in.Meta()
	return m.Dst, m.HasDst
}

// Sources returns the registers read by the instruction. The zero integer
// register is omitted (reading it never creates a dependency).
func (in Inst) Sources() []Operand {
	m := in.Meta()
	if m.NSrc == 0 {
		return nil
	}
	out := make([]Operand, m.NSrc)
	copy(out, m.Src[:m.NSrc])
	return out
}

// DecodeMeta builds the pre-decoded metadata table for a code sequence
// (one entry per instruction, indexed like the code slice).
func DecodeMeta(code []Inst) []InstMeta {
	out := make([]InstMeta, len(code))
	for i, in := range code {
		out[i] = in.Meta()
	}
	return out
}
