package alpha

import (
	"math"
	"math/bits"
)

// Memory is the data-memory interface the executor needs. Addresses are
// virtual; the implementation handles translation and paging.
type Memory interface {
	// Load reads size (4 or 8) bytes at addr, little-endian. 4-byte loads
	// return the raw 32 bits; the executor sign-extends for LDL.
	Load(addr uint64, size int) uint64
	// Store writes the low size (4 or 8) bytes of val at addr.
	Store(addr uint64, size int, val uint64)
}

// Regs is the architectural register state of one thread of execution.
type Regs struct {
	I [32]uint64 // integer registers; I[31] reads as zero
	F [32]uint64 // floating-point registers (IEEE bits); F[31] reads as zero
}

// ReadI returns integer register r, honoring the zero register.
func (r *Regs) ReadI(reg uint8) uint64 {
	if reg == RegZero {
		return 0
	}
	return r.I[reg]
}

// WriteI sets integer register r; writes to the zero register are discarded.
func (r *Regs) WriteI(reg uint8, v uint64) {
	if reg != RegZero {
		r.I[reg] = v
	}
}

// ReadF returns FP register r, honoring the zero register.
func (r *Regs) ReadF(reg uint8) uint64 {
	if reg == RegZero {
		return 0
	}
	return r.F[reg]
}

// WriteF sets FP register r; writes to f31 are discarded.
func (r *Regs) WriteF(reg uint8, v uint64) {
	if reg != RegZero {
		r.F[reg] = v
	}
}

// OutcomeKind says what an executed instruction asks of the machine beyond
// control flow and memory traffic. The kinds exclude one another: an
// instruction is a PAL call, a halt, a barrier, illegal, or none of these.
type OutcomeKind uint8

const (
	KindNone    OutcomeKind = iota // an ordinary instruction
	KindPal                        // CALL_PAL: the simulator dispatches Outcome.Pal
	KindHalt                       // the process requested termination
	KindBarrier                    // mb/wmb: drain the write buffer
	KindIllegal                    // not executable (OpInvalid): a process fault
)

// Outcome describes the architectural effect of executing one instruction.
// It is three words on purpose: the caller owns one and Execute fills it in
// place, so the step path neither copies it out of a return nor builds an
// error inside the executor.
type Outcome struct {
	NextPC     uint64 // address of the next instruction
	MemAddr    uint64 // effective address, when MemSize != 0
	Pal        uint16 // CALL_PAL function code, when Kind == KindPal
	MemSize    uint8  // 0, 4, or 8
	MemIsStore bool
	Taken      bool // branch/jump transferred control
	Kind       OutcomeKind
}

// Execute runs one instruction architecturally: registers and memory are
// updated, and out is overwritten with the outcome (control flow, memory
// traffic, kind) for the timing layer. pc is the byte address of the
// instruction.
func Execute(in *Inst, pc uint64, r *Regs, mem Memory, out *Outcome) {
	*out = Outcome{NextPC: pc + InstBytes}

	opB := func() uint64 {
		if in.UseLit {
			return uint64(in.Lit)
		}
		return r.ReadI(in.Rb)
	}

	switch in.Op {
	case OpLDA:
		r.WriteI(in.Ra, r.ReadI(in.Rb)+uint64(int64(in.Disp)))
	case OpLDAH:
		r.WriteI(in.Ra, r.ReadI(in.Rb)+uint64(int64(in.Disp))*65536)

	case OpLDQ, OpLDT:
		addr := r.ReadI(in.Rb) + uint64(int64(in.Disp))
		v := mem.Load(addr, 8)
		if in.Op == OpLDT {
			r.WriteF(in.Ra, v)
		} else {
			r.WriteI(in.Ra, v)
		}
		out.MemAddr, out.MemSize = addr, 8
	case OpLDL:
		addr := r.ReadI(in.Rb) + uint64(int64(in.Disp))
		v := mem.Load(addr, 4)
		r.WriteI(in.Ra, uint64(int64(int32(uint32(v)))))
		out.MemAddr, out.MemSize = addr, 4
	case OpSTQ, OpSTT:
		addr := r.ReadI(in.Rb) + uint64(int64(in.Disp))
		v := r.ReadI(in.Ra)
		if in.Op == OpSTT {
			v = r.ReadF(in.Ra)
		}
		mem.Store(addr, 8, v)
		out.MemAddr, out.MemSize, out.MemIsStore = addr, 8, true
	case OpSTL:
		addr := r.ReadI(in.Rb) + uint64(int64(in.Disp))
		mem.Store(addr, 4, r.ReadI(in.Ra))
		out.MemAddr, out.MemSize, out.MemIsStore = addr, 4, true

	case OpADDQ:
		r.WriteI(in.Rc, r.ReadI(in.Ra)+opB())
	case OpSUBQ:
		r.WriteI(in.Rc, r.ReadI(in.Ra)-opB())
	case OpMULQ:
		r.WriteI(in.Rc, r.ReadI(in.Ra)*opB())
	case OpUMULH:
		hi, _ := mul128(r.ReadI(in.Ra), opB())
		r.WriteI(in.Rc, hi)
	case OpS4ADDQ:
		r.WriteI(in.Rc, r.ReadI(in.Ra)*4+opB())
	case OpS8ADDQ:
		r.WriteI(in.Rc, r.ReadI(in.Ra)*8+opB())
	case OpAND:
		r.WriteI(in.Rc, r.ReadI(in.Ra)&opB())
	case OpBIC:
		r.WriteI(in.Rc, r.ReadI(in.Ra)&^opB())
	case OpBIS:
		r.WriteI(in.Rc, r.ReadI(in.Ra)|opB())
	case OpORNOT:
		r.WriteI(in.Rc, r.ReadI(in.Ra)|^opB())
	case OpXOR:
		r.WriteI(in.Rc, r.ReadI(in.Ra)^opB())
	case OpEQV:
		r.WriteI(in.Rc, r.ReadI(in.Ra)^^opB())
	case OpSLL:
		r.WriteI(in.Rc, r.ReadI(in.Ra)<<(opB()&63))
	case OpSRL:
		r.WriteI(in.Rc, r.ReadI(in.Ra)>>(opB()&63))
	case OpSRA:
		r.WriteI(in.Rc, uint64(int64(r.ReadI(in.Ra))>>(opB()&63)))
	case OpCMPEQ:
		r.WriteI(in.Rc, boolTo(r.ReadI(in.Ra) == opB()))
	case OpCMPLT:
		r.WriteI(in.Rc, boolTo(int64(r.ReadI(in.Ra)) < int64(opB())))
	case OpCMPLE:
		r.WriteI(in.Rc, boolTo(int64(r.ReadI(in.Ra)) <= int64(opB())))
	case OpCMPULT:
		r.WriteI(in.Rc, boolTo(r.ReadI(in.Ra) < opB()))
	case OpCMPULE:
		r.WriteI(in.Rc, boolTo(r.ReadI(in.Ra) <= opB()))
	case OpCMOVEQ:
		if r.ReadI(in.Ra) == 0 {
			r.WriteI(in.Rc, opB())
		}
	case OpCMOVNE:
		if r.ReadI(in.Ra) != 0 {
			r.WriteI(in.Rc, opB())
		}
	case OpCMOVLT:
		if int64(r.ReadI(in.Ra)) < 0 {
			r.WriteI(in.Rc, opB())
		}
	case OpCMOVGE:
		if int64(r.ReadI(in.Ra)) >= 0 {
			r.WriteI(in.Rc, opB())
		}
	case OpZAP:
		r.WriteI(in.Rc, zap(r.ReadI(in.Ra), uint8(opB()), true))
	case OpZAPNOT:
		r.WriteI(in.Rc, zap(r.ReadI(in.Ra), uint8(opB()), false))
	case OpCMPBGE:
		r.WriteI(in.Rc, cmpbge(r.ReadI(in.Ra), opB()))
	case OpEXTBL:
		r.WriteI(in.Rc, extract(r.ReadI(in.Ra), opB(), 1))
	case OpEXTWL:
		r.WriteI(in.Rc, extract(r.ReadI(in.Ra), opB(), 2))
	case OpEXTLL:
		r.WriteI(in.Rc, extract(r.ReadI(in.Ra), opB(), 4))
	case OpEXTQL:
		r.WriteI(in.Rc, extract(r.ReadI(in.Ra), opB(), 8))
	case OpINSBL:
		r.WriteI(in.Rc, insert(r.ReadI(in.Ra), opB(), 1))
	case OpINSWL:
		r.WriteI(in.Rc, insert(r.ReadI(in.Ra), opB(), 2))
	case OpMSKBL:
		r.WriteI(in.Rc, mask(r.ReadI(in.Ra), opB(), 1))
	case OpMSKWL:
		r.WriteI(in.Rc, mask(r.ReadI(in.Ra), opB(), 2))
	case OpSEXTB:
		r.WriteI(in.Rc, uint64(int64(int8(uint8(opB())))))
	case OpSEXTW:
		r.WriteI(in.Rc, uint64(int64(int16(uint16(opB())))))

	case OpADDT:
		r.WriteF(in.Rc, f2b(b2f(r.ReadF(in.Ra))+b2f(r.ReadF(in.Rb))))
	case OpSUBT:
		r.WriteF(in.Rc, f2b(b2f(r.ReadF(in.Ra))-b2f(r.ReadF(in.Rb))))
	case OpMULT:
		r.WriteF(in.Rc, f2b(b2f(r.ReadF(in.Ra))*b2f(r.ReadF(in.Rb))))
	case OpDIVT:
		r.WriteF(in.Rc, f2b(b2f(r.ReadF(in.Ra))/b2f(r.ReadF(in.Rb))))
	case OpCPYS:
		sign := r.ReadF(in.Ra) & (1 << 63)
		r.WriteF(in.Rc, sign|(r.ReadF(in.Rb)&^(1<<63)))
	case OpCVTQT:
		r.WriteF(in.Rc, f2b(float64(int64(r.ReadF(in.Rb)))))
	case OpCVTTQ:
		r.WriteF(in.Rc, uint64(int64(b2f(r.ReadF(in.Rb)))))
	case OpCMPTEQ:
		r.WriteF(in.Rc, fpBool(b2f(r.ReadF(in.Ra)) == b2f(r.ReadF(in.Rb))))
	case OpCMPTLT:
		r.WriteF(in.Rc, fpBool(b2f(r.ReadF(in.Ra)) < b2f(r.ReadF(in.Rb))))
	case OpCMPTLE:
		r.WriteF(in.Rc, fpBool(b2f(r.ReadF(in.Ra)) <= b2f(r.ReadF(in.Rb))))

	case OpBR, OpBSR:
		r.WriteI(in.Ra, pc+InstBytes)
		out.NextPC = branchDest(pc, in.Disp)
		out.Taken = true
	case OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE, OpBLBC, OpBLBS:
		if intBranchTaken(in.Op, r.ReadI(in.Ra)) {
			out.NextPC = branchDest(pc, in.Disp)
			out.Taken = true
		}
	case OpFBEQ:
		if b2f(r.ReadF(in.Ra)) == 0 {
			out.NextPC = branchDest(pc, in.Disp)
			out.Taken = true
		}
	case OpFBNE:
		if b2f(r.ReadF(in.Ra)) != 0 {
			out.NextPC = branchDest(pc, in.Disp)
			out.Taken = true
		}

	case OpJMP, OpJSR, OpRET:
		target := r.ReadI(in.Rb) &^ 3
		r.WriteI(in.Ra, pc+InstBytes)
		out.NextPC = target
		out.Taken = true

	case OpNOP, OpFETCH:
		// no architectural effect
	case OpMB, OpWMB:
		out.Kind = KindBarrier
	case OpCALLPAL:
		out.Kind, out.Pal = KindPal, in.Pal
	case OpHALT:
		out.Kind = KindHalt
	default:
		out.Kind = KindIllegal
	}
}

func branchDest(pc uint64, disp int32) uint64 {
	return pc + InstBytes + uint64(int64(disp))*InstBytes
}

func intBranchTaken(op Op, v uint64) bool {
	switch op {
	case OpBEQ:
		return v == 0
	case OpBNE:
		return v != 0
	case OpBLT:
		return int64(v) < 0
	case OpBLE:
		return int64(v) <= 0
	case OpBGT:
		return int64(v) > 0
	case OpBGE:
		return int64(v) >= 0
	case OpBLBC:
		return v&1 == 0
	case OpBLBS:
		return v&1 == 1
	}
	return false
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fpBool is the Alpha convention: FP compares write 2.0 for true, 0 for false.
func fpBool(b bool) uint64 {
	if b {
		return f2b(2.0)
	}
	return 0
}

func b2f(bits uint64) float64 { return math.Float64frombits(bits) }
func f2b(v float64) uint64    { return math.Float64bits(v) }

// zap clears (inv=true) or keeps (inv=false) the bytes selected by mask.
func zap(v uint64, mask uint8, inv bool) uint64 {
	var keep uint64
	for i := 0; i < 8; i++ {
		if mask&(1<<i) != 0 != inv {
			keep |= 0xff << (8 * i)
		}
	}
	return v & keep
}

// cmpbge implements the Alpha byte-compare: result bit i is set when byte i
// of a is unsigned->= byte i of b.
func cmpbge(a, b uint64) uint64 {
	var out uint64
	for i := 0; i < 8; i++ {
		ab := uint8(a >> (8 * i))
		bb := uint8(b >> (8 * i))
		if ab >= bb {
			out |= 1 << i
		}
	}
	return out
}

// extract implements EXTxL: shift right by the byte offset in the low bits
// of b, then keep size bytes.
func extract(a, b uint64, size int) uint64 {
	shifted := a >> (8 * (b & 7))
	if size >= 8 {
		return shifted
	}
	return shifted & (1<<(8*size) - 1)
}

// insert implements INSxL: keep size low bytes of a, shifted left by the
// byte offset in b.
func insert(a, b uint64, size int) uint64 {
	v := a
	if size < 8 {
		v &= 1<<(8*size) - 1
	}
	sh := 8 * (b & 7)
	if sh >= 64 {
		return 0
	}
	return v << sh
}

// mask implements MSKxL: clear size bytes of a starting at the byte offset
// in b.
func mask(a, b uint64, size int) uint64 {
	var m uint64
	if size >= 8 {
		m = ^uint64(0)
	} else {
		m = 1<<(8*size) - 1
	}
	sh := 8 * (b & 7)
	if sh < 64 {
		a &^= m << sh
	}
	return a
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
