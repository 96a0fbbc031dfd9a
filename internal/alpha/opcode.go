// Package alpha defines an Alpha-like instruction set: opcodes, the
// instruction word, register naming conventions, a two-pass assembler, a
// disassembler, and functional execution semantics.
//
// The ISA is a faithful subset of the Alpha AXP architecture as described in
// the DCPI paper's examples (Figure 2 uses ldq/stq/addq/cmpult/lda/bne): load
// and load-address instructions write their first operand, three-register
// operators write their third, stores read their first operand, and
// conditional branches test their first operand. Instructions are 4 bytes.
package alpha

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. The groupings matter: the pipeline model and the analysis tools
// dispatch on Class(), not on individual opcodes.
const (
	// OpInvalid is the zero Op; executing it is a process fault.
	OpInvalid Op = iota

	// Integer memory format: Ra, Disp(Rb).
	OpLDA  // load address: Ra <- Rb + Disp
	OpLDAH // load address high: Ra <- Rb + Disp*65536
	OpLDQ  // load quadword
	OpLDL  // load longword (sign-extended)
	OpSTQ  // store quadword
	OpSTL  // store longword

	// Floating-point memory format: Fa, Disp(Rb).
	OpLDT // load T-floating (64-bit)
	OpSTT // store T-floating

	// Integer operate format: Ra, Rb|#lit, Rc.
	OpADDQ
	OpSUBQ
	OpMULQ  // occupies the integer multiplier
	OpUMULH // unsigned multiply high; occupies the multiplier
	OpS4ADDQ
	OpS8ADDQ
	OpAND
	OpBIC
	OpBIS
	OpORNOT
	OpXOR
	OpEQV
	OpSLL
	OpSRL
	OpSRA
	OpCMPEQ
	OpCMPLT
	OpCMPLE
	OpCMPULT
	OpCMPULE
	OpCMOVEQ // Rc <- Rb if Ra == 0
	OpCMOVNE
	OpCMOVLT
	OpCMOVGE
	OpZAP
	OpZAPNOT
	OpCMPBGE // byte-wise unsigned >= compare, one result bit per byte
	OpEXTBL  // extract byte low
	OpEXTWL  // extract word low
	OpEXTLL  // extract longword low
	OpEXTQL  // extract quadword low
	OpINSBL  // insert byte low
	OpINSWL  // insert word low
	OpMSKBL  // mask byte low
	OpMSKWL  // mask word low
	OpSEXTB  // sign-extend byte (BWX extension)
	OpSEXTW  // sign-extend word

	// Floating-point operate format: Fa, Fb, Fc.
	OpADDT
	OpSUBT
	OpMULT
	OpDIVT // occupies the floating-point divider
	OpCPYS
	OpCVTQT // Fb (integer bits) -> Fc (T-floating)
	OpCVTTQ // Fb (T-floating) -> Fc (integer bits, truncated)
	OpCMPTEQ
	OpCMPTLT
	OpCMPTLE

	// Branch format: Ra, Disp (instruction-count displacement from PC+4).
	OpBR  // unconditional; Ra <- return address (often zero)
	OpBSR // branch to subroutine; Ra <- return address
	OpBEQ
	OpBNE
	OpBLT
	OpBLE
	OpBGT
	OpBGE
	OpBLBC // low bit clear
	OpBLBS // low bit set
	OpFBEQ // floating: Fa == 0
	OpFBNE

	// Jump format: Ra (link), (Rb) target.
	OpJMP
	OpJSR
	OpRET

	// Miscellaneous.
	OpNOP
	OpMB      // memory barrier: drains the write buffer
	OpWMB     // write memory barrier (same model as MB)
	OpCALLPAL // PALcode call; Pal field selects the service
	OpHALT    // terminate the process (simulation device)
	OpFETCH   // prefetch hint: Disp(Rb); no architectural effect

	opMax // sentinel
)

// NumOps is the number of opcode values, for building per-op lookup tables
// (e.g. pipeline.Tables) indexed directly by Op.
const NumOps = int(opMax)

// Class groups opcodes by issue behaviour.
type Class uint8

const (
	ClassIntOp  Class = iota // single-cycle integer operate
	ClassIntMul              // integer multiply (multiplier FU)
	ClassLoad                // memory load (int or fp)
	ClassStore               // memory store (int or fp)
	ClassFPOp                // floating add/mul/compare/convert
	ClassFPDiv               // floating divide (divider FU)
	ClassBranch              // conditional or unconditional branch
	ClassJump                // computed jump (jmp/jsr/ret)
	ClassMisc                // nop, mb, call_pal, halt, fetch
)

// info is the static opcode table.
type info struct {
	name   string
	class  Class
	format format
	fp     bool // operands in the floating-point register file
}

type format uint8

const (
	fmtMemory  format = iota // Ra, Disp(Rb)
	fmtOperate               // Ra, Rb|#lit, Rc
	fmtFPOp                  // Fa, Fb, Fc
	fmtBranch                // Ra, Disp
	fmtJump                  // Ra, (Rb)
	fmtMisc                  // no operands (nop, mb, halt)
	fmtPal                   // call_pal N
)

var opInfo = [opMax]info{
	OpInvalid: {"<invalid>", ClassMisc, fmtMisc, false},

	OpLDA:  {"lda", ClassIntOp, fmtMemory, false},
	OpLDAH: {"ldah", ClassIntOp, fmtMemory, false},
	OpLDQ:  {"ldq", ClassLoad, fmtMemory, false},
	OpLDL:  {"ldl", ClassLoad, fmtMemory, false},
	OpSTQ:  {"stq", ClassStore, fmtMemory, false},
	OpSTL:  {"stl", ClassStore, fmtMemory, false},
	OpLDT:  {"ldt", ClassLoad, fmtMemory, true},
	OpSTT:  {"stt", ClassStore, fmtMemory, true},

	OpADDQ:   {"addq", ClassIntOp, fmtOperate, false},
	OpSUBQ:   {"subq", ClassIntOp, fmtOperate, false},
	OpMULQ:   {"mulq", ClassIntMul, fmtOperate, false},
	OpUMULH:  {"umulh", ClassIntMul, fmtOperate, false},
	OpS4ADDQ: {"s4addq", ClassIntOp, fmtOperate, false},
	OpS8ADDQ: {"s8addq", ClassIntOp, fmtOperate, false},
	OpAND:    {"and", ClassIntOp, fmtOperate, false},
	OpBIC:    {"bic", ClassIntOp, fmtOperate, false},
	OpBIS:    {"bis", ClassIntOp, fmtOperate, false},
	OpORNOT:  {"ornot", ClassIntOp, fmtOperate, false},
	OpXOR:    {"xor", ClassIntOp, fmtOperate, false},
	OpEQV:    {"eqv", ClassIntOp, fmtOperate, false},
	OpSLL:    {"sll", ClassIntOp, fmtOperate, false},
	OpSRL:    {"srl", ClassIntOp, fmtOperate, false},
	OpSRA:    {"sra", ClassIntOp, fmtOperate, false},
	OpCMPEQ:  {"cmpeq", ClassIntOp, fmtOperate, false},
	OpCMPLT:  {"cmplt", ClassIntOp, fmtOperate, false},
	OpCMPLE:  {"cmple", ClassIntOp, fmtOperate, false},
	OpCMPULT: {"cmpult", ClassIntOp, fmtOperate, false},
	OpCMPULE: {"cmpule", ClassIntOp, fmtOperate, false},
	OpCMOVEQ: {"cmoveq", ClassIntOp, fmtOperate, false},
	OpCMOVNE: {"cmovne", ClassIntOp, fmtOperate, false},
	OpCMOVLT: {"cmovlt", ClassIntOp, fmtOperate, false},
	OpCMOVGE: {"cmovge", ClassIntOp, fmtOperate, false},
	OpZAP:    {"zap", ClassIntOp, fmtOperate, false},
	OpZAPNOT: {"zapnot", ClassIntOp, fmtOperate, false},
	OpCMPBGE: {"cmpbge", ClassIntOp, fmtOperate, false},
	OpEXTBL:  {"extbl", ClassIntOp, fmtOperate, false},
	OpEXTWL:  {"extwl", ClassIntOp, fmtOperate, false},
	OpEXTLL:  {"extll", ClassIntOp, fmtOperate, false},
	OpEXTQL:  {"extql", ClassIntOp, fmtOperate, false},
	OpINSBL:  {"insbl", ClassIntOp, fmtOperate, false},
	OpINSWL:  {"inswl", ClassIntOp, fmtOperate, false},
	OpMSKBL:  {"mskbl", ClassIntOp, fmtOperate, false},
	OpMSKWL:  {"mskwl", ClassIntOp, fmtOperate, false},
	OpSEXTB:  {"sextb", ClassIntOp, fmtOperate, false},
	OpSEXTW:  {"sextw", ClassIntOp, fmtOperate, false},

	OpADDT:   {"addt", ClassFPOp, fmtFPOp, true},
	OpSUBT:   {"subt", ClassFPOp, fmtFPOp, true},
	OpMULT:   {"mult", ClassFPOp, fmtFPOp, true},
	OpDIVT:   {"divt", ClassFPDiv, fmtFPOp, true},
	OpCPYS:   {"cpys", ClassFPOp, fmtFPOp, true},
	OpCVTQT:  {"cvtqt", ClassFPOp, fmtFPOp, true},
	OpCVTTQ:  {"cvttq", ClassFPOp, fmtFPOp, true},
	OpCMPTEQ: {"cmpteq", ClassFPOp, fmtFPOp, true},
	OpCMPTLT: {"cmptlt", ClassFPOp, fmtFPOp, true},
	OpCMPTLE: {"cmptle", ClassFPOp, fmtFPOp, true},

	OpBR:   {"br", ClassBranch, fmtBranch, false},
	OpBSR:  {"bsr", ClassBranch, fmtBranch, false},
	OpBEQ:  {"beq", ClassBranch, fmtBranch, false},
	OpBNE:  {"bne", ClassBranch, fmtBranch, false},
	OpBLT:  {"blt", ClassBranch, fmtBranch, false},
	OpBLE:  {"ble", ClassBranch, fmtBranch, false},
	OpBGT:  {"bgt", ClassBranch, fmtBranch, false},
	OpBGE:  {"bge", ClassBranch, fmtBranch, false},
	OpBLBC: {"blbc", ClassBranch, fmtBranch, false},
	OpBLBS: {"blbs", ClassBranch, fmtBranch, false},
	OpFBEQ: {"fbeq", ClassBranch, fmtBranch, true},
	OpFBNE: {"fbne", ClassBranch, fmtBranch, true},

	OpJMP: {"jmp", ClassJump, fmtJump, false},
	OpJSR: {"jsr", ClassJump, fmtJump, false},
	OpRET: {"ret", ClassJump, fmtJump, false},

	OpNOP:     {"nop", ClassMisc, fmtMisc, false},
	OpMB:      {"mb", ClassMisc, fmtMisc, false},
	OpWMB:     {"wmb", ClassMisc, fmtMisc, false},
	OpCALLPAL: {"call_pal", ClassMisc, fmtPal, false},
	OpHALT:    {"halt", ClassMisc, fmtMisc, false},
	OpFETCH:   {"fetch", ClassMisc, fmtMemory, false},
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if op >= opMax {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opInfo[op].name
}

// Class reports the issue class of op.
func (op Op) Class() Class {
	return opInfo[op].class
}

// IsLoad reports whether op reads memory into a register.
func (op Op) IsLoad() bool { return op.Class() == ClassLoad }

// IsStore reports whether op writes a register to memory.
func (op Op) IsStore() bool { return op.Class() == ClassStore }

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool {
	switch op {
	case OpBEQ, OpBNE, OpBLT, OpBLE, OpBGT, OpBGE, OpBLBC, OpBLBS, OpFBEQ, OpFBNE:
		return true
	}
	return false
}

// IsJump reports whether op is a computed jump (jmp/jsr/ret).
func (op Op) IsJump() bool { return op.Class() == ClassJump }

// EndsBlock reports whether op terminates a basic block.
func (op Op) EndsBlock() bool {
	switch op.Class() {
	case ClassBranch, ClassJump:
		return true
	}
	return op == OpHALT || op == OpCALLPAL
}

func (c Class) String() string {
	switch c {
	case ClassIntOp:
		return "intop"
	case ClassIntMul:
		return "intmul"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassFPOp:
		return "fpop"
	case ClassFPDiv:
		return "fpdiv"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassMisc:
		return "misc"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}
