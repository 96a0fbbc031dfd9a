package alpha

import (
	"fmt"
	"strconv"
	"strings"
)

// Symbol marks a procedure entry point produced by the assembler. Offsets are
// in bytes from the start of the assembled code; Size covers the half-open
// byte range [Offset, Offset+Size).
type Symbol struct {
	Name   string
	Offset uint64
	Size   uint64
}

// Assembly is the result of assembling a source listing.
type Assembly struct {
	Code    []Inst
	Symbols []Symbol // sorted by Offset; procedures (non-local labels)
	// Lines[i] is the 1-based source line instruction i came from — the
	// line-number information dcpicalc displays when an image has it.
	Lines []int
}

// AsmError reports an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

type fixup struct {
	index int    // instruction to patch
	label string // target label
	line  int
}

// Assemble translates an assembly listing into code and symbols.
//
// Syntax, one instruction or label per line ("//", "#", and ";" start
// comments):
//
//	copyloop:              ; labels ending in ':'; leading '.' or '$' = local
//	    ldq   t4, 0(t1)
//	    addq  t0, 0x4, t0  ; literal second operand
//	    mulq  a0, a1, v0
//	    stq   t4, 0(t2)
//	    cmpult t0, v0, t4
//	    bne   t4, copyloop
//	    ret   (ra)         ; or: ret zero, (ra)
//	    call_pal 0x83
//
// Non-local labels become procedure symbols; each procedure extends to the
// next non-local label or end of code.
func Assemble(src string) (*Assembly, error) {
	var (
		code     []Inst
		lineNums []int
		symbols  []Symbol
		labels   = make(map[string]int) // label -> instruction index
		fixups   []fixup
	)

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by an instruction on the same line.
		for {
			colon := strings.Index(line, ":")
			if colon < 0 || strings.ContainsAny(line[:colon], " \t,(") {
				break
			}
			name := line[:colon]
			if _, dup := labels[name]; dup {
				return nil, &AsmError{ln + 1, fmt.Sprintf("duplicate label %q", name)}
			}
			labels[name] = len(code)
			if !isLocalLabel(name) {
				symbols = append(symbols, Symbol{Name: name, Offset: uint64(len(code)) * InstBytes})
			}
			line = strings.TrimSpace(line[colon+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		inst, fx, err := parseInst(line, ln+1, len(code))
		if err != nil {
			return nil, err
		}
		if fx != nil {
			fixups = append(fixups, *fx)
		}
		code = append(code, inst)
		lineNums = append(lineNums, ln+1)
	}

	for _, fx := range fixups {
		target, ok := labels[fx.label]
		if !ok {
			return nil, &AsmError{fx.line, fmt.Sprintf("undefined label %q", fx.label)}
		}
		// Branch displacement counts instructions from PC+4.
		code[fx.index].Disp = int32(target - (fx.index + 1))
	}

	// Close out symbol sizes.
	for i := range symbols {
		end := uint64(len(code)) * InstBytes
		if i+1 < len(symbols) {
			end = symbols[i+1].Offset
		}
		symbols[i].Size = end - symbols[i].Offset
	}

	return &Assembly{Code: code, Symbols: symbols, Lines: lineNums}, nil
}

// MustAssemble is Assemble that panics on error; for tests and built-in
// workload images whose sources are compile-time constants.
func MustAssemble(src string) *Assembly {
	a, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return a
}

func isLocalLabel(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "$")
}

func stripComment(line string) string {
	for _, sep := range []string{"//", "#", ";"} {
		if i := strings.Index(line, sep); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, int(opMax))
	for op := Op(1); op < opMax; op++ {
		m[opInfo[op].name] = op
	}
	return m
}()

// LookupOp resolves an assembler mnemonic.
func LookupOp(name string) (Op, bool) {
	op, ok := opByName[strings.ToLower(name)]
	return op, ok
}

func parseInst(line string, lineNo, index int) (Inst, *fixup, error) {
	fields := strings.Fields(line)
	mnemonic := strings.ToLower(fields[0])
	op, ok := opByName[mnemonic]
	if !ok {
		return Inst{}, nil, &AsmError{lineNo, fmt.Sprintf("unknown mnemonic %q", mnemonic)}
	}
	rest := strings.TrimSpace(line[len(fields[0]):])
	args := splitArgs(rest)

	in := Inst{Op: op}
	fi := opInfo[op]
	fail := func(format string, a ...any) (Inst, *fixup, error) {
		return Inst{}, nil, &AsmError{lineNo, fmt.Sprintf(format, a...)}
	}

	switch fi.format {
	case fmtMisc:
		if len(args) != 0 {
			return fail("%s takes no operands", mnemonic)
		}
		return in, nil, nil

	case fmtPal:
		if len(args) != 1 {
			return fail("call_pal takes one operand")
		}
		n, err := parseIntArg(args[0])
		if err != nil {
			return fail("bad PAL code %q", args[0])
		}
		in.Pal = uint16(n)
		return in, nil, nil

	case fmtMemory:
		// fetch has no Ra: "fetch 0(t1)".
		if op == OpFETCH {
			if len(args) != 1 {
				return fail("fetch takes disp(base)")
			}
			disp, base, err := parseMemOperand(args[0])
			if err != nil {
				return fail("%v", err)
			}
			in.Ra, in.Disp, in.Rb = RegZero, disp, base
			return in, nil, nil
		}
		if len(args) != 2 {
			return fail("%s takes reg, disp(base)", mnemonic)
		}
		ra, ok := lookupRegFor(fi, args[0])
		if !ok {
			return fail("bad register %q", args[0])
		}
		disp, base, err := parseMemOperand(args[1])
		if err != nil {
			return fail("%v", err)
		}
		in.Ra, in.Disp, in.Rb = ra, disp, base
		return in, nil, nil

	case fmtOperate:
		// sextb/sextw read only Rb; accept the conventional two-operand
		// spelling by filling Ra with zero.
		if (op == OpSEXTB || op == OpSEXTW) && len(args) == 2 {
			args = append([]string{"zero"}, args...)
		}
		if len(args) != 3 {
			return fail("%s takes ra, rb|#lit, rc", mnemonic)
		}
		ra, ok := LookupReg(args[0])
		if !ok {
			return fail("bad register %q", args[0])
		}
		in.Ra = ra
		if rb, ok := LookupReg(args[1]); ok {
			in.Rb = rb
		} else {
			lit, err := parseIntArg(strings.TrimPrefix(args[1], "#"))
			if err != nil || lit < 0 || lit > 255 {
				return fail("bad operand %q (want register or 0..255 literal)", args[1])
			}
			in.Lit, in.UseLit = uint8(lit), true
		}
		rc, ok := LookupReg(args[2])
		if !ok {
			return fail("bad register %q", args[2])
		}
		in.Rc = rc
		return in, nil, nil

	case fmtFPOp:
		// cvtqt/cvttq take two operands (Fb, Fc).
		want := 3
		if op == OpCVTQT || op == OpCVTTQ {
			want = 2
		}
		if len(args) != want {
			return fail("%s takes %d fp registers", mnemonic, want)
		}
		regs := make([]uint8, len(args))
		for i, a := range args {
			r, ok := LookupFPReg(a)
			if !ok {
				return fail("bad fp register %q", a)
			}
			regs[i] = r
		}
		if want == 2 {
			in.Ra, in.Rb, in.Rc = RegZero, regs[0], regs[1]
		} else {
			in.Ra, in.Rb, in.Rc = regs[0], regs[1], regs[2]
		}
		return in, nil, nil

	case fmtBranch:
		var regArg, labelArg string
		switch {
		case op.IsCondBranch():
			if len(args) != 2 {
				return fail("%s takes reg, label", mnemonic)
			}
			regArg, labelArg = args[0], args[1]
		case len(args) == 1: // "br label" links into zero
			regArg, labelArg = "zero", args[0]
		case len(args) == 2:
			regArg, labelArg = args[0], args[1]
		default:
			return fail("%s takes [reg,] label", mnemonic)
		}
		var (
			r  uint8
			ok bool
		)
		if fi.fp {
			r, ok = LookupFPReg(regArg)
		} else {
			r, ok = LookupReg(regArg)
		}
		if !ok {
			return fail("bad register %q", regArg)
		}
		in.Ra = r
		return in, &fixup{index: index, label: labelArg, line: lineNo}, nil

	case fmtJump:
		// Accept "ret (ra)", "ret zero, (ra)", "jsr ra, (pv)".
		var linkArg, targetArg string
		switch len(args) {
		case 1:
			linkArg, targetArg = "zero", args[0]
			if op == OpJSR {
				linkArg = "ra"
			}
		case 2:
			linkArg, targetArg = args[0], args[1]
		default:
			return fail("%s takes [link,] (target)", mnemonic)
		}
		link, ok := LookupReg(linkArg)
		if !ok {
			return fail("bad register %q", linkArg)
		}
		targetArg = strings.TrimSuffix(strings.TrimPrefix(targetArg, "("), ")")
		target, ok := LookupReg(targetArg)
		if !ok {
			return fail("bad register %q", targetArg)
		}
		in.Ra, in.Rb = link, target
		return in, nil, nil
	}
	return fail("unhandled format for %s", mnemonic)
}

func lookupRegFor(fi info, name string) (uint8, bool) {
	if fi.fp {
		return LookupFPReg(name)
	}
	return LookupReg(name)
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// parseMemOperand parses "disp(base)" or "(base)".
func parseMemOperand(s string) (int32, uint8, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q (want disp(base))", s)
	}
	dispStr := strings.TrimSpace(s[:open])
	var disp int64
	if dispStr != "" {
		var err error
		disp, err = parseIntArg(dispStr)
		if err != nil {
			return 0, 0, fmt.Errorf("bad displacement %q", dispStr)
		}
	}
	base, ok := LookupReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if !ok {
		return 0, 0, fmt.Errorf("bad base register in %q", s)
	}
	if disp < -(1<<31) || disp >= 1<<31 {
		return 0, 0, fmt.Errorf("displacement %d out of range", disp)
	}
	return int32(disp), base, nil
}

func parseIntArg(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}
