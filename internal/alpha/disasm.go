package alpha

import (
	"fmt"
	"strings"
)

// String renders the instruction in assembler syntax. Branch targets are
// rendered as relative displacements ("bne t4, .-6"); use DisasmAt for
// absolute-address rendering.
func (in Inst) String() string {
	return in.render(func(disp int32) string {
		if disp >= 0 {
			return fmt.Sprintf(".+%d", disp+1)
		}
		return fmt.Sprintf(".%d", disp+1)
	})
}

// DisasmAt renders the instruction as placed at byte address addr, with
// branch targets shown as absolute hex addresses (matching the dcpicalc
// listings in the paper, e.g. "bne t4, 0x009810").
func (in Inst) DisasmAt(addr uint64) string {
	return in.render(func(disp int32) string {
		target := addr + InstBytes + uint64(int64(disp))*InstBytes
		return fmt.Sprintf("0x%06x", target)
	})
}

func (in Inst) render(branchTarget func(int32) string) string {
	fi := opInfo[in.Op]
	name := fi.name
	regName := RegName
	if fi.fp {
		regName = FPRegName
	}
	switch fi.format {
	case fmtMisc:
		return name
	case fmtPal:
		return fmt.Sprintf("%s 0x%x", name, in.Pal)
	case fmtMemory:
		if in.Op == OpFETCH {
			return fmt.Sprintf("%s %d(%s)", name, in.Disp, RegName(in.Rb))
		}
		return fmt.Sprintf("%s %s, %d(%s)", name, regName(in.Ra), in.Disp, RegName(in.Rb))
	case fmtOperate:
		second := RegName(in.Rb)
		if in.UseLit {
			second = fmt.Sprintf("0x%x", in.Lit)
		}
		return fmt.Sprintf("%s %s, %s, %s", name, RegName(in.Ra), second, RegName(in.Rc))
	case fmtFPOp:
		if in.Op == OpCVTQT || in.Op == OpCVTTQ {
			return fmt.Sprintf("%s %s, %s", name, FPRegName(in.Rb), FPRegName(in.Rc))
		}
		return fmt.Sprintf("%s %s, %s, %s", name, FPRegName(in.Ra), FPRegName(in.Rb), FPRegName(in.Rc))
	case fmtBranch:
		t := branchTarget(in.Disp)
		if in.Op.IsCondBranch() {
			return fmt.Sprintf("%s %s, %s", name, regName(in.Ra), t)
		}
		if in.Ra == RegZero {
			return fmt.Sprintf("%s %s", name, t)
		}
		return fmt.Sprintf("%s %s, %s", name, RegName(in.Ra), t)
	case fmtJump:
		if in.Ra == RegZero {
			return fmt.Sprintf("%s (%s)", name, RegName(in.Rb))
		}
		return fmt.Sprintf("%s %s, (%s)", name, RegName(in.Ra), RegName(in.Rb))
	}
	return name
}

// Listing renders code as an assembly listing with one instruction per line,
// starting at base. Useful in tests and debug output.
func Listing(code []Inst, base uint64) string {
	var b strings.Builder
	for i, in := range code {
		addr := base + uint64(i)*InstBytes
		fmt.Fprintf(&b, "%06x  %s\n", addr, in.DisasmAt(addr))
	}
	return b.String()
}
