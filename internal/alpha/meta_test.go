package alpha

import (
	"reflect"
	"testing"
)

// TestMetaKnownInstructions checks Meta against hand-derived operand facts
// for one representative of every format and special case, independent of
// the decoding switch itself.
func TestMetaKnownInstructions(t *testing.T) {
	cases := []struct {
		name             string
		in               Inst
		src              []Operand
		dst              Operand
		has              bool
		load, store, cbr bool
	}{
		{
			name: "LDQ t1, 0(t3) reads base, writes Ra",
			in:   Inst{Op: OpLDQ, Ra: 2, Rb: 4},
			src:  []Operand{{Reg: 4, Slot: 'b'}},
			dst:  Operand{Reg: 2}, has: true, load: true,
		},
		{
			name:  "STQ a0, 8(sp) reads base and stored value",
			in:    Inst{Op: OpSTQ, Ra: 16, Rb: 30, Disp: 8},
			src:   []Operand{{Reg: 30, Slot: 'b'}, {Reg: 16, Slot: 'a'}},
			store: true,
		},
		{
			name: "LDT f1, 0(t0) writes an FP destination",
			in:   Inst{Op: OpLDT, Ra: 1, Rb: 1},
			src:  []Operand{{Reg: 1, Slot: 'b'}},
			dst:  Operand{Reg: 1, FP: true}, has: true, load: true,
		},
		{
			name: "LDA t0, 0(zero) has no sources (zero base elided)",
			in:   Inst{Op: OpLDA, Ra: 1, Rb: RegZero},
			dst:  Operand{Reg: 1}, has: true,
		},
		{
			name: "ADDQ t0, t1, t2 reads a and b, writes c",
			in:   Inst{Op: OpADDQ, Ra: 1, Rb: 2, Rc: 3},
			src:  []Operand{{Reg: 1, Slot: 'a'}, {Reg: 2, Slot: 'b'}},
			dst:  Operand{Reg: 3}, has: true,
		},
		{
			name: "ADDQ t0, #1, t2 with literal reads only a",
			in:   Inst{Op: OpADDQ, Ra: 1, Rc: 3, Lit: 1, UseLit: true},
			src:  []Operand{{Reg: 1, Slot: 'a'}},
			dst:  Operand{Reg: 3}, has: true,
		},
		{
			name: "CMOVEQ also reads its destination",
			in:   Inst{Op: OpCMOVEQ, Ra: 1, Rb: 2, Rc: 3},
			src:  []Operand{{Reg: 1, Slot: 'a'}, {Reg: 2, Slot: 'b'}, {Reg: 3, Slot: 'c'}},
			dst:  Operand{Reg: 3}, has: true,
		},
		{
			name: "ADDT f1, f2, f3 is all-FP",
			in:   Inst{Op: OpADDT, Ra: 1, Rb: 2, Rc: 3},
			src:  []Operand{{Reg: 1, FP: true, Slot: 'a'}, {Reg: 2, FP: true, Slot: 'b'}},
			dst:  Operand{Reg: 3, FP: true}, has: true,
		},
		{
			name: "BNE t4 reads its test register, no destination",
			in:   Inst{Op: OpBNE, Ra: 5, Disp: -7},
			src:  []Operand{{Reg: 5, Slot: 'a'}},
			cbr:  true,
		},
		{
			name: "FBEQ reads an FP test register",
			in:   Inst{Op: OpFBEQ, Ra: 5},
			src:  []Operand{{Reg: 5, FP: true, Slot: 'a'}},
			cbr:  true,
		},
		{
			name: "BSR ra writes the return address",
			in:   Inst{Op: OpBSR, Ra: 26, Disp: 4},
			dst:  Operand{Reg: 26}, has: true,
		},
		{
			name: "BR zero discards the link (no destination)",
			in:   Inst{Op: OpBR, Ra: RegZero, Disp: 4},
		},
		{
			name: "JSR ra, (t12) reads the target, writes the link",
			in:   Inst{Op: OpJSR, Ra: 26, Rb: 27},
			src:  []Operand{{Reg: 27, Slot: 'b'}},
			dst:  Operand{Reg: 26}, has: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.in.Meta()
			if got := append([]Operand(nil), m.Sources()...); !reflect.DeepEqual(got, tc.src) && !(len(got) == 0 && len(tc.src) == 0) {
				t.Errorf("sources = %v, want %v", got, tc.src)
			}
			if m.HasDst != tc.has || (tc.has && m.Dst != tc.dst) {
				t.Errorf("dest = %v,%v, want %v,%v", m.Dst, m.HasDst, tc.dst, tc.has)
			}
			if m.Load != tc.load || m.Store != tc.store || m.CondBranch != tc.cbr {
				t.Errorf("flags load=%v store=%v condbr=%v, want %v/%v/%v",
					m.Load, m.Store, m.CondBranch, tc.load, tc.store, tc.cbr)
			}
		})
	}
}

// TestMetaConsistencyAllOps sweeps every opcode with several register
// patterns and checks the three views of operand metadata never disagree:
// Inst.Sources/Inst.Dest (the allocating API), Meta (the packed API), and
// DecodeMeta (the batch table the images cache).
func TestMetaConsistencyAllOps(t *testing.T) {
	patterns := []Inst{
		{Ra: 1, Rb: 2, Rc: 3},
		{Ra: 31, Rb: 31, Rc: 31}, // all-zero registers: no deps
		{Ra: 7, Rb: 7, Rc: 7},    // aliased registers
		{Ra: 4, Rb: 9, Rc: 12, Lit: 63, UseLit: true},
	}
	for op := 0; op < NumOps; op++ {
		var code []Inst
		for _, p := range patterns {
			p.Op = Op(op)
			code = append(code, p)
		}
		table := DecodeMeta(code)
		for i, in := range code {
			m := in.Meta()
			if table[i] != m {
				t.Fatalf("%v: DecodeMeta[%d] = %+v, Meta = %+v", in.Op, i, table[i], m)
			}
			want := in.Sources()
			got := m.Sources()
			if len(got) != len(want) {
				t.Fatalf("%v: Meta sources %v, Inst.Sources %v", in.Op, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v: Meta sources %v, Inst.Sources %v", in.Op, got, want)
				}
			}
			d, ok := in.Dest()
			if ok != m.HasDst || (ok && d != m.Dst) {
				t.Fatalf("%v: Meta dest %v,%v, Inst.Dest %v,%v", in.Op, m.Dst, m.HasDst, d, ok)
			}
			// Flags must agree with the opcode classification helpers.
			if m.Load != in.Op.IsLoad() || m.Store != in.Op.IsStore() || m.CondBranch != in.Op.IsCondBranch() {
				t.Fatalf("%v: flags load=%v store=%v condbr=%v disagree with Op helpers",
					in.Op, m.Load, m.Store, m.CondBranch)
			}
			// Zero registers never appear as a dependency endpoint.
			for _, s := range got {
				if s.Reg == RegZero {
					t.Fatalf("%v: zero register reported as source", in.Op)
				}
			}
			if m.HasDst && m.Dst.Reg == RegZero {
				t.Fatalf("%v: zero register reported as destination", in.Op)
			}
		}
	}
}
