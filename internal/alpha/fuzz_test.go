package alpha

import "testing"

// FuzzInstDecode builds instructions from arbitrary field values (the
// opcode clamped into range — there is no binary word format; the
// assembler is the only instruction source) and checks the metadata
// contract: Meta never panics, its packed InstMeta agrees exactly with
// the Sources/Dest views and with the pre-decoded DecodeMeta table the
// simulator hot path uses, and the zero register never appears as an
// operand. It then executes the instruction against a small map memory and
// holds the Outcome to the metadata: the simulator's issue probe decides
// memory feasibility from Meta, and its data path acts on the Outcome.
func FuzzInstDecode(f *testing.F) {
	f.Add(byte(0), byte(0), byte(0), byte(0), int32(0), byte(0), false, uint16(0))
	f.Add(byte(OpLDQ), byte(1), byte(2), byte(3), int32(16), byte(0), false, uint16(0))
	f.Add(byte(OpSTQ), byte(1), byte(31), byte(0), int32(-8), byte(0), false, uint16(0))
	f.Add(byte(OpADDQ), byte(4), byte(5), byte(6), int32(0), byte(7), true, uint16(0))
	f.Add(byte(OpBNE), byte(9), byte(0), byte(0), int32(-3), byte(0), false, uint16(0))
	f.Add(byte(OpJSR), byte(26), byte(27), byte(0), int32(0), byte(0), false, uint16(0))
	f.Add(byte(OpCMOVEQ), byte(1), byte(2), byte(3), int32(0), byte(0), false, uint16(0))
	f.Add(byte(OpADDT), byte(1), byte(2), byte(3), int32(0), byte(0), false, uint16(0))

	f.Fuzz(func(t *testing.T, op, ra, rb, rc byte, disp int32, lit byte, useLit bool, pal uint16) {
		in := Inst{
			Op:     Op(int(op) % NumOps),
			Ra:     ra % 32,
			Rb:     rb % 32,
			Rc:     rc % 32,
			Disp:   disp,
			Lit:    lit,
			UseLit: useLit,
			Pal:    pal,
		}
		m := in.Meta()
		if int(m.NSrc) > len(m.Src) {
			t.Fatalf("NSrc = %d overflows the packed array", m.NSrc)
		}
		srcs := in.Sources()
		if len(srcs) != int(m.NSrc) {
			t.Fatalf("Sources() returned %d operands, Meta says %d", len(srcs), m.NSrc)
		}
		for i, s := range srcs {
			if s != m.Src[i] {
				t.Errorf("source %d: Sources() %+v != Meta %+v", i, s, m.Src[i])
			}
			if s.Reg == RegZero {
				t.Errorf("zero register reported as a source of %v", in.Op)
			}
		}
		d, ok := in.Dest()
		if ok != m.HasDst || d != m.Dst {
			t.Errorf("Dest() (%+v, %t) != Meta (%+v, %t)", d, ok, m.Dst, m.HasDst)
		}
		if ok && d.Reg == RegZero {
			t.Errorf("zero register reported as destination of %v", in.Op)
		}
		if tbl := DecodeMeta([]Inst{in}); tbl[0] != m {
			t.Errorf("DecodeMeta disagrees with Meta for %+v", in)
		}
		if m.Load && m.Store {
			t.Errorf("%v classified as both load and store", in.Op)
		}
		if m.Load && !in.Op.IsLoad() {
			t.Errorf("%v marked Load but IsLoad is false", in.Op)
		}
		if m.Store && !in.Op.IsStore() {
			t.Errorf("%v marked Store but IsStore is false", in.Op)
		}
		if m.CondBranch != in.Op.IsCondBranch() {
			t.Errorf("%v CondBranch=%t, IsCondBranch=%t", in.Op, m.CondBranch, in.Op.IsCondBranch())
		}

		var regs Regs
		for r := range regs.I {
			regs.I[r] = uint64(int64(disp))*uint64(r+1) ^ uint64(lit)<<(r%57)
			regs.F[r] = regs.I[r] ^ 0x4000000000000000
		}
		out := Outcome{NextPC: 1, MemAddr: 2, Pal: 3, MemSize: 4, MemIsStore: true, Taken: true, Kind: KindIllegal}
		Execute(&in, 0x1000, &regs, flatMem{}, &out)
		if (out.MemSize != 0) != (m.Load || m.Store) || out.MemIsStore != m.Store {
			t.Errorf("%v: MemSize %d, MemIsStore %t; Meta says load %t, store %t", in.Op, out.MemSize, out.MemIsStore, m.Load, m.Store)
		}
		if out.MemSize != 0 && out.MemSize != 4 && out.MemSize != 8 {
			t.Errorf("%v: MemSize %d", in.Op, out.MemSize)
		}
		want := KindNone
		switch in.Op {
		case OpCALLPAL:
			want = KindPal
		case OpHALT:
			want = KindHalt
		case OpMB, OpWMB:
			want = KindBarrier
		case OpInvalid:
			want = KindIllegal
		}
		if out.Kind != want {
			t.Errorf("%v: outcome kind %d, want %d", in.Op, out.Kind, want)
		}
		if out.Kind == KindPal && out.Pal != pal {
			t.Errorf("call_pal %#x: outcome Pal %#x", pal, out.Pal)
		}
		if cl := in.Op.Class(); out.Taken && cl != ClassBranch && cl != ClassJump {
			t.Errorf("%v (class %v) reports a taken transfer", in.Op, cl)
		}
		if !out.Taken && out.NextPC != 0x1000+InstBytes {
			t.Errorf("%v not taken, but NextPC %#x", in.Op, out.NextPC)
		}
	})
}
