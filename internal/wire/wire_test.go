package wire

import (
	"bytes"
	"strings"
	"testing"
)

// Every field kind written by Enc reads back through Dec, in order, with
// nothing left over.
func TestRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 1 << 32, ^uint64(0)}
	ivals := []int64{0, -1, 1, -64, 64, 1 << 40, -(1 << 40)}
	var e Enc
	e.B = append(e.B, "MAGIC"...)
	for _, v := range uvals {
		e.Uvarint(v)
	}
	for _, v := range ivals {
		e.Varint(v)
	}
	e.Byte(0xfe)
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.Str("héllo")
	e.Count(3)
	e.B = append(e.B, 7, 8, 9)

	d := Dec{B: e.B}
	if got := d.Raw(5); string(got) != "MAGIC" {
		t.Errorf("Raw = %q", got)
	}
	for _, want := range uvals {
		if got := d.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range ivals {
		if got := d.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	if got := d.Byte(); got != 0xfe {
		t.Errorf("Byte = %#x", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := d.Str(); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Count(1); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "3 trailing bytes") {
		t.Errorf("Done with 3 bytes unread = %v", err)
	}
	d = Dec{B: e.B[len(e.B)-3:]}
	d.Raw(3)
	if err := d.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// The first failure sticks: later reads return zero and consume nothing,
// and Fail cannot replace it.
func TestStickyError(t *testing.T) {
	for name, in := range map[string][]byte{
		"truncated varint": {0x80},
		"overlong varint":  bytes.Repeat([]byte{0xff}, 11),
		"empty":            nil,
	} {
		d := Dec{B: in}
		if v := d.Uvarint(); v != 0 || d.Err == nil {
			t.Errorf("%s: Uvarint = %d, err %v; want 0 and an error", name, v, d.Err)
		}
		first, left := d.Err, len(d.B)
		d.Fail(bytes.ErrTooLarge)
		if d.Uvarint() != 0 || d.Varint() != 0 || d.Byte() != 0 || d.Raw(0) != nil ||
			d.Count(1) != 0 || d.Bytes() != nil || d.Str() != "" {
			t.Errorf("%s: a read after the failure returned data", name)
		}
		if d.Err != first || len(d.B) != left || d.Done() != first {
			t.Errorf("%s: failure %v with %d bytes became %v with %d", name, first, left, d.Err, len(d.B))
		}
	}
}

// A count is bounded by the bytes that remain at the given element width.
func TestCountBounds(t *testing.T) {
	var e Enc
	e.Count(4)
	e.B = append(e.B, make([]byte, 12)...)
	for width, ok := range map[int]bool{1: true, 3: true, 4: false, 6: false} {
		d := Dec{B: e.B}
		n := d.Count(width)
		if ok && (n != 4 || d.Err != nil) {
			t.Errorf("Count(%d) = %d, %v; want 4", width, n, d.Err)
		}
		if !ok && (n != 0 || d.Err == nil || !strings.Contains(d.Err.Error(), "exceeds")) {
			t.Errorf("Count(%d) = %d, %v; want a bounds error", width, n, d.Err)
		}
	}
	var huge Enc
	huge.Uvarint(1 << 62)
	d := Dec{B: huge.B}
	if b := d.Bytes(); b != nil || d.Err == nil {
		t.Errorf("Bytes with a 2^62 length = %v, %v", b, d.Err)
	}
}

// FuzzDec drives a Dec over arbitrary bytes with an arbitrary sequence of
// reads: it must not panic, Count(w) must never exceed len(B)/w, a read must
// never grow B, and after the first error every read returns zero. The
// committed corpus (testdata/fuzz) walks the other packages' fixture files
// the way their codecs do, plus truncated, overlong and oversized varints.
func FuzzDec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		d := Dec{B: data}
		for _, op := range ops {
			failed, before := d.Err != nil, len(d.B)
			zero := true
			switch op % 7 {
			case 0:
				zero = d.Uvarint() == 0
			case 1:
				zero = d.Varint() == 0
			case 2:
				width := int(op/7) + 1
				n := d.Count(width)
				if n < 0 || n > len(d.B)/width {
					t.Fatalf("Count(%d) = %d with %d bytes left", width, n, len(d.B))
				}
				zero = n == 0
			case 3:
				zero = d.Byte() == 0
			case 4:
				zero = d.Raw(int(op/7)-2) == nil
			case 5:
				zero = d.Bytes() == nil
			case 6:
				zero = d.Str() == ""
			}
			if len(d.B) > before {
				t.Fatalf("op %d grew the input from %d to %d bytes", op, before, len(d.B))
			}
			if failed && (!zero || len(d.B) != before) {
				t.Fatalf("op %d after an error returned data or consumed input", op)
			}
		}
		if err := d.Done(); err == nil && len(d.B) != 0 {
			t.Fatal("Done passed with input left")
		}
	})
}
