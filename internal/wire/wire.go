// Package wire is the one cursor under every binary format in this
// repository (profiledb .prof, the dcpi snapshot, runcache entries, tsdb
// segments and blocks): varints, single bytes and length-prefixed byte
// strings, appended to or consumed from a []byte.
//
// Enc appends, so encoding has no error path. Dec keeps the first error and
// returns zero values after it, so a decoder reads a whole record and checks
// once; and it bounds every count by the bytes that remain, so nothing read
// from an untrusted file can size an allocation larger than the file. Magics,
// versions and checksums belong to the formats, not to this package.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Enc appends encoded fields to B.
type Enc struct{ B []byte }

// Uvarint appends v in unsigned LEB128 form.
func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }

// Varint appends v in zig-zag signed LEB128 form.
func (e *Enc) Varint(v int64) { e.B = binary.AppendVarint(e.B, v) }

// Count appends a length or element count (what Dec.Count reads back).
func (e *Enc) Count(n int) { e.Uvarint(uint64(n)) }

// Byte appends one byte.
func (e *Enc) Byte(b byte) { e.B = append(e.B, b) }

// Bytes appends b prefixed by its length.
func (e *Enc) Bytes(b []byte) {
	e.Count(len(b))
	e.B = append(e.B, b...)
}

// Str appends s prefixed by its length.
func (e *Enc) Str(s string) {
	e.Count(len(s))
	e.B = append(e.B, s...)
}

// Dec consumes encoded fields from the front of B. Err is the first failure;
// once it is set every read returns zero and consumes nothing.
type Dec struct {
	B   []byte
	Err error
}

var errTruncated = errors.New("truncated or overlong varint")

// Fail records err as the decode's failure unless an earlier one stands, so
// a codec's own validation errors stop the reads that follow them.
func (d *Dec) Fail(err error) {
	if d.Err == nil {
		d.Err = err
	}
}

// Uvarint reads an unsigned LEB128 value.
func (d *Dec) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.Err = errTruncated
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Varint reads a zig-zag signed LEB128 value.
func (d *Dec) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.B)
	if n <= 0 {
		d.Err = errTruncated
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if b := d.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Raw reads the next n bytes, aliasing B; nil on failure.
func (d *Dec) Raw(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || n > len(d.B) {
		d.Err = fmt.Errorf("field of %d bytes exceeds the %d that remain", n, len(d.B))
		return nil
	}
	b := d.B[:n:n]
	d.B = d.B[n:]
	return b
}

// Count reads the number of elements that follow, each at least width (>= 1)
// bytes long on the wire, and fails if the bytes that remain cannot hold
// them: the result never exceeds len(B)/width, so it is safe to allocate by.
func (d *Dec) Count(width int) int {
	n := d.Uvarint()
	if d.Err == nil && n > uint64(len(d.B)/width) {
		d.Err = fmt.Errorf("count %d exceeds the %d bytes that remain", n, len(d.B))
	}
	if d.Err != nil {
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing B.
func (d *Dec) Bytes() []byte { return d.Raw(d.Count(1)) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// Done returns the decode's first error, or an error if input remains.
func (d *Dec) Done() error {
	if d.Err == nil && len(d.B) != 0 {
		d.Err = fmt.Errorf("%d trailing bytes", len(d.B))
	}
	return d.Err
}
