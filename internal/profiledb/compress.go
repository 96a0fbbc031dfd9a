package profiledb

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"

	"dcpi/internal/sim"
	"dcpi/internal/wire"
)

// The paper (§4.3.3) notes: "we have also designed an improved format that
// can compress existing profiles by approximately a factor of three." This
// file implements that improved format as version 2: the same delta-varint
// payload, DEFLATE-compressed. WriteCompressed/DecodeProfile interoperate with
// the version-1 reader transparently.

// VersionCompressed marks the compressed file format.
const VersionCompressed = 2

// WriteCompressed encodes the profile in the compressed (version 2) format:
// the common header, the payload's uncompressed size, then the version-1
// payload (path + delta-varint pairs) DEFLATE-compressed.
func (p *Profile) WriteCompressed(w io.Writer) error {
	var payload wire.Enc
	p.encodePayload(&payload)
	hdr := wire.Enc{B: appendHeader(nil, VersionCompressed, p.Event)}
	hdr.Count(len(payload.B))
	if _, err := w.Write(hdr.B); err != nil {
		return err
	}
	fw, err := flate.NewWriter(w, flate.BestCompression)
	if err != nil {
		return err
	}
	if _, err := fw.Write(payload.B); err != nil {
		return err
	}
	return fw.Close()
}

// readCompressed decodes the version-2 payload after the common header. The
// declared size is untrusted (17 bytes of file can claim a gigabyte), so the
// buffer grows with what the stream actually yields, and a stream that
// yields fewer or more bytes than declared is rejected.
func readCompressed(d *wire.Dec, ev sim.Event) (*Profile, error) {
	rawLen := d.Uvarint()
	if d.Err != nil {
		return nil, fmt.Errorf("profiledb: reading payload size: %w", d.Err)
	}
	if rawLen > 1<<30 {
		return nil, errors.New("profiledb: unreasonable payload size")
	}
	fr := flate.NewReader(bytes.NewReader(d.B))
	defer fr.Close()
	payload, err := io.ReadAll(io.LimitReader(fr, int64(rawLen)+1))
	if err != nil {
		return nil, fmt.Errorf("profiledb: decompressing: %w", err)
	}
	if uint64(len(payload)) != rawLen {
		return nil, fmt.Errorf("profiledb: inflated payload does not match the %d bytes the header declares", rawLen)
	}
	return decodePayload(&wire.Dec{B: payload}, ev)
}

// decodePayload parses path + pairs (shared by both formats). The pair count
// is bounded by the bytes that remain (two varints a pair); the writer emits
// strictly ascending offsets, so a repeated or wrapping one is corruption.
func decodePayload(d *wire.Dec, ev sim.Event) (*Profile, error) {
	path := d.Str()
	if len(path) > 1<<16 {
		return nil, errors.New("profiledb: image path too long")
	}
	n := d.Count(2)
	p := &Profile{ImagePath: path, Event: ev, Counts: make(map[uint64]uint64, n)}
	var off uint64
	for i := 0; i < n && d.Err == nil; i++ {
		delta, count := d.Uvarint(), d.Uvarint()
		if (delta == 0 && i > 0) || off+delta < off {
			d.Fail(fmt.Errorf("offsets not strictly ascending at pair %d", i))
		}
		off += delta
		p.Counts[off] = count
	}
	if d.Err != nil {
		return nil, fmt.Errorf("profiledb: decoding profile: %w", d.Err)
	}
	return p, nil
}
