package collect

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"dcpi/internal/tsdb"
)

// Answer is a query reply the API writes: RangeResponse, TopResponse,
// TopProcsResponse or DeltaResponse. Each appends its own JSON, so no
// answer goes through reflection on its way to a client.
type Answer interface {
	appendJSON(w *answerWriter)
}

// errNonFinite marks an answer holding a float that JSON cannot carry.
var errNonFinite = errors.New("answer holds a non-finite number")

// answerWriter appends one answer in exactly the bytes encoding/json's
// Encoder writes with SetIndent("", "  "): two-space indent, one member
// per line, a trailing newline. The struct tags on the answer types name
// the same keys for decoders; FuzzAnswerJSON holds the two to each other.
type answerWriter struct {
	b     []byte
	depth int
	err   error
}

var answerWriters = sync.Pool{New: func() any { return new(answerWriter) }}

// WriteAnswer writes a to w as the API's JSON body in one Write. An answer
// holding a NaN or an infinity is an error naming the field, and nothing
// is written.
func WriteAnswer(w io.Writer, a Answer) error {
	aw := answerWriters.Get().(*answerWriter)
	defer answerWriters.Put(aw)
	aw.b, aw.depth, aw.err = aw.b[:0], 0, nil
	a.appendJSON(aw)
	if aw.err != nil {
		return aw.err
	}
	aw.b = append(aw.b, '\n')
	_, err := w.Write(aw.b)
	return err
}

// open starts an object or an array, and close ends it on a line of its
// own; newline indents the next line. The answers nest three deep at most.
func (w *answerWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

func (w *answerWriter) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
}

func (w *answerWriter) newline() { w.b = append(w.b, "\n      "[:1+2*w.depth]...) }

// next starts a member of the innermost object or array on its own line,
// after a comma unless it is the first.
func (w *answerWriter) next() {
	if c := w.b[len(w.b)-1]; c != '{' && c != '[' {
		w.b = append(w.b, ',')
	}
	w.newline()
}

// key starts an object member; keys are plain ASCII.
func (w *answerWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *answerWriter) uint(k string, v uint64) {
	w.key(k)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *answerWriter) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

// float writes v as encoding/json does: shortest form, exponent notation
// outside [1e-6, 1e21), and a two-digit negative exponent trimmed to one.
func (w *answerWriter) float(k string, v float64) {
	w.key(k)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("%w: %s is %v", errNonFinite, k, v)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// str writes v raw when every byte is printable ASCII that encoding/json
// leaves alone, and through json.Marshal otherwise, which escapes HTML,
// U+2028/U+2029 and invalid UTF-8 as the reference does.
func (w *answerWriter) str(k, v string) {
	w.key(k)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(v)
			w.b = append(w.b, quoted...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, v...)
	w.b = append(w.b, '"')
}

// rows writes the rows member: null for nil, [] for none, otherwise one
// object per row, each member written by row.
func rows[R any](w *answerWriter, rs []R, row func(*answerWriter, *R)) {
	w.key("rows")
	switch {
	case rs == nil:
		w.b = append(w.b, "null"...)
	case len(rs) == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.open('[')
		for i := range rs {
			w.next()
			w.open('{')
			row(w, &rs[i])
			w.close('}')
		}
		w.close(']')
	}
}

// window writes the event and epoch window every range and top answer
// carries.
func (w *answerWriter) window(event string, from, to uint64) {
	w.str("event", event)
	w.uint("from_epoch", from)
	w.uint("to_epoch", to)
}

// ranked writes the members a ranking row shares: TopRow and ProcRow
// differ only in the name of their first key.
func (w *answerWriter) ranked(key, name string, samples uint64, cycles, share float64) {
	w.str(key, name)
	w.uint("samples", samples)
	w.float("cycles", cycles)
	w.float("share_pct", share)
}

func (r RangeResponse) appendJSON(w *answerWriter) {
	w.open('{')
	w.str("image", r.Image)
	if r.Proc != "" {
		w.str("proc", r.Proc)
	}
	w.window(r.Event, r.FromEpoch, r.ToEpoch)
	rows(w, r.Rows, func(w *answerWriter, x *tsdb.RangeRow) {
		w.uint("epoch", x.Epoch)
		w.int("machines", x.Machines)
		w.uint("samples", x.Samples)
		w.float("cycles", x.Cycles)
		w.uint("insts", x.Insts)
		w.float("cpi", x.CPI)
		w.float("share_pct", x.SharePct)
	})
	w.close('}')
}

func (r TopResponse) appendJSON(w *answerWriter) {
	w.open('{')
	w.window(r.Event, r.FromEpoch, r.ToEpoch)
	rows(w, r.Rows, func(w *answerWriter, x *tsdb.TopRow) {
		w.ranked("image", x.Image, x.Samples, x.Cycles, x.SharePct)
	})
	w.close('}')
}

func (r TopProcsResponse) appendJSON(w *answerWriter) {
	w.open('{')
	w.str("image", r.Image)
	w.window(r.Event, r.FromEpoch, r.ToEpoch)
	rows(w, r.Rows, func(w *answerWriter, x *tsdb.ProcRow) {
		w.ranked("proc", x.Proc, x.Samples, x.Cycles, x.SharePct)
	})
	w.close('}')
}

func (r DeltaResponse) appendJSON(w *answerWriter) {
	w.open('{')
	w.str("event", r.Event)
	w.uint("a_from", r.AFrom)
	w.uint("a_to", r.ATo)
	w.uint("b_from", r.BFrom)
	w.uint("b_to", r.BTo)
	rows(w, r.Rows, func(w *answerWriter, x *DeltaRow) {
		w.str("image", x.Image)
		w.float("before_pct", x.BeforePct)
		w.float("after_pct", x.AfterPct)
		w.float("delta_pct", x.DeltaPct)
	})
	w.close('}')
}
