package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildFixedTrace emits a deterministic event sequence covering every
// phase the pipeline uses: metadata, slices, instants, and counters.
func buildFixedTrace() *Tracer {
	tr := NewTracer(16)
	tr.NameProcess(PIDDriver, "driver (interrupt handler)")
	tr.NameThread(PIDDriver, 0, "cpu0")
	tr.NameProcess(PIDDaemon, "daemon (user-mode)")
	tr.Slice("driver", "intr:hit", PIDDriver, 0, 61440, 420, nil)
	tr.Slice("driver", "intr:evict", PIDDriver, 0, 122880, 700, nil)
	tr.Instant("driver", "overflow_swap", PIDDriver, 0, 122881, map[string]any{"entries": 8192})
	tr.Slice("daemon", "process:drain", PIDDaemon, 0, 2000000, 12800, map[string]any{"entries": 16})
	tr.Counter("daemon", "daemon_memory", PIDDaemon, 2012800, map[string]float64{"bytes": 4096})
	tr.Instant("db", "epoch_flush", PIDDB, 0, 4000000, map[string]any{"epoch": 1, "profiles": 3})
	return tr
}

// TestTraceGolden locks the emitted Chrome-trace JSON down to the byte:
// the format is an interchange contract with Perfetto, so accidental
// drift should fail loudly. Regenerate with -update-golden after a
// deliberate format change.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// chromeTrace mirrors the Chrome trace format's JSON object form; the
// required per-event fields are validated by ValidateChromeTrace.
type chromeTrace struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

// validateChromeTrace parses data as Chrome trace format and checks every
// event carries the required fields with the right JSON types. Shared with
// the CLI artifact test via this package's export_test-style helper.
func validateChromeTrace(t *testing.T, data []byte) chromeTrace {
	t.Helper()
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	for i, ev := range ct.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d: missing ph: %v", i, ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d: missing name: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d: missing pid: %v", i, ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event %d: missing dur: %v", i, ev)
			}
			fallthrough
		case "i", "C":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d: missing ts: %v", i, ev)
			}
		case "M":
			// metadata carries args.name
			args, ok := ev["args"].(map[string]any)
			if !ok {
				t.Fatalf("metadata event %d: missing args: %v", i, ev)
			}
			if _, ok := args["name"].(string); !ok {
				t.Fatalf("metadata event %d: args.name missing: %v", i, ev)
			}
		}
	}
	return ct
}

func TestTraceIsValidChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ct := validateChromeTrace(t, buf.Bytes())
	if len(ct.TraceEvents) != 9 {
		t.Errorf("events = %d, want 9 (3 metadata + 6 recorded)", len(ct.TraceEvents))
	}
}

// TestTracerCapDropsBeyondCapacity: the buffer must bound memory and count
// what it discarded.
func TestTracerCapDropsBeyondCapacity(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Instant("x", "e", 1, 0, int64(i), nil)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.OtherData["dropped_events"] != "6" {
		t.Errorf("otherData.dropped_events = %q, want \"6\"", out.OtherData["dropped_events"])
	}
}

// TestTracerConcurrent verifies the tracer under parallel emitters; the
// race detector sees it in scripts/ci.sh (go test -race ./...).
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(100_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Slice("c", "e", PIDRunner, w, int64(i), 1, nil)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 8000 {
		t.Errorf("Len = %d, want 8000", tr.Len())
	}
}

// TestNilTracer: all methods must be inert on nil.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Slice("a", "b", 1, 0, 0, 1, nil)
	tr.Instant("a", "b", 1, 0, 0, nil)
	tr.Counter("a", "b", 1, 0, nil)
	tr.NameProcess(1, "x")
	tr.NameThread(1, 0, "y")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Error("nil tracer not inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}
