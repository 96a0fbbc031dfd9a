package eval

import (
	"bytes"
	"os"
	"testing"

	"dcpi/internal/driver"
)

// TestAblationMatchesEvalOutput pins the §5.4 section of the committed
// eval_output.txt byte for byte, header and framing included, through the
// same Select and Run that dcpieval prints it with. That section is produced
// at the default scale 0.25, and the ablation raises any smaller scale to
// 0.25 with a fixed seed, so the tiny options replay the very same trace.
func TestAblationMatchesEvalOutput(t *testing.T) {
	golden, err := os.ReadFile("../../eval_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	Run(tiny, Select(false, 0, 0, "ht"), func(_ Section, out []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = out
	})
	header, _, _ := bytes.Cut(got, []byte("\n"))
	start := bytes.Index(golden, header)
	if start < 0 {
		t.Fatalf("eval_output.txt has no %q section", header)
	}
	want := golden[start:]
	end := bytes.Index(want[len(header):], []byte("\n===="))
	if end < 0 {
		t.Fatal("eval_output.txt: the §5.4 section is not followed by another section")
	}
	want = want[:len(header)+end+1]
	if !bytes.Equal(got, want) {
		t.Errorf("§5.4 ablation differs from eval_output.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAblationShippingRowIsTheDriver: the sweep's shipping row counts what
// the shipping driver counts when the same trace is recorded on one CPU
// with the sweep's bucket count.
func TestAblationShippingRowIsTheDriver(t *testing.T) {
	res, err := AblationHT(tiny)
	if err != nil {
		t.Fatal(err)
	}
	var ship *AblationRow
	for i := range res.Rows {
		if res.Rows[i].Label == "4-way round-robin (shipping)" {
			ship = &res.Rows[i]
		}
	}
	if ship == nil {
		t.Fatal("no shipping row")
	}
	trace, err := ablationTrace(tiny.withDefaults(), res.Workload)
	if err != nil {
		t.Fatal(err)
	}
	d := driver.New(driver.Config{NumCPUs: 1, Buckets: 512, ZeroCost: true})
	for _, s := range trace {
		d.Record(0, s.PID, s.PC, s.Event)
	}
	st := d.Stats(0)
	if st.Samples != uint64(res.TraceLength) ||
		ship.Stats.Hits != st.Hits || ship.Stats.Misses != st.Misses || ship.Stats.Evictions != st.Evictions {
		t.Errorf("shipping row hits/misses/evictions %d/%d/%d, driver %d/%d/%d over %d of %d samples",
			ship.Stats.Hits, ship.Stats.Misses, ship.Stats.Evictions,
			st.Hits, st.Misses, st.Evictions, st.Samples, res.TraceLength)
	}
}
