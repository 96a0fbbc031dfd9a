package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/expo"
)

func startFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := Start(Options{Dir: t.TempDir(), Machines: 2, Seed: 5, Scale: 0.05, FaultMachine: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v %s", url, resp.StatusCode, err, body)
	}
	return body
}

func listing(t *testing.T, url string) []expo.EpochInfo {
	t.Helper()
	var ep expo.EpochsPayload
	if err := json.Unmarshal(get(t, url), &ep); err != nil {
		t.Fatal(err)
	}
	return ep.Epochs
}

// After k AdvanceEpoch calls every machine serves epochs 1..k sealed and
// k+1 open, and /epochs?after=k-1 lists exactly the last two: the protocol
// the collector's high-water mark relies on.
func TestAdvanceEpochServesSealedEpochs(t *testing.T) {
	const k = 3
	f := startFleet(t)
	if err := f.AdvanceEpochs(k); err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != k {
		t.Fatalf("Epoch() = %d, want %d", f.Epoch(), k)
	}
	var want []expo.EpochInfo
	for e := 1; e <= k+1; e++ {
		want = append(want, expo.EpochInfo{Epoch: e, Sealed: e <= k})
	}
	for _, m := range f.Machines {
		if got := listing(t, m.URL+"/epochs"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s /epochs: %+v, want %+v", m.Name, got, want)
		}
		url := fmt.Sprintf("%s/epochs?after=%d", m.URL, k-1)
		if got := listing(t, url); !reflect.DeepEqual(got, want[k-1:]) {
			t.Errorf("%s /epochs?after=%d: %+v, want %+v", m.Name, k-1, got, want[k-1:])
		}
	}
}

// Two fleets built with the same seed serve the same bytes: machine m at
// epoch e always produces the same counts.
func TestSameSeedSameProfiles(t *testing.T) {
	const k = 2
	a, b := startFleet(t), startFleet(t)
	for _, f := range []*Fleet{a, b} {
		if err := f.AdvanceEpochs(k); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range a.Machines {
		path := fmt.Sprintf("/profiles?epoch=%d&procs=1", k)
		x, y := get(t, m.URL+path), get(t, b.Machines[i].URL+path)
		if !strings.Contains(string(x), `"procs"`) {
			t.Errorf("%s %s has no per-procedure breakdown: %.200s", m.Name, path, x)
		}
		if string(x) != string(y) {
			t.Errorf("%s %s differs between two fleets of one seed:\n%s\n%s", m.Name, path, x, y)
		}
	}
}
