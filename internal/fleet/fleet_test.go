package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcpi/internal/expo"
	"dcpi/internal/par"
	"dcpi/internal/profiledb"
)

func startFleet(t *testing.T, machines int) *Fleet {
	t.Helper()
	f, err := Start(Options{Dir: t.TempDir(), Machines: machines, Seed: 5, Scale: 0.05, FaultMachine: -1})
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
	f := startFleet(t, 2)
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
// epoch e always produces the same counts. And the bytes are pinned: the
// SHA-256 over each machine's name and per-procedure /profiles body is
// testdata/profiles_procs.sha256, so a change to how a profile is divided
// among procedures, or to what the template machines sample, moves it.
func TestSameSeedSameProfiles(t *testing.T) {
	const k = 2
	a, b := startFleet(t, 2), startFleet(t, 2)
	for _, f := range []*Fleet{a, b} {
		if err := f.AdvanceEpochs(k); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	for i, m := range a.Machines {
		path := fmt.Sprintf("/profiles?epoch=%d&procs=1", k)
		x, y := get(t, m.URL+path), get(t, b.Machines[i].URL+path)
		fmt.Fprintf(h, "%s %s %d\n", m.Name, path, len(x))
		h.Write(x)
		if !strings.Contains(string(x), `"procs"`) {
			t.Errorf("%s %s has no per-procedure breakdown: %.200s", m.Name, path, x)
		}
		if string(x) != string(y) {
			t.Errorf("%s %s differs between two fleets of one seed:\n%s\n%s", m.Name, path, x, y)
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "profiles_procs.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), strings.TrimSpace(string(raw)); got != want {
		t.Errorf("per-procedure /profiles digest %s, want %s (testdata/profiles_procs.sha256)", got, want)
	}
}

// files reads every file under dir, keyed by its path below dir.
func files(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Machines seal concurrently, and a fleet sealed with every budget slot
// held (so on the caller alone) and one sealed with the budget free leave
// the same bytes in every machine's database, each held to the checker.
func TestConcurrentSealMatchesSerial(t *testing.T) {
	const k, machines = 5, 6
	var fleets [2]*Fleet
	for i, leg := range []string{"serial", "concurrent"} {
		fleets[i] = startFleet(t, machines)
		held := 0
		if leg == "serial" {
			held = par.Default().Total()
		}
		par.Default().Acquire(held)
		err := fleets[i].AdvanceEpochs(k)
		par.Default().Release(held)
		if err != nil {
			t.Fatal(err)
		}
		if w := fleets[i].lastWorkers; leg == "serial" && w != 1 || leg == "concurrent" && w < 2 {
			t.Errorf("%s leg sealed on %d goroutines", leg, w)
		}
		if _, err := fleets[i].Check(scrape(t, fleets[i], k), Query{}); err != nil {
			t.Errorf("%s: %v", leg, err)
		}
	}
	for i, m := range fleets[0].Machines {
		serial, concurrent := files(t, m.DBDir), files(t, fleets[1].Machines[i].DBDir)
		if len(serial) == 0 || !reflect.DeepEqual(serial, concurrent) {
			t.Errorf("%s: %d files sealed serially, %d concurrently, or their bytes differ", m.Name, len(serial), len(concurrent))
		}
	}
}

// A machine that fails to seal does not hide behind the others: its error
// comes back through the joined one, naming it.
func TestAdvanceEpochJoinsErrors(t *testing.T) {
	f := startFleet(t, 3)
	bad := f.Machines[1]
	ro, err := profiledb.OpenReader(bad.DBDir)
	if err != nil {
		t.Fatal(err)
	}
	bad.db = ro // every Update now fails
	err = f.AdvanceEpoch()
	if err == nil || !strings.Contains(err.Error(), bad.Name+" epoch 1") {
		t.Fatalf("AdvanceEpoch with %s read-only: %v", bad.Name, err)
	}
	for _, m := range f.Machines {
		if m != bad && !listing(t, m.URL+"/epochs")[0].Sealed {
			t.Errorf("%s did not seal epoch 1 beside the failing %s", m.Name, bad.Name)
		}
	}
}
