package expo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dcpi/internal/alpha"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

// buildDB writes two sealed epochs and one unsealed (in-progress) epoch.
func buildDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := profiledb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 2; e++ {
		p := profiledb.NewProfile("/usr/bin/app", sim.EvCycles)
		p.Add(0x40, uint64(100*e))
		p.Add(0x44, uint64(e))
		if err := db.Update(p); err != nil {
			t.Fatal(err)
		}
		if err := db.WriteMeta(profiledb.Meta{
			Workload:     "app",
			Mode:         "cycles",
			CyclesPeriod: 62000,
			WallCycles:   int64(1000000 * e),
			ImageInsts:   map[string]uint64{"/usr/bin/app": uint64(5000 * e)},
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.NewEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 3 exists but is unsealed: profiles, no meta.
	p := profiledb.NewProfile("/usr/bin/app", sim.EvCycles)
	p.Add(0x40, 7)
	if err := db.Update(p); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fullListing is buildDB's /epochs body with no after parameter.
const fullListing = `{"machine":"m00","workload":"app","epochs":[{"epoch":1,"sealed":true},{"epoch":2,"sealed":true},{"epoch":3,"sealed":false}]}
`

func TestExpositionEndpoints(t *testing.T) {
	dir := buildDB(t)
	reg := obs.NewRegistry()
	reg.Counter("test.scrapes").Add(3)
	src := &Source{
		Machine:  "m00",
		Workload: "app",
		DBDir:    dir,
		Registry: reg,
		Stats: func() StatsSnapshot {
			return StatsSnapshot{Machine: "m00", Workload: "app", Epoch: 3, Running: true}
		},
	}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	// /epochs: three epochs, first two sealed. Without after the body is
	// the full listing, in compact JSON.
	resp, body := get("/epochs")
	if resp.StatusCode != 200 {
		t.Fatalf("/epochs: %d %s", resp.StatusCode, body)
	}
	if body != fullListing {
		t.Errorf("/epochs body:\n%s\nwant:\n%s", body, fullListing)
	}

	// /epochs?after=N lists only the epochs above N; [] when none is.
	for _, tc := range []struct {
		after string
		want  []EpochInfo
	}{
		{"0", []EpochInfo{{1, true}, {2, true}, {3, false}}},
		{"1", []EpochInfo{{2, true}, {3, false}}},
		{"3", []EpochInfo{}},
	} {
		resp, body := get("/epochs?after=" + tc.after)
		var ep EpochsPayload
		if err := json.Unmarshal([]byte(body), &ep); err != nil || resp.StatusCode != 200 {
			t.Fatalf("/epochs?after=%s: %d %v %s", tc.after, resp.StatusCode, err, body)
		}
		if !reflect.DeepEqual(ep.Epochs, tc.want) {
			t.Errorf("/epochs?after=%s: %+v, want %+v", tc.after, ep.Epochs, tc.want)
		}
		if ep.Epochs == nil {
			t.Errorf("/epochs?after=%s lists null, not []: %s", tc.after, body)
		}
	}
	for _, bad := range []string{"-1", "x", ""} {
		if resp, body := get("/epochs?after=" + bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/epochs?after=%s: %d %s, want 400", bad, resp.StatusCode, body)
		}
	}

	// /profiles default: latest sealed epoch (2), with meta and insts.
	resp, body = get("/profiles")
	if resp.StatusCode != 200 {
		t.Fatalf("/profiles: %d %s", resp.StatusCode, body)
	}
	var pp ProfilesPayload
	if err := json.Unmarshal([]byte(body), &pp); err != nil {
		t.Fatal(err)
	}
	if pp.Epoch != 2 || !pp.Sealed || pp.Machine != "m00" {
		t.Errorf("/profiles header: %+v", pp)
	}
	if len(pp.Profiles) != 1 || pp.Profiles[0].Samples != 202 || pp.Profiles[0].Insts != 10000 {
		t.Errorf("/profiles records: %+v", pp.Profiles)
	}
	if pp.Meta == nil || pp.Meta.CyclesPeriod != 62000 {
		t.Errorf("/profiles meta: %+v", pp.Meta)
	}
	if pp.Profiles[0].Offsets != nil {
		t.Error("offsets included without ?full=1")
	}

	// Explicit epoch + full offsets.
	_, body = get("/profiles?epoch=1&full=1")
	if err := json.Unmarshal([]byte(body), &pp); err != nil {
		t.Fatal(err)
	}
	if pp.Epoch != 1 || len(pp.Profiles) != 1 {
		t.Fatalf("/profiles?epoch=1: %+v", pp)
	}
	wantOffs := [][2]uint64{{0x40, 100}, {0x44, 1}}
	if len(pp.Profiles[0].Offsets) != 2 || pp.Profiles[0].Offsets[0] != wantOffs[0] || pp.Profiles[0].Offsets[1] != wantOffs[1] {
		t.Errorf("full offsets: %+v", pp.Profiles[0].Offsets)
	}

	// Unsealed epoch is readable when asked for explicitly, marked so.
	_, body = get("/profiles?epoch=3")
	if err := json.Unmarshal([]byte(body), &pp); err != nil {
		t.Fatal(err)
	}
	if pp.Sealed || pp.Profiles[0].Samples != 7 {
		t.Errorf("unsealed epoch payload: %+v", pp)
	}

	// /stats round-trips the snapshot.
	_, body = get("/stats")
	var st StatsSnapshot
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Machine != "m00" || !st.Running {
		t.Errorf("/stats: %+v", st)
	}

	// /metrics flat text includes the counter; JSON form parses.
	_, body = get("/metrics")
	if !strings.Contains(body, "test.scrapes 3") {
		t.Errorf("/metrics flat: %q", body)
	}
	resp, body = get("/metrics?format=json")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics json: %v (%q)", err, body)
	}
	if snap.Counters["test.scrapes"] != 3 {
		t.Errorf("/metrics json counters: %+v", snap.Counters)
	}

	// /debug/pprof index answers.
	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/: %d", resp.StatusCode)
	}
}

// ?procs=1 divides each profile among its image's procedures. Samples at
// no procedure's offset, and every sample of a profile whose image the
// source cannot find (a per-process profile's "path#pid"), are "(unknown)",
// so each breakdown sums to the profile's samples.
func TestProfilesProcsBreakdown(t *testing.T) {
	im := image.New("app", "/usr/bin/app", image.KindExecutable, alpha.MustAssemble(`
first:
	nop
	addq t0, 1, t0
	ret (ra)
second:
	subq t0, 1, t0
	ret (ra)
`))
	dir := t.TempDir()
	db, err := profiledb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for path, counts := range map[string]map[uint64]uint64{
		"/usr/bin/app":   {0: 5, 6: 1, 8: 1, 12: 2, 16: 3, 40: 4},
		"/usr/bin/app#7": {0: 2, 12: 1},
	} {
		p := profiledb.NewProfile(path, sim.EvCycles)
		for off, n := range counts {
			p.Add(off, n)
		}
		if err := db.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	src := &Source{Machine: "m00", DBDir: dir, Image: func(path string) (*image.Image, bool) {
		return im, path == im.Path
	}}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/profiles?epoch=1&procs=1")
	if err != nil {
		t.Fatal(err)
	}
	var got ProfilesPayload
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/profiles?epoch=1&procs=1: %d %v", resp.StatusCode, err)
	}
	want := []ProfileRecord{
		{Image: "/usr/bin/app", Event: "cycles", Samples: 16,
			Procs: []ProcSample{{"(unknown)", 4}, {"first", 7}, {"second", 5}}},
		{Image: "/usr/bin/app#7", Event: "cycles", Samples: 3,
			Procs: []ProcSample{{"(unknown)", 3}}},
	}
	if !reflect.DeepEqual(got.Profiles, want) {
		t.Errorf("per-procedure profiles:\n%+v\nwant\n%+v", got.Profiles, want)
	}
}

func TestExpositionEmptyDB(t *testing.T) {
	src := &Source{Machine: "m00", DBDir: t.TempDir() + "/nonexistent"}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/profiles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/profiles on missing db: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	var ep EpochsPayload
	json.NewDecoder(resp.Body).Decode(&ep)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(ep.Epochs) != 0 {
		t.Errorf("/epochs on missing db: %d %+v", resp.StatusCode, ep)
	}
}

// A source created before its database has an epoch answers as an empty
// one until the first epoch appears, then opens its one handle. That
// handle's position is fixed at open, so every later epoch must still be
// found on disk, by probing or listing the directory.
func TestExpositionOpensOnFirstEpoch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	src := &Source{Machine: "m00", DBDir: dir}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	get := func(path string) (int, EpochsPayload, ProfilesPayload) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return 0, EpochsPayload{}, ProfilesPayload{}
		}
		defer resp.Body.Close()
		var ep EpochsPayload
		var pp ProfilesPayload
		if strings.HasPrefix(path, "/epochs") {
			json.NewDecoder(resp.Body).Decode(&ep)
		} else {
			json.NewDecoder(resp.Body).Decode(&pp)
		}
		return resp.StatusCode, ep, pp
	}
	if code, _, _ := get("/profiles?epoch=1"); code != http.StatusServiceUnavailable {
		t.Errorf("/profiles before the first epoch: %d, want 503", code)
	}
	if code, ep, _ := get("/epochs"); code != 200 || len(ep.Epochs) != 0 {
		t.Errorf("/epochs before the first epoch: %d %+v", code, ep)
	}

	db, err := profiledb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(samples uint64) {
		p := profiledb.NewProfile("/usr/bin/app", sim.EvCycles)
		p.Add(0x40, samples)
		if err := db.Update(p); err != nil {
			t.Fatal(err)
		}
		if err := db.WriteMeta(profiledb.Meta{Workload: "app"}); err != nil {
			t.Fatal(err)
		}
		if err := db.NewEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	seal(10)

	// Concurrent first requests: every one answers, one handle is kept.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if code, _, pp := get("/profiles"); code != 200 || pp.Epoch != 1 {
					t.Errorf("/profiles after the first epoch: %d epoch %d", code, pp.Epoch)
				}
			} else if code, ep, _ := get("/epochs"); code != 200 || len(ep.Epochs) != 2 {
				t.Errorf("/epochs after the first epoch: %d %+v", code, ep)
			}
		}(i)
	}
	wg.Wait()
	handle := src.db.Load()
	if handle == nil {
		t.Fatal("no handle kept after the first epoch")
	}

	seal(20)
	seal(30)
	if code, ep, _ := get("/epochs?after=2"); code != 200 ||
		!reflect.DeepEqual(ep.Epochs, []EpochInfo{{3, true}, {4, false}}) {
		t.Errorf("/epochs?after=2 on a grown database: %d %+v", code, ep.Epochs)
	}
	if code, _, pp := get("/profiles"); code != 200 || pp.Epoch != 3 || pp.Profiles[0].Samples != 30 {
		t.Errorf("/profiles on a grown database: %d %+v", code, pp)
	}
	if src.db.Load() != handle {
		t.Error("the source reopened its handle")
	}
}

// A scrape from the high-water mark costs the same at any uptime: on a
// database of k epochs, /epochs?after=k-1 probes epoch k and the missing
// k+1 and lists no directory, whether k is 10 or 400. Without after, or
// when epoch after+1 is missing, /epochs lists the root once.
func TestEpochsProbeIsFlatInUptime(t *testing.T) {
	for _, k := range []int{10, 400} {
		dir := t.TempDir()
		db, err := profiledb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for db.Epoch() < k {
			if err := db.NewEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		reg := obs.NewRegistry()
		srv := httptest.NewServer(Handler(&Source{Machine: "m00", DBDir: dir, Registry: reg}))
		t.Cleanup(srv.Close)
		scrape := func(query string) []EpochInfo {
			resp, err := http.Get(srv.URL + "/epochs" + query)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var ep EpochsPayload
			if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil || resp.StatusCode != 200 {
				t.Fatalf("/epochs%s: %d %v", query, resp.StatusCode, err)
			}
			return ep.Epochs
		}
		counts := func() [2]uint64 {
			return [2]uint64{reg.Counter("expo.epochs_probed").Value(), reg.Counter("expo.dir_listings").Value()}
		}

		if got := scrape(fmt.Sprintf("?after=%d", k-1)); !reflect.DeepEqual(got, []EpochInfo{{k, false}}) {
			t.Errorf("k=%d: /epochs?after=%d lists %+v", k, k-1, got)
		}
		if got := counts(); got != [2]uint64{2, 0} {
			t.Errorf("k=%d: a scrape from the high-water mark probed %d epochs and listed %d directories, want 2 and 0", k, got[0], got[1])
		}
		// Nothing above k: one probe finds k+1 missing, one listing confirms.
		if got := scrape(fmt.Sprintf("?after=%d", k)); len(got) != 0 {
			t.Errorf("k=%d: /epochs?after=%d lists %+v", k, k, got)
		}
		if len(scrape("")) != k {
			t.Errorf("k=%d: the full listing is not %d epochs", k, k)
		}
		if got := counts(); got != [2]uint64{3, 2} {
			t.Errorf("k=%d: after three scrapes, %d probes and %d listings, want 3 and 2", k, got[0], got[1])
		}
	}
}

// TestSealedProfilesAreComplete races a writer sealing epochs — each
// epoch's profiles, then its epoch.meta — against a reader fetching the
// epoch being written: a payload marked sealed carries the epoch's whole
// profile set, however the reads interleave with the writes. Each profile
// holds 4096 offsets, so reading an epoch's profiles takes longer than
// writing its last profile and its seal: a server that read the seal after
// the profiles serves some epoch sealed but short here.
func TestSealedProfilesAreComplete(t *testing.T) {
	const epochs, images = 20, 16
	dir := t.TempDir()
	db, err := profiledb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var writing atomic.Int64
	writing.Store(1)
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			for e := 1; e <= epochs; e++ {
				writing.Store(int64(e))
				for i := range images {
					p := profiledb.NewProfile(fmt.Sprintf("/usr/bin/app%d", i), sim.EvCycles)
					for off := uint64(0); off < 4096; off++ {
						p.Add(4*off, uint64(e)+off)
					}
					if err := db.Update(p); err != nil {
						return err
					}
				}
				if err := db.WriteMeta(profiledb.Meta{Workload: "app", Mode: "cycles"}); err != nil {
					return err
				}
				if err := db.NewEpoch(); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	h := Handler(&Source{Machine: "m00", DBDir: dir})
	sealed, partial := 0, 0
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/profiles?epoch=%d", writing.Load()), nil))
		if rec.Code != http.StatusOK {
			continue
		}
		var got ProfilesPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		switch {
		case got.Sealed && len(got.Profiles) != images:
			t.Fatalf("epoch %d served as sealed with %d of its %d profiles", got.Epoch, len(got.Profiles), images)
		case got.Sealed:
			sealed++
		case len(got.Profiles) < images:
			partial++
		}
	}
	t.Logf("%d sealed payloads, %d unsealed partial ones", sealed, partial)
}
