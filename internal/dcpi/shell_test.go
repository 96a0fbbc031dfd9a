package dcpi_test

// Tests of the shared, data-free shells (shell.go) from outside the package:
// a PlaceholderResult hands out the shell of its configuration's shape, so
// two results share a shell exactly when their Loader pointers are equal.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dcpi/internal/dcpi"
	"dcpi/internal/hw"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/optimize"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

var densePeriod = sim.PeriodSpec{Base: 2048, Spread: 512}

// checkShellMatchesLive compares everything the offline side reads from a
// run's set-up — images with their IDs in registration order, processes with
// their mappings, the machine's model and size — between a live run and the
// shell of the same configuration.
func checkShellMatchesLive(t *testing.T, cfg dcpi.Config) {
	t.Helper()
	live, err := dcpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := dcpi.PlaceholderResult(cfg)
	if err != nil {
		t.Fatal(err)
	}

	li, si := live.Loader.Images(), sh.Loader.Images()
	if len(li) != len(si) {
		t.Fatalf("shell registers %d images, live run %d", len(si), len(li))
	}
	for i, want := range li {
		got := si[i]
		if got.ID != want.ID || got.Path != want.Path || got.Name != want.Name || got.Kind != want.Kind {
			t.Errorf("image %d: shell has %d %s (%s, %v), live %d %s (%s, %v)", i,
				got.ID, got.Path, got.Name, got.Kind, want.ID, want.Path, want.Name, want.Kind)
			continue
		}
		if !reflect.DeepEqual(got.Code, want.Code) {
			t.Errorf("%s: code differs between shell and live run", want.Path)
		}
		if !reflect.DeepEqual(got.Symbols, want.Symbols) {
			t.Errorf("%s: symbols differ between shell and live run", want.Path)
		}
		if !reflect.DeepEqual(got.Lines, want.Lines) {
			t.Errorf("%s: source lines differ between shell and live run", want.Path)
		}
	}

	lp, sp := live.Loader.Processes(), sh.Loader.Processes()
	if len(lp) != len(sp) {
		t.Fatalf("shell has %d processes, live run %d", len(sp), len(lp))
	}
	for i, want := range lp {
		got := sp[i]
		if got.PID != want.PID || got.Name != want.Name {
			t.Errorf("process %d: shell has %d %s, live %d %s", i, got.PID, got.Name, want.PID, want.Name)
		}
		gm, wm := got.Mappings(), want.Mappings()
		if len(gm) != len(wm) {
			t.Errorf("%s: shell maps %d images, live %d", want.Name, len(gm), len(wm))
			continue
		}
		for j := range wm {
			if gm[j].Base != wm[j].Base || gm[j].Image.ID != wm[j].Image.ID {
				t.Errorf("%s mapping %d: shell has image %d at %#x, live image %d at %#x", want.Name, j,
					gm[j].Image.ID, gm[j].Base, wm[j].Image.ID, wm[j].Base)
			}
		}
		if n := got.Mem.Pages(); n != 0 {
			t.Errorf("%s: shell process holds %d memory pages, want none", got.Name, n)
		}
	}

	if sh.Model() != live.Model() {
		t.Errorf("shell model %+v, live %+v", sh.Model(), live.Model())
	}
	if sh.Machine != nil {
		t.Error("a shell result carries a simulated machine")
	}
	if got, want := sh.NumCPUs, len(live.Machine.CPUs); got != want || live.NumCPUs != want {
		t.Errorf("shell says %d CPUs, live machine has %d (NumCPUs %d)", got, want, live.NumCPUs)
	}

	again, err := dcpi.PlaceholderResult(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Loader != sh.Loader {
		t.Error("two results of one shape do not share a shell")
	}
}

func TestShellMatchesLiveRun(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			checkShellMatchesLive(t, dcpi.Config{Workload: name, Scale: 0.01, Mode: sim.ModeOff})
		})
	}

	t.Run("hw", func(t *testing.T) {
		cfg := dcpi.Config{Workload: "compress", Scale: 0.01, Mode: sim.ModeOff, NumCPUs: 2}
		cfg.HW = hw.Default()
		cfg.HW.Model.MemLat *= 2
		cfg.HW.DTBEntries = 32
		checkShellMatchesLive(t, cfg)
		def, err := dcpi.PlaceholderResult(dcpi.Config{Workload: "compress", Scale: 0.01, NumCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sh, _ := dcpi.PlaceholderResult(cfg); sh.Loader == def.Loader || sh.Model() == def.Model() {
			t.Error("a non-default machine shares the default machine's shell")
		}
	})

	t.Run("rewrites", func(t *testing.T) {
		cfg := dcpi.Config{Workload: "classify", Scale: 0.05, Seed: 3, Mode: sim.ModeCycles,
			CyclesPeriod: densePeriod, ZeroCostCollection: true}
		profiled, err := dcpi.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := optimize.PlanImage(profiled, "/bin/classify")
		if err != nil {
			t.Fatal(err)
		}
		if plan.Identity() {
			t.Fatal("the plan changes nothing, so it tests nothing")
		}
		plain, err := dcpi.PlaceholderResult(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rewrites = []image.Layout{plan.Layout}
		checkShellMatchesLive(t, cfg)
		rewritten, err := dcpi.PlaceholderResult(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := plain.Loader.ImageByPath("/bin/classify")
		b, _ := rewritten.Loader.ImageByPath("/bin/classify")
		if reflect.DeepEqual(a.Code, b.Code) {
			t.Error("the rewritten shape's shell holds the original image")
		}
	})
}

// A layout that does not apply aborts a live run; a cached result keyed
// under it must fail to rehydrate with the same error, not symbolize
// against the image the layout was never applied to.
func TestShellReportsRewriteFailure(t *testing.T) {
	cfg := dcpi.Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeCycles, Seed: 1}
	live, err := dcpi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := dcpi.EncodeSnapshot(live)
	if err != nil {
		t.Fatal(err)
	}
	// Right path, but a procedure list that matches no body of the image.
	cfg.Rewrites = []image.Layout{{Path: "/usr/bin/compress",
		Procs: []image.ProcLayout{{Name: "main"}, {Name: "no_such_procedure"}}}}
	_, runErr := dcpi.Run(cfg)
	if runErr == nil || !strings.Contains(runErr.Error(), "rewrite failed") {
		t.Fatalf("Run with an inapplicable layout: err = %v, want rewrite failed", runErr)
	}
	if _, err := dcpi.DecodeSnapshot(blob, cfg); err == nil || err.Error() != runErr.Error() {
		t.Errorf("DecodeSnapshot err = %v, want Run's: %v", err, runErr)
	}
	if _, err := dcpi.PlaceholderResult(cfg); err == nil || err.Error() != runErr.Error() {
		t.Errorf("PlaceholderResult err = %v, want Run's: %v", err, runErr)
	}
}

// gcc and vortex generate their code from the scale (the repeat count is an
// immediate in main), so an offline view must stage images at the scale the
// database records, not a fixed one.
func TestOpenViewUsesRecordedScale(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	live, err := dcpi.Run(dcpi.Config{Workload: "gcc", Scale: 0.1, Mode: sim.ModeCycles, Seed: 2,
		CyclesPeriod: densePeriod, DBDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	off, err := dcpi.OpenView(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := live.Loader.ImageByPath("/usr/bin/gcc")
	got, ok := off.Loader.ImageByPath("/usr/bin/gcc")
	if !ok || !reflect.DeepEqual(got.Code, want.Code) {
		t.Error("the offline view's gcc image is not the code that was profiled")
	}
	legacy, err := dcpi.SetupImages("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if im, _ := legacy.ImageByPath("/usr/bin/gcc"); reflect.DeepEqual(im.Code, want.Code) {
		t.Error("scale 0.1 and the no-metadata scale generate the same gcc; the test shows nothing")
	}
}

// Concurrent rehydrations build one shell per shape, whatever else differs
// between the configurations. Run under -race.
func TestConcurrentDecodeBuildsOneShellPerShape(t *testing.T) {
	base := dcpi.Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeCycles, Seed: 1}
	live, err := dcpi.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := dcpi.EncodeSnapshot(live)
	if err != nil {
		t.Fatal(err)
	}

	// Scales no other test uses, so every shape starts unbuilt. The blob
	// does not record the scale, so it decodes under each of them.
	scales := []float64{0.020001, 0.020002, 0.020003}
	const perShape = 8
	reg := obs.NewRegistry()
	results := make([][]*dcpi.Result, len(scales))
	var wg sync.WaitGroup
	for i, scale := range scales {
		results[i] = make([]*dcpi.Result, perShape)
		for j := 0; j < perShape; j++ {
			cfg := base
			cfg.Scale = scale
			// None of these is an input of set-up.
			cfg.Seed = uint64(j)
			cfg.Mode = sim.Mode(j % 3)
			cfg.CyclesPeriod = sim.PeriodSpec{Base: int64(1000 + j), Spread: 1}
			cfg.Obs.Registry = reg
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				res, err := dcpi.DecodeSnapshot(blob, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				results[i][j] = res
			}(i, j)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	builds, hits := reg.Counter("dcpi.shell_builds").Value(), reg.Counter("dcpi.shell_hits").Value()
	if builds != uint64(len(scales)) || hits != uint64(len(scales)*(perShape-1)) {
		t.Errorf("%d builds and %d hits for %d shapes × %d decodes", builds, hits, len(scales), perShape)
	}
	seen := map[any]string{}
	for i, rs := range results {
		for j, res := range rs {
			if res.Loader != rs[0].Loader {
				t.Errorf("shape %d: decode %d got its own shell", i, j)
			}
		}
		if other, dup := seen[rs[0].Loader]; dup {
			t.Errorf("shape %d shares a shell with %s", i, other)
		}
		seen[rs[0].Loader] = fmt.Sprintf("shape %d", i)
	}
}
