package eval

import (
	"reflect"
	"testing"

	"dcpi/internal/analysis"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/runner"
)

// TestSharedAnalysesEqualFresh runs Figures 10, 8 and 9 on one runner, where
// every procedure of a run is analysed once and every CFG is built once per
// image, and holds each figure to the same figure computed on a fresh
// runner of its own. The static work is counted, not timed: CFG builds must
// equal the distinct (image, procedure) pairs analysed, analyses the
// distinct (run, procedure) pairs, and sample splits at most the images of
// the runs.
//
// The scale is this test's own, so the shells (and with them the images
// whose CFGs are counted) are built here; run again in one process, the
// shells and their CFGs already exist and no build may happen.
func TestSharedAnalysesEqualFresh(t *testing.T) {
	reg := obs.NewRegistry()
	shared := runner.New(0)
	shared.Obs = obs.Hooks{Registry: reg}
	o := Options{Runs: 1, Scale: 0.03, Runner: shared}

	f10, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Points) == 0 || f8.Procedures == 0 || f9.Procedures == 0 {
		t.Fatalf("empty figures: %d Figure 10 points, %d and %d procedures", len(f10.Points), f8.Procedures, f9.Procedures)
	}

	// What was analysed, read back through the memos (which must not grow).
	counts := func() [3]uint64 {
		return [3]uint64{reg.Counter("dcpi.cfg_builds").Value(), reg.Counter("dcpi.analyses").Value(),
			reg.Counter("dcpi.sample_splits").Value()}
	}
	before := counts()
	type proc struct {
		r  *dcpi.Result
		im *image.Image
		s  int
	}
	runProcs := map[proc]bool{}
	imageProcs := map[proc]bool{}
	runs := map[*dcpi.Result]bool{}
	record := func(r *dcpi.Result, im *image.Image, s int, _ *analysis.ProcAnalysis) {
		runProcs[proc{r, im, s}] = true
		imageProcs[proc{nil, im, s}] = true
		runs[r] = true
	}
	if err := forEachProcAnalysis(o, Fig10Workloads, fig10Sampling, record); err != nil {
		t.Fatal(err)
	}
	if err := forEachProcAnalysis(o, AccuracyWorkloads, denseCycles, record); err != nil {
		t.Fatal(err)
	}
	if after := counts(); after != before {
		t.Errorf("asking again built more: builds, analyses, splits %v then %v", before, after)
	}
	images := 0
	for r := range runs {
		images += len(r.Loader.Images())
	}
	builds, analyses, splits := before[0], before[1], before[2]
	if analyses != uint64(len(runProcs)) {
		t.Errorf("%d analyses for %d distinct (run, procedure) pairs", analyses, len(runProcs))
	}
	if splits > uint64(images) {
		t.Errorf("%d sample splits for %d images over %d runs", splits, images, len(runs))
	}
	workloads := map[string]bool{}
	for _, wl := range append(append([]string(nil), Fig10Workloads...), AccuracyWorkloads...) {
		workloads[wl] = true
	}
	switch shells := reg.Counter("dcpi.shell_builds").Value(); shells {
	case uint64(len(workloads)):
		if builds != uint64(len(imageProcs)) {
			t.Errorf("%d CFG builds for %d distinct (image, procedure) pairs", builds, len(imageProcs))
		}
	case 0:
		if builds != 0 {
			t.Errorf("%d CFG builds over shells built before this run", builds)
		}
	default:
		t.Fatalf("%d shells built for %d workloads: another test shares this scale", shells, len(workloads))
	}
	t.Logf("%d CFG builds, %d analyses, %d sample splits over %d runs", builds, analyses, splits, len(runs))

	fresh := func() Options { return Options{Runs: 1, Scale: o.Scale, Runner: runner.New(0)} }
	if g, err := Fig10(fresh()); err != nil || !reflect.DeepEqual(g, f10) {
		t.Errorf("Figure 10 on a shared runner differs from a fresh one (err %v)", err)
	}
	if g, err := Fig8(fresh()); err != nil || !reflect.DeepEqual(g, f8) {
		t.Errorf("Figure 8 on a shared runner differs from a fresh one (err %v)", err)
	}
	if g, err := Fig9(fresh()); err != nil || !reflect.DeepEqual(g, f9) {
		t.Errorf("Figure 9 on a shared runner differs from a fresh one (err %v)", err)
	}
}
