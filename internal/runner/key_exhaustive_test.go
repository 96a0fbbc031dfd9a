package runner

import (
	"reflect"
	"testing"

	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/image"
	"dcpi/internal/obs"
	"dcpi/internal/sim"
)

// What a dcpi.Config field is an input of. Two keys are built from a
// Config: the run's content key (Key), which addresses cached results, and
// the key of the shared shell a rehydrated result's images come from
// (internal/dcpi/shell.go). A field left out of a key it belongs in serves
// stale results or the wrong images without any error.
type fieldRole int

const (
	// runIdentity fields change what a run measures: in Key, and not in the
	// shell key — set-up does not read them, and splitting the shell table
	// on them would rebuild images for nothing.
	runIdentity fieldRole = iota
	// shapeIdentity fields are read by set-up: they change which images a
	// run loads, so they are in both keys.
	shapeIdentity
	// executionStrategy fields change how a run executes or reports, never
	// its result: in neither key.
	executionStrategy
)

// configFields classifies every field of dcpi.Config and gives a value that
// differs from the base configuration's below. A new field fails
// TestConfigFieldsAreClassified until it is added here — and, by the checks
// there, to the keys its role says it belongs in.
var configFields = map[string]struct {
	role fieldRole
	alt  any
}{
	"Workload": {shapeIdentity, "li"},
	"Scale":    {shapeIdentity, 0.03},
	"NumCPUs":  {shapeIdentity, 2},
	"HW":       {shapeIdentity, mustParseHW("itb=24")},
	"Rewrites": {shapeIdentity, []image.Layout{{Path: "/usr/bin/compress", Procs: []image.ProcLayout{{Name: "main"}}}}},

	"Mode":               {runIdentity, sim.ModeDefault},
	"Seed":               {runIdentity, uint64(9)},
	"CyclesPeriod":       {runIdentity, sim.PeriodSpec{Base: 4096, Spread: 64}},
	"EventPeriod":        {runIdentity, sim.PeriodSpec{Base: 8192, Spread: 64}},
	"MuxInterval":        {runIdentity, int64(1 << 20)},
	"DBDir":              {runIdentity, "/tmp/db"},
	"EphemeralDB":        {runIdentity, true},
	"CollectExact":       {runIdentity, true},
	"MaxCycles":          {runIdentity, int64(1 << 24)},
	"PerProcessPIDs":     {runIdentity, []uint32{100}},
	"TraceSamples":       {runIdentity, true},
	"ZeroCostCollection": {runIdentity, true},
	"DoubleSample":       {runIdentity, true},
	"InterpretBranches":  {runIdentity, true},
	"MetaSamples":        {runIdentity, true},
	"DriverBuckets":      {runIdentity, 1024},
	"DriverOverflow":     {runIdentity, 8},
	"DrainInterval":      {runIdentity, int64(50000)},
	"MergeInterval":      {runIdentity, int64(900000)},
	"Fault":              {runIdentity, daemon.FaultPlan{DrainLatency: 1000}},

	"SimCPUs": {executionStrategy, 4},
	"Obs":     {executionStrategy, obs.Hooks{Registry: obs.NewRegistry()}},
}

// shellOf identifies the shell a configuration's results point at: results
// share a shell exactly when they share its loader.
func shellOf(t *testing.T, cfg dcpi.Config) any {
	t.Helper()
	res, err := dcpi.PlaceholderResult(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Loader
}

func TestConfigFieldsAreClassified(t *testing.T) {
	base := dcpi.Config{Workload: "compress", Scale: 0.02, Mode: sim.ModeCycles, Seed: 1}
	baseKey, baseShell := Key(base), shellOf(t, base)

	typ := reflect.TypeOf(base)
	if n := typ.NumField(); n != len(configFields) {
		t.Errorf("dcpi.Config has %d fields, %d are classified", n, len(configFields))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := configFields[name]
		if !ok {
			t.Errorf("dcpi.Config.%s is not classified: decide whether it belongs in runner.Key, in the shell key too, or in neither, and add it to configFields", name)
			continue
		}
		cfg := base
		reflect.ValueOf(&cfg).Elem().Field(i).Set(reflect.ValueOf(f.alt))
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("%s: the alternative value equals the base configuration's", name)
			continue
		}
		inKey := Key(cfg) != baseKey
		inShell := shellOf(t, cfg) != baseShell
		if want := f.role != executionStrategy; inKey != want {
			t.Errorf("%s: changes runner.Key = %t, want %t", name, inKey, want)
		}
		if want := f.role == shapeIdentity; inShell != want {
			t.Errorf("%s: selects another shell = %t, want %t", name, inShell, want)
		}
	}
}
