package dcpi

import (
	"fmt"
	"math"

	"dcpi/internal/loader"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

// legacyScale is the scale offline tools stage images at when nothing
// recorded the run's: databases written before the metadata carried a scale,
// and SetupImages, which has only a name to go on.
const legacyScale = 0.01

// SetupImages returns a workload's loader (kernel, executables, shared
// libraries, processes) without running anything — offline tools use it to
// symbolize profiles read from a database. It is the no-metadata form: the
// images are staged at legacyScale, which differs from the profiled code
// only where a workload bakes its scaled repeat count into an instruction
// (gcc, vortex); OpenView, which has the metadata, uses the recorded scale.
// The loader is the shared shell's (see Result): read-only.
func SetupImages(workloadName string) (*loader.Loader, error) {
	sh, err := sharedShell(Config{Workload: workloadName, Scale: legacyScale})
	if err != nil {
		return nil, err
	}
	return sh.loader, nil
}

// OpenView loads a database and the images of the workload recorded in its
// metadata (or workloadName if the database has none), staged at the scale
// the metadata records so that code generated from the scale matches what
// was profiled. The result serves the same tools a live run's does: its
// Config carries the recorded workload and mode, its Avg…Period the recorded
// means (the defaults where none is; a negative or infinite one is an error).
func OpenView(dbDir, workloadName string) (*Result, error) {
	db, err := profiledb.Open(dbDir)
	if err != nil {
		return nil, err
	}
	meta, ok, err := db.Meta()
	if err != nil {
		return nil, err
	}
	if !ok && workloadName == "" {
		return nil, fmt.Errorf("dcpi: database %s has no metadata; pass a workload name", dbDir)
	}
	if workloadName != "" {
		meta.Workload = workloadName
	}
	for _, p := range []float64{meta.CyclesPeriod, meta.EventPeriod} {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("dcpi: database %s records an invalid mean period %v", dbDir, p)
		}
	}
	scale := meta.Scale
	if scale == 0 {
		scale = legacyScale
	}
	sh, err := sharedShell(Config{Workload: meta.Workload, Scale: scale})
	if err != nil {
		return nil, err
	}
	profiles, err := db.Profiles()
	if err != nil {
		return nil, err
	}
	mode := sim.ModeCycles
	for m := sim.ModeOff; m <= sim.ModeMux; m++ {
		if m.String() == meta.Mode {
			mode = m
		}
	}
	return &Result{
		Config:   Config{Workload: meta.Workload, Mode: mode},
		recorded: [2]float64{meta.CyclesPeriod, meta.EventPeriod},
		Wall:     meta.WallCycles,
		Loader:   sh.loader,
		DB:       db,
		profiles: profiles,
		model:    sh.model,
	}, nil
}
