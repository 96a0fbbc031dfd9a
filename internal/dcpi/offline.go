package dcpi

import (
	"fmt"

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
// was profiled. The result serves the same tools a live run's does; its
// Config carries the recorded workload, mode and mean sampling periods (the
// simulator's defaults when the database has no metadata).
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
		Config: Config{
			Workload:     meta.Workload,
			Mode:         mode,
			CyclesPeriod: meanPeriod(meta.CyclesPeriod),
			EventPeriod:  meanPeriod(meta.EventPeriod),
		},
		Wall:     meta.WallCycles,
		Loader:   sh.loader,
		DB:       db,
		profiles: profiles,
		model:    sh.model,
	}, nil
}

// meanPeriod returns a period whose mean, Base + Spread/2 as
// AvgCyclesPeriod computes it, is the recorded mean avg. A recorded mean is
// such a sum, so it is a whole number or a half; 0 (nothing recorded) gives
// the zero period, which means the simulator's default.
func meanPeriod(avg float64) sim.PeriodSpec {
	base := int64(avg)
	return sim.PeriodSpec{Base: base, Spread: int64(2 * (avg - float64(base)))}
}
