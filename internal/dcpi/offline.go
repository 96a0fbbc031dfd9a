package dcpi

import (
	"fmt"

	"dcpi/internal/loader"
	"dcpi/internal/pipeline"
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

// OfflineView resolves profiles from an on-disk database against a
// workload's images, offering the same tool surface as a live Result.
type OfflineView struct {
	Loader   *loader.Loader
	DB       *profiledb.DB
	Meta     profiledb.Meta
	profiles []*profiledb.Profile
	model    pipeline.Model // the shell's, so Result.Model() works
}

// OpenView loads a database and the images of the workload recorded in its
// metadata (or workloadName if the database has none), staged at the scale
// the metadata records so that code generated from the scale matches what
// was profiled.
func OpenView(dbDir, workloadName string) (*OfflineView, error) {
	db, err := profiledb.Open(dbDir)
	if err != nil {
		return nil, err
	}
	meta, ok, err := db.Meta()
	if err != nil {
		return nil, err
	}
	if !ok {
		if workloadName == "" {
			return nil, fmt.Errorf("dcpi: database %s has no metadata; pass a workload name", dbDir)
		}
		meta = profiledb.Meta{Workload: workloadName, CyclesPeriod: 62464, EventPeriod: 15360}
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
	return &OfflineView{Loader: sh.loader, DB: db, Meta: meta, profiles: profiles, model: sh.model}, nil
}

// Result adapts the view to the live-run tool surface.
func (v *OfflineView) Result() *Result {
	mode := sim.ModeCycles
	for m := sim.ModeOff; m <= sim.ModeMux; m++ {
		if m.String() == v.Meta.Mode {
			mode = m
		}
	}
	return &Result{
		Config: Config{
			Workload:     v.Meta.Workload,
			Mode:         mode,
			CyclesPeriod: sim.PeriodSpec{Base: int64(v.Meta.CyclesPeriod), Spread: 1},
			EventPeriod:  sim.PeriodSpec{Base: int64(v.Meta.EventPeriod), Spread: 1},
		},
		Wall:     v.Meta.WallCycles,
		Loader:   v.Loader,
		DB:       v.DB,
		profiles: v.profiles,
		model:    v.model,
	}
}
