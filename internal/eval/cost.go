package eval

import (
	"fmt"
	"io"

	"dcpi/internal/dcpi"
	"dcpi/internal/driver"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// Table4Row is one workload's per-sample cost breakdown under one
// configuration (paper Table 4).
type Table4Row struct {
	Workload string
	Mode     sim.Mode

	MissRate   float64 // driver hash-table miss rate
	AvgIntr    float64 // mean interrupt-handler cycles per sample
	HitCost    float64 // handler cycles on the hit path
	MissCost   float64 // mean handler cycles on the miss path
	DaemonCost float64 // daemon cycles per raw sample

	Samples uint64
	AggFact float64 // samples per daemon entry (aggregation factor)
}

// Table4Modes mirrors the paper's three measured configurations.
var Table4Modes = []sim.Mode{sim.ModeCycles, sim.ModeDefault, sim.ModeMux}

// Table4 measures the components of time overhead. It samples in the
// 21064-style 4K fast mode so the driver hash table reaches steady state
// within our scaled-down runs (with the paper's 60K periods and our short
// workloads, cold misses would dominate the miss rate).
func Table4(o Options) ([]Table4Row, error) {
	o = o.withDefaults()
	defer o.span("Table 4")()
	cfg := func(wl string, mode sim.Mode) dcpi.Config {
		return dcpi.Config{
			Workload:     wl,
			Scale:        o.Scale,
			Mode:         mode,
			Seed:         seedFor("table4", wl, 0),
			CyclesPeriod: sim.PeriodSpec{Base: 4096, Spread: 512},
		}
	}
	var pending []*runner.Pending
	for _, wl := range o.Workloads {
		for _, mode := range Table4Modes {
			pending = append(pending, o.Runner.Submit(cfg(wl, mode)))
		}
	}
	var rows []Table4Row
	i := 0
	for _, wl := range o.Workloads {
		for _, mode := range Table4Modes {
			r, err := pending[i].Wait()
			i++
			if err != nil {
				return nil, fmt.Errorf("table4 %s %v: %w", wl, mode, err)
			}
			rows = append(rows, costRow(wl, mode, r))
		}
	}
	return rows, nil
}

func costRow(wl string, mode sim.Mode, r *dcpi.Result) Table4Row {
	// Read the stats snapshot, not the live Driver/Daemon: snapshots are
	// all a disk-cached (rehydrated) result carries.
	ds := r.DriverStats
	dmn := r.DaemonStats
	cm := driver.DefaultCostModel()

	row := Table4Row{
		Workload: wl,
		Mode:     mode,
		MissRate: ds.MissRate(),
		AvgIntr:  ds.AvgCost(),
		HitCost:  float64(cm.Setup + cm.HitWork),
		Samples:  ds.Samples,
	}
	if ds.Misses > 0 {
		// Mean over insert and eviction paths.
		missCycles := float64(ds.Misses)*float64(cm.Setup+cm.HitWork) +
			float64(ds.Inserts)*float64(cm.InsertExtra) +
			float64(ds.Evictions+ds.Direct)*float64(cm.MissExtra)
		row.MissCost = missCycles / float64(ds.Misses)
	}
	row.DaemonCost = dmn.CostPerSample()
	if dmn.Entries > 0 {
		row.AggFact = float64(dmn.Samples) / float64(dmn.Entries)
	}
	return row
}

// FormatTable4 renders Table 4.
func FormatTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: time overhead components (cycles per sample)\n\n")
	fmt.Fprintf(w, "%-18s %-8s %9s %8s %8s %8s %8s %8s\n",
		"workload", "mode", "missrate", "avgintr", "hit", "miss", "daemon", "aggfact")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-8s %8.1f%% %8.0f %8.0f %8.0f %8.1f %8.1f\n",
			r.Workload, r.Mode, 100*r.MissRate, r.AvgIntr, r.HitCost, r.MissCost,
			r.DaemonCost, r.AggFact)
	}
}

// Table5Row is one workload's space overhead (paper Table 5).
type Table5Row struct {
	Workload string
	Mode     sim.Mode

	UptimeCycles int64
	MemoryBytes  int // daemon resident data at the end of the run
	PeakBytes    int
	DiskBytes    int64 // profile database size
	DriverKernel int   // pinned kernel memory (driver tables)
}

// Table5Modes are the two disk-backed configurations measured.
var Table5Modes = []sim.Mode{sim.ModeCycles, sim.ModeDefault}

// Table5 measures daemon memory and profile-database disk usage. These
// runs write real on-disk databases — in run-private temporary directories
// the session deletes itself (Config.EphemeralDB) after capturing the
// final size in Result.DBDiskBytes. Because no caller-chosen path leaks
// into the run's identity, these runs cache and shard like every other:
// a warm-cache sweep replays Table 5 from snapshots without touching disk.
func Table5(o Options) ([]Table5Row, error) {
	o = o.withDefaults()
	defer o.span("Table 5")()
	cfg := func(wl string, mode sim.Mode) dcpi.Config {
		return dcpi.Config{
			Workload: wl, Scale: o.Scale, Mode: mode,
			Seed:        seedFor("table5", wl, 0),
			EphemeralDB: true,
		}
	}
	var pending []*runner.Pending
	for _, wl := range o.Workloads {
		for _, mode := range Table5Modes {
			pending = append(pending, o.Runner.Submit(cfg(wl, mode)))
		}
	}
	var rows []Table5Row
	i := 0
	for _, wl := range o.Workloads {
		for _, mode := range Table5Modes {
			r, err := pending[i].Wait()
			i++
			if err != nil {
				return nil, fmt.Errorf("table5 %s %v: %w", wl, mode, err)
			}
			rows = append(rows, Table5Row{
				Workload:     wl,
				Mode:         mode,
				UptimeCycles: r.Wall,
				MemoryBytes:  r.DaemonMemBytes,
				PeakBytes:    r.DaemonPeakBytes,
				DiskBytes:    r.DBDiskBytes,
				DriverKernel: r.DriverKernelBytes,
			})
		}
	}
	return rows, nil
}

// FormatTable5 renders Table 5.
func FormatTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Table 5: daemon space overhead (bytes) and profile database size\n\n")
	fmt.Fprintf(w, "%-18s %-8s %14s %12s %12s %12s %12s\n",
		"workload", "mode", "uptime(cyc)", "mem", "peak", "disk", "driver-kmem")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-8s %14d %12d %12d %12d %12d\n",
			r.Workload, r.Mode, r.UptimeCycles, r.MemoryBytes, r.PeakBytes, r.DiskBytes, r.DriverKernel)
	}
}
