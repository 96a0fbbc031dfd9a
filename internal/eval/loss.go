package eval

import (
	"fmt"
	"io"

	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/runner"
	"dcpi/internal/sim"
)

// The §4.2.3 loss ablation: the paper reports that even under the heaviest
// workloads fewer than 0.1% of samples are dropped, and that every drop is
// counted rather than silent. This sweep injects increasing daemon drain
// lag (FaultPlan.DrainLatency) into a high-eviction workload and measures
// the loss rate, reproducing both the near-zero normal-operation loss and
// the breakdown point where the lag window outgrows the driver's two
// overflow buffers.

// LossRow is one lag setting's aggregate over the sweep's runs.
type LossRow struct {
	DrainLatency int64   // injected lag in cycles
	Recorded     uint64  // raw samples the driver recorded
	Merged       uint64  // raw samples that reached the daemon's profiles
	Lost         uint64  // raw samples dropped with both buffers full
	Deferred     uint64  // full-buffer deliveries the daemon refused
	LossRate     float64 // Lost / Recorded
	Conserved    bool    // Recorded == Merged + Lost on every run
}

// LossResult is the full lag sweep.
type LossResult struct {
	Workload      string
	Runs          int
	OverflowCap   int   // driver overflow-buffer capacity (entries)
	DrainInterval int64 // daemon drain interval (cycles)
	Rows          []LossRow
}

// lossLags is the swept drain-lag axis. With 256-entry buffers, a 100K-cycle
// drain interval, and gcc's eviction rate under dense sampling, the two
// buffers absorb roughly 650K cycles of lag; the axis brackets that point.
var lossLags = []int64{0, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000}

// LossSweep measures sample loss as a function of injected daemon drain lag.
// It shrinks the driver's overflow buffers and drain interval (keeping the
// paper's pressure ratios at our short run lengths) so the breakdown is
// reachable without hour-long stalls, and uses gcc — the paper's
// high-eviction workload — so buffers actually fill.
func LossSweep(o Options) (*LossResult, error) {
	o = o.withDefaults()
	defer o.span("Ablation loss")()
	const (
		wl       = "gcc"
		buckets  = 64 // 4-way: 256 entries, so gcc's footprint actually evicts
		overflow = 256
		drain    = 100_000
	)
	scale := o.Scale
	if scale < 0.25 {
		scale = 0.25
	}
	runs := o.Runs
	if runs > 2 {
		runs = 2
	}

	cfg := func(lag int64, run int) dcpi.Config {
		return dcpi.Config{
			Workload:           wl,
			Scale:              scale,
			Mode:               sim.ModeCycles,
			Seed:               seedFor("loss", wl, run),
			CyclesPeriod:       sim.DenseCyclesPeriod,
			ZeroCostCollection: true,
			DriverBuckets:      buckets,
			DriverOverflow:     overflow,
			DrainInterval:      drain,
			Fault:              daemon.FaultPlan{DrainLatency: lag},
		}
	}

	// Submit the whole grid up front; the runner fans it out.
	pending := make([][]*runner.Pending, len(lossLags))
	for i, lag := range lossLags {
		for run := 0; run < runs; run++ {
			pending[i] = append(pending[i], o.Runner.Submit(cfg(lag, run)))
		}
	}

	res := &LossResult{
		Workload: wl, Runs: runs, OverflowCap: overflow, DrainInterval: drain,
	}
	for i, lag := range lossLags {
		row := LossRow{DrainLatency: lag, Conserved: true}
		for _, pr := range pending[i] {
			r, err := pr.Wait()
			if err != nil {
				return nil, fmt.Errorf("loss sweep: %w", err)
			}
			ds := r.DriverStats
			dm := r.DaemonStats
			row.Recorded += ds.Samples
			row.Merged += dm.Samples
			row.Lost += ds.Lost
			row.Deferred += ds.Deferred
			if ds.Samples != dm.Samples+ds.Lost {
				row.Conserved = false
			}
		}
		if row.Recorded > 0 {
			row.LossRate = float64(row.Lost) / float64(row.Recorded)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatLossSweep renders the lag sweep.
func FormatLossSweep(w io.Writer, res *LossResult) {
	fmt.Fprintf(w, "Daemon drain lag vs. sample loss (§4.2.3) on %s, %d run(s) per point\n",
		res.Workload, res.Runs)
	fmt.Fprintf(w, "%d-entry overflow buffers, %s drain interval; loss is counted, never silent\n\n",
		res.OverflowCap, cyc(res.DrainInterval))
	fmt.Fprintf(w, "%10s %10s %10s %10s %9s %10s %10s\n",
		"drain lag", "recorded", "merged", "lost", "deferred", "loss rate", "conserved")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%10s %10d %10d %10d %9d %9.4f%% %10s\n",
			cyc(r.DrainLatency), r.Recorded, r.Merged, r.Lost, r.Deferred,
			100*r.LossRate, conservedMark(r.Conserved))
	}
	fmt.Fprintf(w, "\npaper: normal-operation loss stays under 0.1%%; loss grows once the lag\n")
	fmt.Fprintf(w, "window exceeds what the driver's two overflow buffers can absorb\n")
}

// cyc renders a cycle count compactly (1.6M, 400K, 0).
func cyc(n int64) string {
	switch {
	case n >= 1_000_000 && n%100_000 == 0:
		return fmt.Sprintf("%gM", float64(n)/1e6)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func conservedMark(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}
