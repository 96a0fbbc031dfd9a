package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// setRun is one run of a set: which run it was and the result line it
// printed.
type setRun struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

// runSet runs every workload untraced over seeds 1..n and traced once (seed
// 1), each in a process of its own like the driver does, and writes the
// result lines to path. Two sets of the same code are the baseline that
// -compare is tried on.
func runSet(man *manifest, path string, n int, opt options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []setRun
	one := func(wl string, seed uint64, trace int) error {
		args := []string{"-root", opt.root, "-dir", opt.dir, "-workload", wl, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(man.RunSeconds), "-trace", strconv.Itoa(trace)}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", wl, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", wl, seed, trace, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %d attempted, %d failed\n", wl, seed, trace, line.Attempted, line.Failed)
		runs = append(runs, setRun{Workload: wl, Seed: seed, Trace: trace, Result: line})
		return nil
	}
	for _, w := range man.Workloads {
		for seed := uint64(1); seed <= uint64(n); seed++ {
			if err := one(w.Name, seed, 0); err != nil {
				return err
			}
		}
		if err := one(w.Name, 1, 1); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readSet(path string) ([]setRun, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []setRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// values collects one metric of one workload over the runs of a set.
func values(runs []setRun, wl string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// exactMetrics are the per-layer counts that repeat exactly for one seed:
// two sets agree on them or something changed what the system computes.
var exactMetrics = map[string]bool{
	"sim.insts": true, "sim.cycles": true, "sim.samples": true, "driver.miss_ratio": true,
	"profiledb.bytes_per_profile": true, "snapshot.bytes": true, "runcache.bytes_per_run": true,
	"runcache.hit_ratio": true, "runner.sims": true, "runner.mem_hits": true, "runner.disk_hits": true,
	"collect.failures": true, "expo.payload_bytes": true, "tsdb.compact_ratio": true,
	"tsdb.raw_bytes_per_epoch": true, "tsdb.block_bytes_per_epoch": true,
	"tsdb.points_per_row": true, "collect.api_resp_bytes": true, "pipeline.schedcache_hit_ratio": true,
}

// compareSets prints, for every pairing of end-to-end metric and workload,
// whether set B is within the metric's bound of set A:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the spread of a set's own runs exceeds the bound, so the
//	            medians cannot tell (unless every run of B beats every run
//	            of A)
//
// and for every exact per-layer count whether the sets agree. It returns
// an error when any line is not ok.
func compareSets(w io.Writer, man *manifest, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			va, vb := values(a, wl.Name, 0, d.Name), values(b, wl.Name, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-14s missing from a set\n", wl.Name, d.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma // as a share of A's median
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case (sa > d.Bound || sb > d.Bound) && !allBetter(va, vb, d.Better):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-14s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	names := make([]string, 0, len(exactMetrics))
	for name := range exactMetrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range man.Workloads {
		differ := 0
		for _, name := range names {
			va, vb := values(a, wl.Name, 1, name), values(b, wl.Name, 1, name)
			if len(va) == 0 || len(vb) == 0 || va[0] != vb[0] {
				fmt.Fprintf(w, "%-13s %-28s %v vs %v  differs\n", wl.Name, name, va, vb)
				differ++
			}
		}
		fmt.Fprintf(w, "%-13s exact counts of the traced run: %d of %d identical\n", wl.Name, len(names)-differ, len(names))
		bad += differ
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are not ok", bad)
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
