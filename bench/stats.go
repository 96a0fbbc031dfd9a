package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fits reports whether another unit that takes as long as the last one
// still ends within the measuring time.
func fits(start time.Time, last time.Duration, seconds float64) bool {
	return time.Since(start)+last <= time.Duration(seconds*float64(time.Second))
}

// endToEnd gathers what the units of a run measured and reports the eight
// end-to-end metrics the same way for every workload.
type endToEnd struct {
	setup, wall, cpu []float64     // seconds: one per set-up, one per unit
	lat              []float64     // ms: one per operation that was timed
	ops              int           // operations completed ...
	opTime           time.Duration // ... within this much time
	peakRSSMB        float64
	bytesPerOp       float64
}

func (m *endToEnd) unit(wall, cpu time.Duration) {
	m.wall = append(m.wall, wall.Seconds())
	m.cpu = append(m.cpu, cpu.Seconds())
}

func (m *endToEnd) report(o *outcome) {
	o.set("setup_s", median(m.setup))
	o.set("wall_s", median(m.wall))
	o.set("cpu_s", median(m.cpu))
	o.set("peak_rss_mb", m.peakRSSMB)
	o.set("ops_per_s", float64(m.ops)/m.opTime.Seconds())
	o.set("op_ms_p50", percentile(m.lat, 50))
	o.set("op_ms_p90", percentile(m.lat, 90))
	o.set("bytes_per_op", m.bytesPerOp)
}

// percentile returns the p-th percentile (0 < p <= 100) of vs by the
// nearest-rank rule, so every reported value is one that was measured.
// It returns NaN for an empty slice; vs is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median averages the two middle values of an even-sized sample.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what the acceptance check uses.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

// selfCPU is the user+system CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set (Linux reports KiB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// dirBytes sums the sizes of the regular files under dir and counts them.
func dirBytes(dir string) (bytes int64, files int) {
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}
