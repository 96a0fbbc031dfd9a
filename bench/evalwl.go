package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// invocation is what one dcpieval process did, seen from outside.
type invocation struct {
	wall     time.Duration
	cpu      time.Duration
	rssMB    float64
	digest   string // sha256 of standard output
	summary  bool   // standard error held the summary line the counts come from
	sims     int
	memHits  int
	diskHits int
	err      error // exit status, or an unreadable summary
}

func (v invocation) requests() int { return v.sims + v.memHits + v.diskHits }

var evalSummary = regexp.MustCompile(`(\d+) simulations run, (\d+) duplicate requests served from memory, (\d+) runs rehydrated from disk`)

// dcpieval runs the binary once with -j procs and, when cacheDir is set,
// that run cache.
func (e *env) dcpieval(cacheDir string, args ...string) invocation {
	args = append(append([]string(nil), args...), "-j", strconv.Itoa(e.procs))
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	cmd := exec.Command(e.evalBin, args...)
	// dcpieval keeps ephemeral profile databases in temporary directories;
	// those belong in the work directory like everything else.
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	v := invocation{wall: time.Since(start), err: err}
	if ps := cmd.ProcessState; ps != nil {
		v.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			v.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	sum := sha256.Sum256(stdout.Bytes())
	v.digest = hex.EncodeToString(sum[:])
	if m := evalSummary.FindSubmatch(stderr.Bytes()); m != nil {
		v.summary = true
		v.sims, _ = strconv.Atoi(string(m[1]))
		v.memHits, _ = strconv.Atoi(string(m[2]))
		v.diskHits, _ = strconv.Atoi(string(m[3]))
	}
	if err != nil {
		v.err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return v
}

// check is the oracle of one invocation: exit status, the pinned digest of
// standard output, and who did the work. A cold pass simulates every run
// and rehydrates none; a warm pass the reverse. An invocation that fails
// any of them fails all its requests.
func (e *env) checkEval(o *outcome, v *invocation, warm bool) {
	want := e.pinned.EvalSims + e.pinned.EvalDups
	o.attempted += want
	wantSims, wantDisk := e.pinned.EvalSims, 0
	if warm {
		wantSims, wantDisk = 0, e.pinned.EvalSims
	}
	if !v.summary && v.err == nil && wantDisk+e.pinned.EvalDups == 0 {
		// dcpieval prints the summary only when something was served from
		// a cache; a small cold command has nothing to say.
		v.sims = wantSims
	}
	switch {
	case v.err != nil:
		o.fail(want, "dcpieval: %v", v.err)
	case v.digest != e.pinned.EvalDigest:
		o.fail(want, "dcpieval output digest %s, pinned %s", v.digest, e.pinned.EvalDigest)
	case v.sims != wantSims || v.diskHits != wantDisk || v.memHits != e.pinned.EvalDups:
		o.fail(want, "dcpieval ran %d simulations, %d memory hits, %d disk hits; want %d, %d, %d",
			v.sims, v.memHits, v.diskHits, wantSims, e.pinned.EvalDups, wantDisk)
	}
}

// evalMetrics turns a series of invocations into the end-to-end metrics.
// The operation is one run request; an invocation is the unit of wall_s
// and cpu_s and also what op_ms_* time, because a request cannot be seen
// from outside the process.
func evalMetrics(o *outcome, setup []float64, vs []invocation, cacheDir string) {
	m := endToEnd{setup: setup}
	for _, v := range vs {
		m.unit(v.wall, v.cpu)
		m.lat = append(m.lat, ms(v.wall))
		m.opTime += v.wall
		m.ops += v.requests()
		m.peakRSSMB = max(m.peakRSSMB, v.rssMB)
	}
	bytes, files := dirBytes(cacheDir)
	m.bytesPerOp = float64(bytes) / float64(files)
	m.report(o)
}

// runEvalCold times cold invocations, each into a fresh cache directory.
// The set-up of each is that directory and one small warm-up invocation
// (Figure 2, no cache) so that the binary's pages are resident.
func runEvalCold(e *env) (*outcome, error) {
	o := &outcome{}
	var setup []float64
	var vs []invocation
	cacheDir := filepath.Join(e.work, "cache")
	start := time.Now()
	for len(vs) == 0 || fits(start, vs[len(vs)-1].wall, e.seconds) {
		// Three times over, so that setup_s is a median of several.
		for i := 0; i < 3; i++ {
			t := time.Now()
			if err := os.RemoveAll(cacheDir); err != nil {
				return nil, err
			}
			if w := e.dcpieval("", "-fig", "2", "-scale", "0.05"); w.err != nil {
				return nil, fmt.Errorf("warm-up: %w", w.err)
			}
			setup = append(setup, time.Since(t).Seconds())
		}
		v := e.dcpieval(cacheDir, e.size.evalArgs...)
		e.checkEval(o, &v, false)
		vs = append(vs, v)
	}
	evalMetrics(o, setup, vs, cacheDir)
	return o, nil
}

// runEvalWarm fills the cache with one untimed cold pass, which is the
// set-up, then times invocations of the same command against it.
func runEvalWarm(e *env) (*outcome, error) {
	o := &outcome{}
	cacheDir := filepath.Join(e.work, "cache")
	t := time.Now()
	cold := e.dcpieval(cacheDir, e.size.evalArgs...)
	setup := []float64{time.Since(t).Seconds()}
	if cold.err != nil {
		return nil, fmt.Errorf("cold pass: %w", cold.err)
	}
	var vs []invocation
	start := time.Now()
	for len(vs) == 0 || fits(start, vs[len(vs)-1].wall, e.seconds) {
		v := e.dcpieval(cacheDir, e.size.evalArgs...)
		e.checkEval(o, &v, true)
		vs = append(vs, v)
	}
	evalMetrics(o, setup, vs, cacheDir)
	return o, nil
}
