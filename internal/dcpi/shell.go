package dcpi

// The offline side of the system — rehydrated run-cache entries, out-of-shard
// placeholders, the database tools — reads a workload's images (paper §4.3,
// §6) and the machine model, never a process's data. A shell is exactly that
// much of a run's set-up: the loader with every image registered in the order
// the live run registered them (image IDs are what exact counts are keyed
// by), the processes with their mappings and registers, and the two facts of
// the machine that a served result reads — its model and its CPU count. No
// machine is built: caches, TLBs and write buffers serve only a run. A shell
// is built by the workload's own Setup with no machine to spawn on, which is
// how Setup knows to write no process memory.
//
// Set-up is a pure function of a few configuration fields, so shells are
// shared: one per distinct shape for the life of the process, built once
// however many goroutines ask.

import (
	"fmt"
	"strings"
	"sync"

	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/pipeline"
	"dcpi/internal/workload"
)

// shell is one entry of the shared table. The loader is read-only once
// built (see Result).
type shell struct {
	once   sync.Once
	loader *loader.Loader
	model  pipeline.Model // the model a machine of cfg.HW runs
	ncpu   int            // the CPUs such a machine has
	err    error
}

var shells sync.Map // shellKey -> *shell

// shellKey renders exactly the inputs set-up reads: the workload, the scale
// its repeat counts and generated sources are built from, the machine size
// and description, and the rewrites in the order the loader tries them.
// Seed, mode, periods, faults and the rest of Config shape what a run
// measures, not what it loads, and must stay out (the key exhaustiveness
// test in internal/runner classifies every field).
func shellKey(cfg Config, scale float64, ncpu int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%g|%d|%s", cfg.Workload, scale, ncpu, cfg.HW.String())
	for _, lay := range cfg.Rewrites {
		fmt.Fprintf(&b, "|%s=%s", lay.Path, lay.Digest())
	}
	return b.String()
}

// sharedShell returns the shell for cfg's shape, building it on first use.
// Every consumer of images outside a live run comes through here:
// DecodeSnapshot, PlaceholderResult, SetupImages and OpenView. A failed
// build is remembered like a successful one: it is as deterministic in the
// key. Builds and reuses are counted in cfg.Obs.Registry.
func sharedShell(cfg Config) (*shell, error) {
	spec, ok := workload.Get(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("dcpi: unknown workload %q (have %v)", cfg.Workload, workload.Names())
	}
	ncpu := cfg.numCPUs(spec)
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1 // what workload.Ctx makes of it
	}
	key := shellKey(cfg, scale, ncpu)
	v, ok := shells.Load(key)
	if !ok {
		v, _ = shells.LoadOrStore(key, new(shell))
	}
	sh := v.(*shell)
	built := false
	sh.once.Do(func() {
		built = true
		sh.loader, sh.err = buildShell(spec, cfg, scale)
		sh.model, sh.ncpu = cfg.HW.Resolved().Model, ncpu // what sim.NewMachine makes of them
	})
	reg := cfg.Obs.Registry // nil-safe
	if built {
		reg.Counter("dcpi.shell_builds").Inc()
	} else {
		reg.Counter("dcpi.shell_hits").Inc()
	}
	if sh.err != nil {
		return nil, sh.err
	}
	return sh, nil
}

// buildShell runs the set-up phase of Run with nothing to run on.
func buildShell(spec workload.Spec, cfg Config, scale float64) (*loader.Loader, error) {
	if err := cfg.HW.Validate(); err != nil {
		return nil, fmt.Errorf("dcpi: %w", err)
	}
	kernel, _ := workload.Kernel()
	l := loader.New(kernel)
	rewriteErr := installRewrites(l, cfg.Rewrites)
	if err := spec.Setup(&workload.Ctx{Loader: l, Scale: scale}); err != nil {
		return nil, err
	}
	if err := rewriteErr(); err != nil {
		return nil, err
	}
	l.Transform = nil // set-up is over; don't keep the layouts alive with the shell
	return l, nil
}

// installRewrites makes the loader substitute each rewritten image as the
// workload registers it (Config.Rewrites). The returned function reports,
// once set-up is over, the first layout that failed to apply: the loader
// keeps the original image in that case, so the caller must not go on.
func installRewrites(l *loader.Loader, rewrites []image.Layout) (failed func() error) {
	var first error
	if len(rewrites) > 0 {
		l.Transform = func(im *image.Image) *image.Image {
			for _, lay := range rewrites {
				if lay.Path != im.Path {
					continue
				}
				rw, err := im.WithLayout(lay)
				if err != nil {
					if first == nil {
						first = err
					}
					return nil
				}
				return rw
			}
			return nil
		}
	}
	return func() error {
		if first != nil {
			return fmt.Errorf("dcpi: rewrite failed: %w", first)
		}
		return nil
	}
}
