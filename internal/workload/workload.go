package workload

import (
	"fmt"
	"math"
	"sort"

	"dcpi/internal/alpha"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/sim"
)

// Ctx is handed to a workload's Setup to create and place its processes.
type Ctx struct {
	Loader *loader.Loader
	// Machine is what the processes are spawned on. With a nil Machine
	// nothing will run, and Setup builds a shell for the offline tools,
	// which read images and never a process's data: the same images
	// registered in the same order, the same processes with their mappings
	// and registers, and no process memory written (see runs).
	Machine *sim.Machine
	// Scale multiplies repeat counts; 1.0 is the default experiment size.
	Scale float64
}

// runs reports whether the processes being set up will execute. Everything
// that writes a process's initial data checks it, so a shell allocates no
// memory pages.
func (c *Ctx) runs() bool { return c.Machine != nil }

func (c *Ctx) scaled(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(math.Round(float64(n) * s))
	if v < 1 {
		v = 1
	}
	return v
}

// Spec describes one workload from Table 2.
type Spec struct {
	Name        string
	Description string
	// NumCPUs is the machine size the paper ran this workload on.
	NumCPUs int
	// MaxCycles bounds the run (a safety net; workloads normally exit).
	MaxCycles int64
	Setup     func(*Ctx) error
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate " + s.Name)
	}
	if s.NumCPUs == 0 {
		s.NumCPUs = 1
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = 1 << 33
	}
	registry[s.Name] = s
}

// Get returns a workload spec by name.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names lists all registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// newProcess assembles src into an executable image, creates a process with
// the given shared libraries, and spawns it on the machine (if there is one).
// The loader keeps one image per path, so only the first process of a
// program (gcc has 14) pays for the assembly.
func newProcess(ctx *Ctx, procName, path, src string, libs ...*image.Image) (*loader.Process, error) {
	exec, ok := ctx.Loader.ImageByPath(path)
	if !ok {
		asm, err := alpha.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", procName, err)
		}
		exec = image.New(procName, path, image.KindExecutable, asm)
	}
	p, err := ctx.Loader.NewProcess(procName, exec, libs...)
	if err != nil {
		return nil, err
	}
	if ctx.runs() {
		ctx.Machine.Spawn(p)
	}
	return p, nil
}

// fillMemory writes a deterministic pseudo-random pattern of n quadwords at
// base, so loads see varied values and data-dependent branches have texture.
func (c *Ctx) fillMemory(p *loader.Process, base uint64, n int, seed uint64) {
	if !c.runs() {
		return
	}
	x := seed*2654435761 + 12345
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.Mem.Store(base+uint64(i)*8, 8, x)
	}
}

// plt writes a procedure-linkage table into process memory: the resolved
// virtual addresses of (image, symbol) pairs, 8 bytes each, at base. Code
// reaches cross-image procedures with ldq pv, 8*i(gp); jsr ra, (pv).
func (c *Ctx) plt(p *loader.Process, base uint64, entries []pltEntry) error {
	for i, e := range entries {
		var addr uint64
		found := false
		for _, m := range p.Mappings() {
			if m.Image == e.im {
				s, ok := m.Image.Symbol(e.sym)
				if !ok {
					return fmt.Errorf("workload: image %s has no symbol %s", e.im.Name, e.sym)
				}
				addr = m.Base + s.Offset
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("workload: image %s not mapped", e.im.Name)
		}
		if c.runs() {
			p.Mem.Store(base+uint64(i)*8, 8, addr)
		}
	}
	return nil
}

type pltEntry struct {
	im  *image.Image
	sym string
}

// sharedLib assembles a shared-library image once per path (the loader
// dedups by path, so multiple processes share it).
func sharedLib(name, path, src string) *image.Image {
	return image.New(name, path, image.KindShared, alpha.MustAssemble(src))
}
