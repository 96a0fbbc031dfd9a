// Package loader models the pieces of the operating system DCPI hooks into
// to learn where images live: the dynamic system loader (/sbin/loader), the
// kernel exec-path recognizer, and the startup scan of already-running
// processes (paper §4.3.2). It owns processes, their address spaces, and
// their image mappings.
package loader

import (
	"fmt"
	"sort"

	"dcpi/internal/alpha"
	"dcpi/internal/image"
	"dcpi/internal/mem"
)

// Address-space layout constants.
const (
	// UserTextBase is where a process's main executable is mapped.
	UserTextBase uint64 = 0x1_2000_0000
	// SharedLibBase is where shared libraries are mapped (packed upward).
	SharedLibBase uint64 = 0x3f_8000_0000
	// StackBase is the top of the initial stack.
	StackBase uint64 = 0x1_4000_0000
	// HeapBase is where workloads place their data arrays.
	HeapBase uint64 = 0x1_6000_0000
	// KernelBase marks the start of kernel space: the kernel image (vmunix)
	// is mapped here in every context. Addresses at or above KernelBase are
	// kernel addresses.
	KernelBase uint64 = 1 << 40
)

// Source says which mechanism reported a mapping, mirroring the three
// loadmap sources in the paper.
type Source uint8

const (
	SourceLoader Source = iota // modified /sbin/loader notification
	SourceExec                 // kernel exec-path recognizer
	SourceScan                 // daemon startup scan of live processes
)

func (s Source) String() string {
	switch s {
	case SourceLoader:
		return "loader"
	case SourceExec:
		return "exec"
	case SourceScan:
		return "scan"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Notification is one loadmap event delivered to the profiling daemon.
type Notification struct {
	PID     uint32
	ImageID uint32
	Path    string
	Base    uint64
	Size    uint64
	Kind    image.Kind
	Source  Source
}

// Mapping places an image at a base address within a process.
type Mapping struct {
	Image *image.Image
	Base  uint64
}

// End returns the first address past the mapping.
func (m Mapping) End() uint64 { return m.Base + m.Image.Size() }

// ProcState is a process's scheduling state.
type ProcState uint8

const (
	ProcRunnable ProcState = iota
	ProcBlocked
	ProcExited
)

// Process is one simulated process: an address space, register state, and
// image mappings.
type Process struct {
	PID  uint32
	Name string

	Regs alpha.Regs
	PC   uint64
	Mem  *mem.Sparse // user portion of the address space

	State  ProcState
	WakeAt int64 // cycle at which a blocked process becomes runnable

	// Kernel-mode bookkeeping: while servicing a syscall or interrupt the
	// process executes kernel code with a saved user resume PC.
	InKernel   bool
	SyscallRet uint64     // user PC to resume at after the syscall (retsys)
	SyscallNo  uint64     // v0 captured at callsys
	IntrRet    uint64     // PC to resume at after an interrupt (rti)
	IntrRegs   alpha.Regs // register file saved by PALcode at interrupt entry

	mappings []Mapping // sorted by base
	lastHit  int       // mapping-lookup cache index
}

// Map adds an image mapping. Mappings must not overlap.
func (p *Process) Map(im *image.Image, base uint64) error {
	for _, m := range p.mappings {
		if base < m.End() && m.Base < base+im.Size() {
			return fmt.Errorf("loader: mapping %s at %#x overlaps %s", im.Name, base, m.Image.Name)
		}
	}
	p.mappings = append(p.mappings, Mapping{im, base})
	sort.Slice(p.mappings, func(i, j int) bool { return p.mappings[i].Base < p.mappings[j].Base })
	p.lastHit = 0
	return nil
}

// Mappings returns the process's mappings, sorted by base address.
func (p *Process) Mappings() []Mapping { return p.mappings }

// Lookup resolves a virtual address to (image, offset). It is on the
// simulator's per-instruction fast path, so it caches the last mapping hit.
func (p *Process) Lookup(addr uint64) (*image.Image, uint64, bool) {
	if n := len(p.mappings); n > 0 {
		if m := p.mappings[p.lastHit]; addr >= m.Base && addr < m.End() {
			return m.Image, addr - m.Base, true
		}
	}
	i := sort.Search(len(p.mappings), func(i int) bool { return p.mappings[i].Base > addr })
	if i == 0 {
		return nil, 0, false
	}
	m := p.mappings[i-1]
	if addr >= m.End() {
		return nil, 0, false
	}
	p.lastHit = i - 1
	return m.Image, addr - m.Base, true
}

// Loader registers images, creates processes, and emits loadmap
// notifications to a subscriber (the profiling daemon).
type Loader struct {
	images      map[uint32]*image.Image
	byPath      map[string]*image.Image
	nextImageID uint32
	nextPID     uint32
	kernel      *image.Image
	procs       []*Process

	// Transform, when set, rewrites images as they are registered — the
	// hook continuous optimization uses to substitute re-laid-out code for
	// the original image (paper §7: the profile database feeds a binary
	// rewriter and the modified image is what subsequently runs). It runs
	// once per distinct path, before ID assignment, so every process maps
	// the transformed image and all samples attribute to its layout.
	// Returning the input unchanged (or nil) keeps the original.
	Transform func(*image.Image) *image.Image
	// Notify receives loadmap events as they happen; nil drops them (the
	// daemon can still recover mappings via Scan, as at daemon startup).
	Notify func(Notification)
	// NotifyExit is called when a process terminates, letting the daemon
	// reap its per-process data structures (paper §4.3.1: the daemon
	// "discards data structures associated with terminated processes").
	NotifyExit func(pid uint32)
}

// New creates a loader with the given kernel image; the kernel is registered
// and implicitly mapped at KernelBase in every process.
func New(kernel *image.Image) *Loader {
	l := &Loader{
		images:      make(map[uint32]*image.Image),
		byPath:      make(map[string]*image.Image),
		nextImageID: 1,
		nextPID:     100,
	}
	l.kernel = l.Register(kernel)
	return l
}

// Register assigns an image ID. Registering the same path twice returns the
// existing image (shared libraries are shared).
func (l *Loader) Register(im *image.Image) *image.Image {
	if existing, ok := l.byPath[im.Path]; ok {
		return existing
	}
	if l.Transform != nil {
		if rw := l.Transform(im); rw != nil {
			im = rw
		}
	}
	im.ID = l.nextImageID
	l.nextImageID++
	l.images[im.ID] = im
	l.byPath[im.Path] = im
	return im
}

// Image returns a registered image by ID.
func (l *Loader) Image(id uint32) (*image.Image, bool) {
	im, ok := l.images[id]
	return im, ok
}

// ImageByPath returns a registered image by filesystem path.
func (l *Loader) ImageByPath(path string) (*image.Image, bool) {
	im, ok := l.byPath[path]
	return im, ok
}

// Images returns all registered images.
func (l *Loader) Images() []*image.Image {
	out := make([]*image.Image, 0, len(l.images))
	for _, im := range l.images {
		out = append(out, im)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Kernel returns the kernel image.
func (l *Loader) Kernel() *image.Image { return l.kernel }

// NewProcess creates a process running exec with the given shared libraries
// mapped, and emits loadmap notifications: the executable through the
// exec-path recognizer, shared libraries through the dynamic loader.
func (l *Loader) NewProcess(name string, exec *image.Image, shared ...*image.Image) (*Process, error) {
	exec = l.Register(exec)
	p := &Process{
		PID:  l.nextPID,
		Name: name,
		Mem:  mem.NewSparse(),
	}
	l.nextPID++

	if err := p.Map(exec, UserTextBase); err != nil {
		return nil, err
	}
	l.notify(p, exec, UserTextBase, SourceExec)

	base := SharedLibBase
	for _, sl := range shared {
		sl = l.Register(sl)
		// Page-align each library's base.
		if err := p.Map(sl, base); err != nil {
			return nil, err
		}
		l.notify(p, sl, base, SourceLoader)
		base += (sl.Size() + mem.PageSize - 1) &^ (mem.PageSize - 1)
	}

	// The kernel is visible in every context.
	if err := p.Map(l.kernel, KernelBase); err != nil {
		return nil, err
	}
	l.notify(p, l.kernel, KernelBase, SourceExec)

	p.PC = UserTextBase
	p.Regs.WriteI(alpha.RegSP, StackBase)
	l.procs = append(l.procs, p)
	return p, nil
}

func (l *Loader) notify(p *Process, im *image.Image, base uint64, src Source) {
	if l.Notify == nil {
		return
	}
	l.Notify(Notification{
		PID:     p.PID,
		ImageID: im.ID,
		Path:    im.Path,
		Base:    base,
		Size:    im.Size(),
		Kind:    im.Kind,
		Source:  src,
	})
}

// Processes returns all processes created so far.
func (l *Loader) Processes() []*Process { return l.procs }

// ProcessExited reports a termination to the exit subscriber.
func (l *Loader) ProcessExited(pid uint32) {
	if l.NotifyExit != nil {
		l.NotifyExit(pid)
	}
}

// Scan re-emits notifications for every live process's mappings, as the
// daemon does at startup for processes that predate it (source = scan).
func (l *Loader) Scan(notify func(Notification)) {
	for _, p := range l.procs {
		if p.State == ProcExited {
			continue
		}
		for _, m := range p.mappings {
			notify(Notification{
				PID:     p.PID,
				ImageID: m.Image.ID,
				Path:    m.Image.Path,
				Base:    m.Base,
				Size:    m.Image.Size(),
				Kind:    m.Image.Kind,
				Source:  SourceScan,
			})
		}
	}
}
