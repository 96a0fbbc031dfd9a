package sim

import (
	"math"

	"dcpi/internal/alpha"
	"dcpi/internal/hw"
	"dcpi/internal/image"
	"dcpi/internal/loader"
	"dcpi/internal/mem"
	"dcpi/internal/pipeline"
)

// The machine's structural description — cache geometries, TLB capacities,
// write-buffer shape, predictor size, issue width — lives in hw.Config
// (hw.Default is the 21164 of DESIGN.md §3); each CPU is built from the
// machine's resolved copy. The default write-buffer drain of 120 cycles per
// 32-byte line models the *contended* memory write path: when a loop streams
// (reads competing with writebacks for the memory bus), stores cannot retire
// faster than this, which is what makes the six-entry buffer fill and the
// paper's Figure 2 stq stalls appear (~10 CPI in the streaming copy loop).
const deliverySkew = 6 // cycles between counter overflow and interrupt delivery

// noOverflow is the overflow cycle of a counter that is not counting: later
// than any clock, with room to add the delivery skew.
const noOverflow = math.MaxInt64 / 2

// CPU is one simulated processor: private caches, TLBs, write buffer,
// branch predictor, performance counters, and a run queue of processes.
type CPU struct {
	id    int
	m     *Machine
	model pipeline.Model
	// tab is the model flattened into per-opcode arrays (latency, FU use),
	// shared by every CPU of the machine; refill folds it into each image's
	// static records (pipeline.Decode).
	tab *pipeline.Tables

	icache, dcache, board *mem.Cache
	itb, dtb              *mem.TLB
	wb                    *mem.WriteBuffer
	pred                  *mem.Predictor

	// Issue-group state: width is hw.Config.IssueWidth; the fixed-size
	// buffers hold the group formed so far, so widening the group past two
	// never allocates on the step path.
	width      int
	groupInsts [hw.MaxIssueWidth]alpha.Inst
	groupMetas [hw.MaxIssueWidth]*alpha.InstMeta

	clock int64
	// regReady is indexed like pipeline.StaticInst's Src and Dst (0..31
	// integer, 32..63 floating point); slot pipeline.NoReg absorbs the
	// result time of an instruction that writes no register, and is never
	// read.
	regReady [pipeline.NoReg + 1]int64
	fuFree   [4]int64 // indexed by pipeline.FU

	// Fetch state. win is the mapping the current process is fetching from;
	// texts memoises one window per image this CPU has executed, so a refill
	// is a mapping lookup and a copy. Both are private to the CPU: nothing
	// shared is written while CPU goroutines run.
	win   textWindow
	texts map[*image.Image]*textWindow
	// The last text page translated, keyed by image like the page map's own
	// text placement (textASN), so it stays valid across context switches.
	textImage           uint32
	textPage, textFrame uint64 // image-relative page number -> physical page address
	haveTextPage        bool

	fetchReadyAt  int64
	lastFetchLine uint64
	haveFetchLine bool
	lastITBPage   uint64
	lastITBASN    uint32
	haveITBPage   bool
	// lastFetchVLine is the virtual I-cache line of the last fetch that did
	// the full work. While haveITBPage holds, lastITBASN and lastITBPage are
	// that fetch's ASN and page, so the same (ASN, virtual line) is the same
	// page, frame and physical line (a line is at most hw's 1 KiB, a page
	// 8 KiB): the full fetch would look up neither the ITB nor the I-cache.
	lastFetchVLine uint64

	// The last data page dataAccess looked up in the DTB and translated:
	// (dataPageASN, dataPage) maps to the physical page address dataFrame;
	// dataPage is noPage until the first data access. A later access to the
	// same page skips the DTB lookup and the translation, and counts the DTB
	// hit alone. That is exact on two conditions:
	//
	//  1. dataAccess is the DTB's only Lookup caller, and mem.TLB has no
	//     flush. So the page is resident and holds the largest
	//     stamp; a Lookup would hit, and skipping its tick++ and stamp
	//     write leaves the order of all stamps as it was.
	//  2. A page's frame is fixed after its first Translate, which is also
	//     the one that counts it in MappedPages.
	//
	// trySlot's feasibility check reads the same memo: the page needs no
	// DTB probe, and a store to it no translation.
	dataPageASN         uint32
	dataPage, dataFrame uint64

	// Performance counters.
	rng        *carta
	cycEnabled bool
	cycNext    int64 // absolute cycle of the next CYCLES overflow; noOverflow with CYCLES off
	evEnabled  bool
	evActive   Event
	// evRemaining holds each event counter's residual count; values
	// persist across mux rotations (the hardware counter is saved and
	// restored when the monitored event switches, so fine-grain
	// multiplexing still accumulates to overflow).
	evRemaining [NumEvents]int64
	// nextMux is the clock at which the second counter's event next
	// rotates: the end of the current mux slot in ModeMux, never otherwise.
	nextMux     int64
	skewed      []Event // event samples awaiting skewed delivery
	pendingCost int64
	nextPoll    int64
	// nextEvent is the earliest of nextTimer, nextMux and, with a sink,
	// nextPoll: step compares the clock with it once on entry and once
	// before the poll. setNextEvent recomputes it wherever one of the three
	// moves.
	nextEvent int64

	// The profile configuration step reads on every group, copied out of
	// the machine's in newCPU.
	sink              Sink
	metaSamples       bool // MetaSamples with CYCLES counting
	interpretBranches bool

	// Double sampling (§7): the second interrupt fires at the next issue
	// group, pairing the previous sample's PC with the next head PC.
	pendingEdge bool
	edgeFromPC  uint64
	edgeFromPID uint32

	// Scheduling.
	runq      []*loader.Process
	cur       *loader.Process
	blocked   int // processes of runq asleep in SysSleep
	rrNext    int
	curSince  int64
	nextTimer int64
	resched   bool
	idle      *loader.Process

	// Statistics.
	instructions, groups, samples, faults uint64
	itbMissStalls                         uint64
	SampleCounts                          [NumEvents]uint64
	ContextSwitches                       uint64

	// Per-CPU shards of what used to be machine-global state, so CPUs can
	// run on separate goroutines without cross-CPU coupling:
	//
	//	pmap  private page-map view. Translation is a pure (seeded) hash,
	//	      so every view assigns identical physical pages; the map inside
	//	      is only memoization.
	//	kmem  private kernel data memory. Kernel code stores tick counters
	//	      and staging copies here, but no kernel *value* ever reaches a
	//	      branch condition or sample — only addresses matter (cache
	//	      behaviour), and those are identical across CPUs.
	//	exact private exact-count shard, merged machine-wide (commutative
	//	      sums, CPU order) after the run barrier.
	pmap  *mem.PageMapper
	kmem  *mem.Sparse
	exact *Counts

	// Pre-allocated executor state: xmem adapts the current process's
	// split address space; xmemI is the one interface value handed to
	// alpha.Execute, so the hot loop never boxes a new one; out is the one
	// outcome Execute fills, reused by every instruction of a group.
	xmem  procMem
	xmemI alpha.Memory
	out   alpha.Outcome
}

func newCPU(id int, m *Machine) *CPU {
	hwc := m.HW
	c := &CPU{
		id:     id,
		m:      m,
		model:  m.Model,
		tab:    m.tables,
		width:  hwc.IssueWidth,
		icache: mem.NewCache(hwc.ICache.CacheConfig("icache")),
		dcache: mem.NewCache(hwc.DCache.CacheConfig("dcache")),
		board:  mem.NewCache(hwc.Board.CacheConfig("board")),
		itb:    mem.NewTLB(hwc.ITBEntries),
		dtb:    mem.NewTLB(hwc.DTBEntries),
		wb:     mem.NewWriteBuffer(hwc.WBEntries, hwc.WBDrainCycles),
		pred:   mem.NewPredictor(hwc.PredEntries),
		rng:    newCarta(m.cfg.Seed + uint32(id)*7919 + 1),
		// Steady-state scratch, sized once so the sample path never grows
		// it: skewed holds at most a few miss events per issue group.
		skewed:            make([]Event, 0, 8),
		pmap:              mem.NewPageMapper(physPages, m.seed),
		kmem:              mem.NewSparse(),
		texts:             make(map[*image.Image]*textWindow),
		nextMux:           math.MaxInt64,
		sink:              m.cfg.Sink,
		interpretBranches: m.cfg.InterpretBranches,
		dataPage:          noPage, // the data-page memo starts empty
	}
	c.xmem = procMem{k: c.kmem}
	c.xmemI = &c.xmem
	if m.Exact != nil {
		c.exact = newCounts()
	}
	switch m.cfg.Mode {
	case ModeCycles:
		c.cycEnabled = true
	case ModeDefault, ModeMux:
		c.cycEnabled = true
		c.evEnabled = true
	}
	if m.cfg.Mode == ModeMux {
		c.nextMux = m.cfg.MuxInterval
	}
	c.evActive = EvIMiss
	c.cycNext = noOverflow
	if c.cycEnabled {
		c.cycNext = m.cfg.CyclesPeriod.draw(c.rng)
	}
	if c.evEnabled {
		for _, ev := range []Event{EvIMiss, EvDMiss, EvBranchMP, EvDTBMiss} {
			c.evRemaining[ev] = m.cfg.EventPeriod.draw(c.rng)
		}
	}
	c.metaSamples = m.cfg.MetaSamples && c.cycEnabled
	c.nextTimer = m.timerInterval
	c.nextPoll = pollInterval
	c.setNextEvent()
	return c
}

// noPage is an impossible virtual page number: pages are addresses shifted
// right by mem.PageShift.
const noPage = ^uint64(0)

// setNextEvent recomputes nextEvent after nextTimer, nextMux or nextPoll
// moved.
func (c *CPU) setNextEvent() {
	c.nextEvent = min(c.nextTimer, c.nextMux)
	if c.sink != nil {
		c.nextEvent = min(c.nextEvent, c.nextPoll)
	}
}

// textPhys translates an image-relative text offset through this CPU's
// page-map view (identical placements on every view; see the pmap field).
// Fetch stays on one page for hundreds of instructions, so the last page's
// frame is remembered; the first touch of a page always goes through
// Translate, which is what assigns and counts it.
func (c *CPU) textPhys(imageID uint32, off uint64) uint64 {
	if page := mem.PageOf(off); !c.haveTextPage || page != c.textPage || imageID != c.textImage {
		c.textFrame = c.pmap.Translate(textASN(imageID), off) &^ (mem.PageSize - 1)
		c.textImage, c.textPage, c.haveTextPage = imageID, page, true
	}
	return c.textFrame | off&(mem.PageSize-1)
}

// textWindow is one mapping of the running process together with the static
// record of every instruction in it (pipeline.Decode under this machine's
// model), so that step and trySlot pay for the mapping lookup, the image's
// tables, operand decoding, latencies and the slotting rule when fetch moves
// to another mapping, not per dynamic instruction.
//
// A window is valid for one process only — two processes may map different
// images at one address — so switchTo empties it. It needs no other
// invalidation: mappings are fixed once the machine runs.
type textWindow struct {
	base, size uint64 // the mapping is [base, base+size); size 0 is the empty window
	id         uint32 // image ID
	insts      []pipeline.StaticInst
	// meta is the image's operand table, read only where the slotting rule
	// is evaluated in full: a group wider than two, or one that ran off the
	// end of a mapping into the next.
	meta []alpha.InstMeta
	// exec and taken are this CPU's exact-count shard for the image; nil
	// unless the machine collects exact counts.
	exec, taken []uint64
}

// holds reports whether pc lies inside the window.
func (w *textWindow) holds(pc uint64) bool { return pc-w.base < w.size }

// count records one execution of instruction idx, and whether it was a taken
// conditional branch, when the machine collects exact counts.
func (w *textWindow) count(idx uint64, takenBranch bool) {
	if w.exec == nil {
		return
	}
	w.exec[idx]++
	if takenBranch {
		w.taken[idx]++
	}
}

// refill points the window at the mapping of p that holds pc. It reports
// false, leaving the window as it was, when pc is outside every mapping.
func (c *CPU) refill(p *loader.Process, pc uint64) bool {
	im, off, ok := p.Lookup(pc)
	if !ok {
		return false
	}
	t := c.texts[im]
	if t == nil {
		meta := im.MetaTable()
		t = &textWindow{size: im.Size(), id: im.ID, meta: meta,
			insts: pipeline.Decode(im.Code, meta, c.tab)}
		if c.exact != nil {
			t.exec, t.taken = c.exact.ensure(im)
		}
		c.texts[im] = t
	}
	c.win = *t
	c.win.base = pc - off
	return true
}

// Run executes until the run queue is drained or the clock reaches
// maxCycles.
func (c *CPU) Run(maxCycles int64) {
	for c.clock < maxCycles {
		if !c.step() {
			return
		}
	}
}

// idleProc lazily creates the kernel idle pseudo-process (PID 0).
func (c *CPU) idleProc() *loader.Process {
	if c.idle == nil {
		p := &loader.Process{PID: 0, Name: "kernel idle", Mem: mem.NewSparse()}
		if err := p.Map(c.m.Loader.Kernel(), loader.KernelBase); err != nil {
			panic(err)
		}
		p.PC = loader.KernelBase + c.m.ABI.IdleEntry
		p.InKernel = true
		c.idle = p
	}
	return c.idle
}

// ensureProcess wakes sleepers whose time has come and picks the process to
// run, round-robin; with every process asleep it runs the idle thread. It
// returns false when every process has exited.
func (c *CPU) ensureProcess() bool {
	if c.blocked > 0 {
		for _, p := range c.runq {
			if p.State == loader.ProcBlocked && p.WakeAt <= c.clock {
				p.State = loader.ProcRunnable
				c.blocked--
			}
		}
	}
	if c.cur != nil && c.cur != c.idle && c.cur.State == loader.ProcRunnable && !c.resched {
		return true
	}
	c.resched = false
	n := len(c.runq)
	for i := 0; i < n; i++ {
		p := c.runq[(c.rrNext+i)%n]
		if p.State == loader.ProcRunnable {
			c.rrNext = (c.rrNext + i + 1) % n
			c.switchTo(p)
			return true
		}
	}
	if c.blocked == 0 {
		return false // everything exited
	}
	c.switchTo(c.idleProc())
	return true
}

func (c *CPU) switchTo(p *loader.Process) {
	if p == c.cur {
		return
	}
	c.cur = p
	c.xmem.p = p
	c.win.size = 0 // the window was the previous process's mapping
	c.curSince = c.clock
	c.ContextSwitches++
	for i := range c.regReady {
		c.regReady[i] = c.clock
	}
	c.haveITBPage = false
	if c.nextTimer < c.clock {
		c.nextTimer = c.clock + c.m.timerInterval
		c.setNextEvent()
	}
}

func (c *CPU) fault(p *loader.Process) {
	c.faults++
	c.exit(p)
}

// exit terminates a process and tells the loader (which tells the daemon).
func (c *CPU) exit(p *loader.Process) {
	p.State = loader.ProcExited
	c.cur = nil
	c.m.Loader.ProcessExited(p.PID)
}

// sameFetchLine reports whether pc, fetched under asn, lies on the line of
// the last full fetch (see lastFetchVLine): fetching it again costs nothing
// and changes no state, so step skips fetch, and trySlot knows it resident.
func (c *CPU) sameFetchLine(asn uint32, pc uint64) bool {
	return c.haveITBPage && c.icache.LineOf(pc) == c.lastFetchVLine && asn == c.lastITBASN
}

// fetch models the front end for the instruction at offset off of image
// imageID, virtual address pc, fetched under asn: ITB lookup and I-cache
// access. It returns the added fetch penalty in cycles.
func (c *CPU) fetch(p *loader.Process, imageID uint32, off, pc uint64, asn uint32) int64 {
	c.lastFetchVLine = c.icache.LineOf(pc)
	var penalty int64
	vpage := mem.PageOf(pc)
	if !c.haveITBPage || vpage != c.lastITBPage || asn != c.lastITBASN {
		if !c.itb.Lookup(asn, vpage) {
			penalty += c.model.TLBMissPenalty
			c.itbMissStalls++
		}
		c.lastITBPage, c.lastITBASN, c.haveITBPage = vpage, asn, true
	}
	phys := c.textPhys(imageID, off)
	line := c.icache.LineOf(phys)
	if !c.haveFetchLine || line != c.lastFetchLine {
		c.lastFetchLine, c.haveFetchLine = line, true
		if !c.icache.Access(phys) {
			c.countEvent(EvIMiss, p.PID, pc)
			if c.board.Access(phys) {
				penalty += c.model.L2Lat
			} else {
				penalty += c.model.MemLat
			}
		}
	}
	return penalty
}

func fetchASN(pid uint32, pc uint64) uint32 {
	if pc >= loader.KernelBase {
		return 0
	}
	return pid
}

// emit delivers one sample to the sink, charging the handler cost.
func (c *CPU) emit(pid uint32, pc uint64, ev Event) {
	c.samples++
	c.SampleCounts[ev]++
	if c.sink != nil {
		c.pendingCost += c.sink.Sample(Sample{CPU: c.id, PID: pid, PC: pc, Event: ev, Clock: c.clock})
	}
}

// emitEdge delivers a double-sampling edge sample (from -> to).
func (c *CPU) emitEdge(pid uint32, from, to uint64) {
	c.samples++
	c.SampleCounts[EvEdge]++
	if c.sink != nil {
		c.pendingCost += c.sink.Sample(Sample{CPU: c.id, PID: pid, PC: from, PC2: to, Event: EvEdge, Clock: c.clock})
	}
}

// deliverCycles attributes CYCLES-counter overflows whose (skewed) delivery
// falls before end — the close of the current head-of-queue interval — to
// the instruction at pc. Head intervals tile time contiguously, so every
// delivery lands in exactly one interval. It returns the number of samples
// delivered.
func (c *CPU) deliverCycles(end int64, pid uint32, pc uint64) int {
	n := 0
	for c.cycNext+deliverySkew < end {
		n++
		c.emit(pid, pc, EvCycles)
		if c.m.cfg.DoubleSample {
			// Careful coding ensures the second interrupt captures the
			// very next instruction (paper §7); the pairing completes at
			// the next issue group.
			c.pendingEdge = true
			c.edgeFromPC = pc
			c.edgeFromPID = pid
		}
		c.cycNext += c.m.cfg.CyclesPeriod.draw(c.rng)
	}
	return n
}

// countEvent counts one occurrence of a miss-type event on the second
// counter; on overflow, IMISS samples attribute directly to the faulting pc
// (usually accurate, §4.1.2) while DMISS/BRANCHMP deliveries are skewed onto
// the next issue group's head instruction.
func (c *CPU) countEvent(ev Event, pid uint32, pc uint64) {
	if !c.evEnabled || ev != c.evActive {
		return
	}
	c.evRemaining[ev]--
	if c.evRemaining[ev] > 0 {
		return
	}
	c.evRemaining[ev] = c.m.cfg.EventPeriod.draw(c.rng)
	if ev == EvIMiss {
		c.emit(pid, pc, ev)
	} else {
		c.skewed = append(c.skewed, ev)
	}
}

// updateMux rotates the second counter's event once the clock has left the
// current mux slot (step calls it at c.clock >= c.nextMux, which only
// ModeMux ever reaches).
func (c *CPU) updateMux() {
	slot := c.clock / c.m.cfg.MuxInterval
	c.nextMux = (slot + 1) * c.m.cfg.MuxInterval
	c.setNextEvent()
	events := [4]Event{EvIMiss, EvDMiss, EvBranchMP, EvDTBMiss}
	c.evActive = events[slot%4] // residual counts persist across rotations
}

func (c *CPU) commit(si *pipeline.StaticInst, issue, loadExtra int64) {
	c.regReady[si.Dst] = issue + int64(si.Lat) + loadExtra
	if si.FU != pipeline.FUNone {
		c.fuFree[si.FU] = issue + int64(si.Busy)
	}
}

// controlFlow applies branch-prediction effects and fetch redirects.
func (c *CPU) controlFlow(p *loader.Process, si *pipeline.StaticInst, pc uint64, out *alpha.Outcome, issue int64) {
	if si.CondBranch {
		if c.pred.Update(pc, out.Taken) {
			c.countEvent(EvBranchMP, p.PID, pc)
			c.fetchReadyAt = issue + 1 + c.model.MispredictPenalty
		} else if out.Taken {
			c.fetchReadyAt = issue + 1 + c.model.TakenBranchBubble
		}
		return
	}
	if out.Taken { // br/bsr/jmp/jsr/ret
		c.fetchReadyAt = issue + 1 + c.model.TakenBranchBubble
	}
}

// dataAccess models the memory system for one executed load or store and
// returns (issueDelay, loadExtra): issueDelay stalls the instruction at
// issue (DTB miss, write-buffer overflow); loadExtra lengthens a load's
// result latency (D-cache miss), stalling consumers instead.
//
// It stays out of line. Under cmd/dcpieval's profile the inliner takes the
// memory model (Cache.Access, TLB.Lookup, PageMapper.Translate,
// WriteBuffer.Store) into dataAccess's own body, but Go matches a hot call
// site by its offset in the function being compiled, so were dataAccess
// itself inlined into step and trySlot, those calls would be cold there
// and stay calls.
//
//go:noinline
func (c *CPU) dataAccess(p *loader.Process, pc uint64, out *alpha.Outcome, at int64) (issueDelay, loadExtra int64) {
	addr := out.MemAddr
	asn, vpage := dataASN(p.PID, addr), mem.PageOf(addr)
	if vpage == c.dataPage && asn == c.dataPageASN { // see dataPage
		c.dtb.Hits++
	} else {
		if !c.dtb.Lookup(asn, vpage) {
			issueDelay += c.model.TLBMissPenalty
			c.countEvent(EvDTBMiss, p.PID, pc)
		}
		c.dataFrame = c.pmap.Translate(asn, addr) &^ (mem.PageSize - 1)
		c.dataPageASN, c.dataPage = asn, vpage
	}
	phys := c.dataFrame | addr&(mem.PageSize-1)
	if out.MemIsStore {
		issueDelay += c.wb.Store(c.dcache.LineOf(phys), at+issueDelay)
		return issueDelay, 0
	}
	if !c.dcache.Access(phys) {
		c.countEvent(EvDMiss, p.PID, pc)
		if c.board.Access(phys) {
			loadExtra = c.model.L2Lat
		} else {
			loadExtra = c.model.MemLat
		}
	}
	return issueDelay, loadExtra
}

// step executes one issue group: the head instruction plus up to
// IssueWidth-1 co-issued partners. It returns false when the CPU has no
// work left.
func (c *CPU) step() bool {
	// The scheduler has nothing to decide while nobody is asleep, no
	// reschedule is pending and the current process can run on. (The idle
	// thread is never that case: it runs only while some process sleeps.)
	if (c.blocked > 0 || c.resched || c.cur == nil || c.cur.State != loader.ProcRunnable) && !c.ensureProcess() {
		return false
	}
	p := c.cur

	if c.clock >= c.nextEvent {
		// Timer interrupt: delivered between issue groups, user mode only
		// (kernel runs at high IPL; see paper §4.1.3 on deferred
		// interrupts).
		if !p.InKernel && c.clock >= c.nextTimer {
			p.IntrRet = p.PC
			p.IntrRegs = p.Regs // PALcode saves state at interrupt entry
			p.InKernel = true
			p.PC = loader.KernelBase + c.m.ABI.TimerEntry
			c.fetchReadyAt = c.clock + PALLatency
		}
		if c.clock >= c.nextMux {
			c.updateMux()
		}
	}

	pc := p.PC
	w := &c.win
	if !w.holds(pc) && !c.refill(p, pc) {
		c.fault(p)
		return true
	}
	off := pc - w.base
	idx := off / alpha.InstBytes
	si := &w.insts[idx]
	if si.Inst.Op == alpha.OpInvalid {
		c.fault(p)
		return true
	}

	h := c.clock

	// Samples skewed from the previous group land on this instruction.
	for _, ev := range c.skewed {
		c.emit(p.PID, pc, ev)
	}
	c.skewed = c.skewed[:0]

	// Complete a pending double sample with this head instruction's PC.
	if c.pendingEdge {
		c.pendingEdge = false
		if c.edgeFromPID == p.PID {
			c.emitEdge(p.PID, c.edgeFromPC, pc)
		}
	}

	// Front end.
	earliest := h
	if c.fetchReadyAt > earliest {
		earliest = c.fetchReadyAt
	}
	if asn := fetchASN(p.PID, pc); !c.sameFetchLine(asn, pc) {
		earliest += c.fetch(p, w.id, off, pc, asn)
	}

	// Operand and functional-unit readiness.
	for _, r := range si.Src[:si.NSrc] {
		if t := c.regReady[r]; t > earliest {
			earliest = t
		}
	}
	if si.FU != pipeline.FUNone {
		if t := c.fuFree[si.FU]; t > earliest {
			earliest = t
		}
	}

	// Architectural execution (switchTo pointed xmem at p). tryPair reuses
	// c.out for the group's other slots, so nothing below it reads the
	// head's outcome.
	out := &c.out
	alpha.Execute(&si.Inst, pc, &p.Regs, c.xmemI, out)
	if out.Kind == alpha.KindIllegal {
		c.fault(p)
		return true
	}

	issue := earliest
	var loadExtra int64
	if out.MemSize != 0 {
		d, le := c.dataAccess(p, pc, out, issue)
		issue += d
		loadExtra = le
	}
	if out.Kind == alpha.KindBarrier {
		issue += c.wb.DrainAll(issue)
	}

	// Head-of-queue accounting and CYCLES sampling for [h, issue+1).
	delivered := 0
	if c.cycNext+deliverySkew < issue+1 { // most groups see no overflow
		delivered = c.deliverCycles(issue+1, p.PID, pc)
	}
	c.groups++
	c.instructions++
	w.count(idx, out.Taken && si.CondBranch)

	c.commit(si, issue, loadExtra)
	c.controlFlow(p, si, pc, out, issue)
	p.PC = out.NextPC

	// Instruction interpretation (§7): a sampled conditional branch is
	// decoded by the handler and its direction recorded as an edge sample.
	if delivered > 0 && c.interpretBranches && si.CondBranch {
		c.emitEdge(p.PID, pc, out.NextPC)
	}

	switch out.Kind {
	case alpha.KindPal:
		c.handlePal(p, pc, out.Pal, issue)
	case alpha.KindHalt:
		c.exit(p)
	default:
		// A group grows only into the head's static successor: one that
		// pairs with it (PairNext), or one in the next mapping, for which
		// trySlot evaluates the slotting rule in full.
		if !out.Taken && p.State == loader.ProcRunnable &&
			(si.PairNext || idx+1 == uint64(len(w.insts))) {
			c.tryPair(p, si.Inst, &w.meta[idx], issue)
		}
	}

	c.clock = issue + 1 + c.pendingCost
	c.pendingCost = 0

	// The "meta" method (paper footnote 2): overflows delivered while the
	// interrupt handler itself runs are attributed to the handler's text
	// rather than rolling onto the next instruction.
	if c.metaSamples {
		handlerPC := loader.KernelBase + c.m.ABI.HandlerEntry
		for c.cycNext+deliverySkew < c.clock {
			c.emit(p.PID, handlerPC, EvCycles)
			c.cycNext += c.m.cfg.CyclesPeriod.draw(c.rng)
		}
		// Recursively-generated handler cost lands at the handler too.
		if c.pendingCost > 0 {
			c.clock += c.pendingCost
			c.pendingCost = 0
		}
	}

	if c.clock >= c.nextEvent && c.sink != nil && c.clock >= c.nextPoll {
		c.clock += c.sink.Poll(c.id, c.clock)
		c.nextPoll = c.clock + pollInterval
		c.setNextEvent()
	}

	return true
}

// tryPair attempts to fill the issue group's remaining slots (up to the
// machine's issue width) with the instructions following the just-issued
// head. Each candidate must pair cleanly with every instruction already in
// the group; a taken branch, fault, or process-state change closes the
// group. At the default width of 2 this is exactly the historical dual-issue
// probe.
func (c *CPU) tryPair(p *loader.Process, head alpha.Inst, headMeta *alpha.InstMeta, issue int64) {
	c.groupInsts[0], c.groupMetas[0] = head, headMeta
	for n := 1; n < c.width; n++ {
		taken, ok := c.trySlot(p, issue, n)
		if !ok || taken || p.State != loader.ProcRunnable {
			return
		}
	}
}

// trySlot attempts to issue the instruction at p.PC into slot n alongside
// the group formed so far (groupInsts[:n]), applying the slotting rules plus
// dynamic feasibility: the candidate's fetch must already be resident, its
// operands and functional unit ready, and its memory access must not need a
// TLB fill or a full write buffer. On success it executes and commits the
// candidate and reports whether it was a taken branch (which closes the
// group).
func (c *CPU) trySlot(p *loader.Process, issue int64, n int) (taken, issued bool) {
	pc2 := p.PC
	w := &c.win
	// A group only grows past an instruction that fell through, so the
	// candidate is the static successor of slot n-1: the window's pairing
	// table answers for that pair, and the pairwise rule is evaluated only
	// against the earlier slots — or against all of them when fetch ran off
	// the end of one mapping into the next.
	pairwise := n - 1 // leading slots still to check with the rule itself
	if !w.holds(pc2) {
		if !c.refill(p, pc2) {
			return false, false
		}
		pairwise = n
	}
	off2 := pc2 - w.base
	idx2 := off2 / alpha.InstBytes
	if pairwise < n && !w.insts[idx2-1].PairNext {
		return false, false
	}
	si2 := &w.insts[idx2]
	if si2.Inst.Op == alpha.OpInvalid {
		return false, false
	}
	meta2 := &w.meta[idx2]
	if pairwise > 0 && !pipeline.CanJoinGroupMeta(c.groupInsts[:pairwise], c.groupMetas[:pairwise], si2.Inst, meta2) {
		return false, false
	}

	// Fetch residency (probe only; a miss will be taken when it is head).
	// The line the head was fetched from is resident by construction.
	if asn2 := fetchASN(p.PID, pc2); !c.sameFetchLine(asn2, pc2) {
		vpage2 := mem.PageOf(pc2)
		if !(c.haveITBPage && vpage2 == c.lastITBPage && asn2 == c.lastITBASN) &&
			!c.itb.Probe(asn2, vpage2) {
			return false, false
		}
		phys2 := c.textPhys(w.id, off2)
		if c.icache.LineOf(phys2) != c.lastFetchLine && !c.icache.Probe(phys2) {
			return false, false
		}
	}

	// Operand and FU readiness at the shared issue cycle.
	for _, r := range si2.Src[:si2.NSrc] {
		if c.regReady[r] > issue {
			return false, false
		}
	}
	if si2.FU != pipeline.FUNone && c.fuFree[si2.FU] > issue {
		return false, false
	}

	// Memory feasibility, computed without architectural effects. The
	// data-page memo's page is resident and translated (see dataPage).
	if si2.Load || si2.Store {
		addr := p.Regs.ReadI(si2.Inst.Rb) + uint64(int64(si2.Inst.Disp))
		asn, vpage := dataASN(p.PID, addr), mem.PageOf(addr)
		memo := vpage == c.dataPage && asn == c.dataPageASN
		if !memo && !c.dtb.Probe(asn, vpage) {
			return false, false
		}
		if si2.Store {
			var phys uint64
			if memo {
				phys = c.dataFrame | addr&(mem.PageSize-1)
			} else {
				phys = c.pmap.Translate(asn, addr)
			}
			if c.wb.Full(c.dcache.LineOf(phys), issue) {
				return false, false
			}
		}
	}

	// Commit the slot.
	out2 := &c.out
	alpha.Execute(&si2.Inst, pc2, &p.Regs, c.xmemI, out2)
	if out2.Kind == alpha.KindIllegal {
		c.fault(p)
		return false, false
	}
	var loadExtra2 int64
	if out2.MemSize != 0 {
		d, le := c.dataAccess(p, pc2, out2, issue)
		loadExtra2 = le + d // any residual delay folds into result latency
	}
	c.instructions++
	w.count(idx2, out2.Taken && si2.CondBranch)
	c.commit(si2, issue, loadExtra2)
	c.controlFlow(p, si2, pc2, out2, issue)
	p.PC = out2.NextPC
	if n+1 < c.width { // a later slot checks against this one
		c.groupInsts[n], c.groupMetas[n] = si2.Inst, meta2
	}
	return out2.Taken, true
}

// handlePal implements the PALcode services: syscall entry/exit and
// interrupt return. The PAL sequence is uninterruptible; its latency shows
// up as a fetch delay on the next instruction, which therefore accumulates
// any samples whose delivery falls inside the window (paper §4.1.3).
func (c *CPU) handlePal(p *loader.Process, pc uint64, pal uint16, issue int64) {
	c.fetchReadyAt = issue + 1 + PALLatency
	switch pal {
	case PalCallsys:
		p.SyscallNo = p.Regs.ReadI(alpha.RegV0)
		p.SyscallRet = pc + alpha.InstBytes
		p.InKernel = true
		p.PC = loader.KernelBase + c.m.ABI.SyscallEntry
	case PalRetsys:
		c.applySyscall(p)
		p.InKernel = false
		p.PC = p.SyscallRet
	case PalRti:
		p.InKernel = false
		p.PC = p.IntrRet
		p.Regs = p.IntrRegs // PALcode restores state at interrupt return
		c.nextTimer = c.clock + c.m.timerInterval
		c.setNextEvent()
		c.resched = true
	default:
		// Unknown PAL call: treated as an expensive no-op.
	}
}

func (c *CPU) applySyscall(p *loader.Process) {
	switch p.SyscallNo {
	case SysExit:
		c.exit(p)
	case SysYield:
		c.resched = true
	case SysSleep:
		p.State = loader.ProcBlocked
		c.blocked++
		p.WakeAt = c.clock + int64(p.Regs.ReadI(alpha.RegA1))
		c.resched = true
	case SysWrite:
		// The kernel code already performed the copy/checksum work.
	case SysGetPID:
		p.Regs.WriteI(alpha.RegV0, uint64(p.PID))
	}
}
