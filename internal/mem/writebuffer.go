package mem

// WriteBuffer models the 21164's six-entry merging write buffer. Stores enter
// the buffer and retire to memory one at a time; a store that arrives when
// the buffer is full stalls until the oldest entry retires. Times are in the
// caller's clock units (the simulator uses half-cycles).
//
// This is the component responsible for the long stq stalls in the paper's
// Figure 2 copy loop ("w = write-buffer overflow").
type WriteBuffer struct {
	drainLatency int64 // time to retire one entry to memory

	// lines and retire are a ring of capacity slots, allocated once: the
	// buffered lines' addresses (for merging) and retire-completion times,
	// n entries in FIFO order from slot head.
	lines   []uint64
	retire  []int64
	head, n int

	Stores    uint64
	Merges    uint64
	Overflows uint64 // stores that stalled on a full buffer
	StallTime int64  // total stall time charged
}

// NewWriteBuffer builds a write buffer with capacity entries, each taking
// drainLatency time units to retire to memory. A zero drainLatency models an
// ideal write path — entries retire the moment they arrive, so the buffer
// never fills and stores never stall (the what-if engine's "wb-zero" point).
func NewWriteBuffer(capacity int, drainLatency int64) *WriteBuffer {
	if capacity <= 0 || drainLatency < 0 {
		panic("mem: write buffer needs positive capacity and non-negative drain latency")
	}
	return &WriteBuffer{
		drainLatency: drainLatency,
		lines:        make([]uint64, capacity),
		retire:       make([]int64, capacity),
	}
}

// slot is the ring index of the i-th oldest entry.
func (w *WriteBuffer) slot(i int) int {
	if i += w.head; i >= len(w.lines) {
		i -= len(w.lines)
	}
	return i
}

// drainTo retires every entry whose completion time has passed.
func (w *WriteBuffer) drainTo(now int64) {
	for w.n > 0 && w.retire[w.head] <= now {
		w.head = w.slot(1)
		w.n--
	}
}

// holds reports whether lineAddr has a buffered entry to merge into.
func (w *WriteBuffer) holds(lineAddr uint64) bool {
	for i := 0; i < w.n; i++ {
		if w.lines[w.slot(i)] == lineAddr {
			return true
		}
	}
	return false
}

// Store records a store to the line containing addr at time now and returns
// the stall the storing instruction incurs (0 when the buffer accepts it
// immediately).
func (w *WriteBuffer) Store(lineAddr uint64, now int64) (stall int64) {
	w.Stores++
	w.drainTo(now)

	// Merge into an existing entry for the same line.
	if w.holds(lineAddr) {
		w.Merges++
		return 0
	}

	if w.n >= len(w.lines) {
		// Stall until the oldest entry retires.
		w.Overflows++
		stall = w.retire[w.head] - now
		if stall < 0 {
			stall = 0
		}
		w.StallTime += stall
		now = w.retire[w.head]
		w.drainTo(now)
	}

	// Retirement is serialized: this entry completes drainLatency after the
	// later of now and the previous entry's completion.
	start := now
	if w.n > 0 && w.retire[w.slot(w.n-1)] > start {
		start = w.retire[w.slot(w.n-1)]
	}
	tail := w.slot(w.n)
	w.lines[tail], w.retire[tail] = lineAddr, start+w.drainLatency
	w.n++
	return stall
}

// DrainAll waits for every buffered store to retire (an MB instruction) and
// returns the stall incurred at time now.
func (w *WriteBuffer) DrainAll(now int64) (stall int64) {
	w.drainTo(now)
	if w.n > 0 {
		stall = w.retire[w.slot(w.n-1)] - now
		if stall < 0 {
			stall = 0
		}
		w.n = 0
	}
	w.StallTime += stall
	return stall
}

// Full reports whether a store to lineAddr at time now would stall (buffer
// full and no merge possible). It does not modify the buffer beyond draining
// retired entries.
func (w *WriteBuffer) Full(lineAddr uint64, now int64) bool {
	w.drainTo(now)
	return !w.holds(lineAddr) && w.n >= len(w.lines)
}

// Len returns the number of buffered entries at time now.
func (w *WriteBuffer) Len(now int64) int {
	w.drainTo(now)
	return w.n
}
