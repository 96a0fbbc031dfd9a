package mem

// WriteBuffer models the 21164's six-entry merging write buffer. Stores enter
// the buffer and retire to memory one at a time; a store that arrives when
// the buffer is full stalls until the oldest entry retires. Times are in the
// caller's clock units (the simulator uses half-cycles).
//
// This is the component responsible for the long stq stalls in the paper's
// Figure 2 copy loop ("w = write-buffer overflow").
type WriteBuffer struct {
	capacity     int
	drainLatency int64 // time to retire one entry to memory

	// entries holds the retire-completion time of each buffered line, in
	// FIFO order, alongside the line address for merging.
	lines  []uint64
	retire []int64

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
	return &WriteBuffer{capacity: capacity, drainLatency: drainLatency}
}

// drainTo retires every entry whose completion time has passed.
func (w *WriteBuffer) drainTo(now int64) {
	i := 0
	for i < len(w.retire) && w.retire[i] <= now {
		i++
	}
	w.lines = w.lines[i:]
	w.retire = w.retire[i:]
}

// Store records a store to the line containing addr at time now and returns
// the stall the storing instruction incurs (0 when the buffer accepts it
// immediately).
func (w *WriteBuffer) Store(lineAddr uint64, now int64) (stall int64) {
	w.Stores++
	w.drainTo(now)

	// Merge into an existing entry for the same line.
	for _, l := range w.lines {
		if l == lineAddr {
			w.Merges++
			return 0
		}
	}

	if len(w.lines) >= w.capacity {
		// Stall until the oldest entry retires.
		w.Overflows++
		stall = w.retire[0] - now
		if stall < 0 {
			stall = 0
		}
		w.StallTime += stall
		now = w.retire[0]
		w.drainTo(now)
	}

	// Retirement is serialized: this entry completes drainLatency after the
	// later of now and the previous entry's completion.
	start := now
	if n := len(w.retire); n > 0 && w.retire[n-1] > start {
		start = w.retire[n-1]
	}
	w.lines = append(w.lines, lineAddr)
	w.retire = append(w.retire, start+w.drainLatency)
	return stall
}

// DrainAll waits for every buffered store to retire (an MB instruction) and
// returns the stall incurred at time now.
func (w *WriteBuffer) DrainAll(now int64) (stall int64) {
	w.drainTo(now)
	if n := len(w.retire); n > 0 {
		stall = w.retire[n-1] - now
		if stall < 0 {
			stall = 0
		}
		w.lines = w.lines[:0]
		w.retire = w.retire[:0]
	}
	w.StallTime += stall
	return stall
}

// Full reports whether a store to lineAddr at time now would stall (buffer
// full and no merge possible). It does not modify the buffer beyond draining
// retired entries.
func (w *WriteBuffer) Full(lineAddr uint64, now int64) bool {
	w.drainTo(now)
	for _, l := range w.lines {
		if l == lineAddr {
			return false
		}
	}
	return len(w.lines) >= w.capacity
}

// Len returns the number of buffered entries at time now.
func (w *WriteBuffer) Len(now int64) int {
	w.drainTo(now)
	return len(w.lines)
}
