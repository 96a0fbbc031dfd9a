// Package par is the one place work fans out over goroutines: Do runs an
// index range on a fixed number of workers, and the process-wide Budget, a
// single pool of host-CPU "slots", decides how many a CPU-bound layer may
// borrow (Budget.Each). Two layers compete for host parallelism:
//
//   - internal/runner schedules whole simulated runs concurrently
//     (dcpieval's -j run-level workers), and
//   - internal/sim can run each simulated CPU of one machine on its own
//     goroutine (Options.SimWorkers; the runner and dcpid always ask).
//
// Without coordination the two multiply: -j 8 runs of 8-CPU machines would
// spawn 64 simulation goroutines on an 8-core host. The budget prevents
// that nested oversubscription: each in-flight run reserves one slot for
// its own goroutine, and a machine in auto mode (SimWorkers -1) only adds
// per-CPU goroutines while free slots remain. Acquisition is non-blocking
// on both sides, so there is no lock ordering between the runner's pool
// and the machine barrier — a machine that finds the budget exhausted
// simply runs its CPUs sequentially, which is always correct (parallel and
// sequential simulation produce byte-identical output; see DESIGN.md).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dcpi/internal/obs"
)

// Do calls fn(0), …, fn(n-1) on up to workers goroutines, the caller's
// among them, and returns once every call has returned, so whatever the
// calls wrote happens-before Do's return. Indices are claimed in ascending
// order from one counter; with one worker Do is a plain loop on the caller.
// Do waits for calls, not for goroutines: a helper that starts after the
// last index was claimed finds no work and exits without being waited
// for. It returns how many goroutines ran.
func Do(workers, n int, fn func(i int)) int {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return 1
	}
	d := &doing{n: int64(n), fn: fn}
	d.wg.Add(1)
	loop := d.loop
	for range workers - 1 {
		go loop()
	}
	loop()
	d.wg.Wait()
	return workers
}

// doing is one Do call's shared state: the next index to claim, and how
// many calls have returned. Whichever goroutine brings done to n releases
// the caller.
type doing struct {
	next, done atomic.Int64
	n          int64
	fn         func(i int)
	wg         sync.WaitGroup
}

// loop claims and calls indices until none is left, then adds the calls
// it made to done.
func (d *doing) loop() {
	var calls int64
	for i := d.next.Add(1) - 1; i < d.n; i = d.next.Add(1) - 1 {
		d.fn(int(i))
		calls++
	}
	if calls > 0 && d.done.Add(calls) == d.n {
		d.wg.Done()
	}
}

// Budget is a fixed pool of worker slots. The zero value is unusable; use
// NewBudget or the process-wide Default.
type Budget struct {
	mu    sync.Mutex
	total int
	used  int
}

// NewBudget creates a budget of n slots; n <= 0 means runtime.GOMAXPROCS(0).
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Budget{total: n}
}

var defaultBudget = NewBudget(0)

// Default returns the process-wide budget, sized to GOMAXPROCS at init.
func Default() *Budget { return defaultBudget }

// Total returns the slot count.
func (b *Budget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Used returns the currently reserved slots (may exceed Total when callers
// force reservations beyond the budget, e.g. -j larger than GOMAXPROCS).
func (b *Budget) Used() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Acquire unconditionally reserves n slots, even past Total: run-level
// parallelism is the caller's explicit choice and is never refused, it just
// shrinks what TryExtra will hand out. Pair with Release.
func (b *Budget) Acquire(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.used += n
	b.mu.Unlock()
}

// TryExtra reserves up to max additional slots from the free remainder and
// returns how many it got (possibly zero). It never blocks and never
// overcommits. Pair with Release for the granted count.
func (b *Budget) TryExtra(max int) int {
	if max <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	free := b.total - b.used
	if free <= 0 {
		return 0
	}
	if free < max {
		max = free
	}
	b.used += max
	return max
}

// Release returns n slots to the pool.
func (b *Budget) Release(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Each runs Do over n indices on the caller plus as many free slots as the
// budget lends (at most n-1), and returns the slots when Do does. An
// exhausted budget makes it a plain loop on the caller.
func (b *Budget) Each(n int, fn func(i int)) int {
	extra := b.TryExtra(n - 1)
	defer b.Release(extra)
	return Do(1+extra, n, fn)
}

// PublishMetrics writes the budget's current state into reg (nil-safe).
func (b *Budget) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.mu.Lock()
	total, used := b.total, b.used
	b.mu.Unlock()
	reg.Gauge("par.budget_total").Set(float64(total))
	reg.Gauge("par.budget_used").Set(float64(used))
}
