package par

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dcpi/internal/obs"
)

func TestTryExtraNeverOvercommits(t *testing.T) {
	b := NewBudget(4)
	if got := b.TryExtra(3); got != 3 {
		t.Fatalf("TryExtra(3) on empty budget = %d", got)
	}
	if got := b.TryExtra(3); got != 1 {
		t.Fatalf("TryExtra(3) with 1 free = %d", got)
	}
	if got := b.TryExtra(1); got != 0 {
		t.Fatalf("TryExtra on full budget = %d", got)
	}
	b.Release(4)
	if got := b.Used(); got != 0 {
		t.Fatalf("used after full release = %d", got)
	}
}

func TestAcquireMayExceedTotal(t *testing.T) {
	b := NewBudget(2)
	b.Acquire(5) // forced run-level parallelism is never refused
	if got := b.Used(); got != 5 {
		t.Fatalf("used = %d, want 5", got)
	}
	if got := b.TryExtra(1); got != 0 {
		t.Fatalf("TryExtra past total = %d, want 0", got)
	}
	b.Release(7) // over-release clamps at zero
	if got := b.Used(); got != 0 {
		t.Fatalf("used after over-release = %d", got)
	}
}

func TestBudgetConcurrentAccounting(t *testing.T) {
	b := NewBudget(8)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				got := b.TryExtra(2)
				if got > 0 {
					b.Release(got)
				}
			}
		}()
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("used after balanced churn = %d", got)
	}
	if got := b.Total(); got != 8 {
		t.Fatalf("total = %d", got)
	}
}

func TestDoCallsEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, n, n + 3} {
		var calls [n]atomic.Int32
		used := Do(workers, n, func(i int) { calls[i].Add(1) })
		if want := min(workers, n); used != want {
			t.Errorf("workers=%d: Do used %d goroutines, want %d", workers, used, want)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d called %d times", workers, i, got)
			}
		}
	}
	Do(4, 0, func(i int) { t.Errorf("n=0 called fn(%d)", i) })
}

func TestDoOneWorkerIsAPlainLoop(t *testing.T) {
	var order []int
	caller := goid()
	Do(1, 5, func(i int) {
		if goid() != caller {
			t.Errorf("fn(%d) ran off the caller's goroutine", i)
		}
		order = append(order, i)
	})
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// goid returns the current goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestEachOnExhaustedBudgetIsSerial(t *testing.T) {
	b := NewBudget(2)
	b.Acquire(2)
	before := b.Used()
	var order []int
	if used := b.Each(6, func(i int) { order = append(order, i) }); used != 1 {
		t.Errorf("Each on an exhausted budget used %d goroutines", used)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if got := b.Used(); got != before {
		t.Errorf("used = %d after Each, %d before", got, before)
	}

	free := NewBudget(3)
	var calls atomic.Int32
	if used := free.Each(8, func(int) { calls.Add(1) }); used != 4 || calls.Load() != 8 {
		t.Errorf("Each on a free 3-slot budget used %d goroutines for %d calls, want 4 for 8", used, calls.Load())
	}
	if got := free.Used(); got != 0 {
		t.Errorf("Each kept %d slots", got)
	}
}

func TestPublishMetrics(t *testing.T) {
	b := NewBudget(3)
	b.Acquire(2)
	reg := obs.NewRegistry()
	b.PublishMetrics(reg)
	b.PublishMetrics(nil) // nil-safe
	snap := reg.Snapshot()
	if got := snap.Gauges["par.budget_total"]; got != 3 {
		t.Errorf("par.budget_total = %v", got)
	}
	if got := snap.Gauges["par.budget_used"]; got != 2 {
		t.Errorf("par.budget_used = %v", got)
	}
}

// TestDoWaitsForCallsNotHelpers holds Do(2, 2, fn) to three allocations:
// the call's state, its loop, and the helper goroutine, which the runtime
// may have to create afresh when the last helper, having found no work,
// has not run yet — AllocsPerRun runs on one P, where the caller claims
// every index itself. Do counts the calls that returned rather than
// waiting for every helper to exit; waiting cost a WaitGroup and a closure
// per helper on top.
func TestDoWaitsForCallsNotHelpers(t *testing.T) {
	var sink [2]atomic.Int32
	fn := func(i int) { sink[i].Add(1) }
	allocs := testing.AllocsPerRun(200, func() { Do(2, 2, fn) })
	t.Logf("Do(2, 2, fn): %v allocations", allocs)
	if allocs > 3 {
		t.Errorf("Do(2, 2, fn) allocates %v times, want at most 3", allocs)
	}
}
