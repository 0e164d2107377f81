// Package par provides the bounded worker pool shared by the
// experiment sweeps (internal/bench) and the mvm tile search. It lives
// below both so that packages bench depends on can use it without an
// import cycle.
//
// Workers are crash-isolated: a panic inside f is recovered and
// surfaced as a *PanicError naming the offending item and carrying the
// recovery-time stack, instead of killing the process. MapCtx
// additionally stops dispatching when the context is canceled; the
// cancellation is visible to in-flight workers through whatever
// context their closure captured (hand them the same ctx).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
)

// Worker-pool observability: items evaluated, panics recovered, and
// cumulative busy time across all workers (busy seconds divided by
// wall time and GOMAXPROCS gives pool utilization). Items are
// coarse-grained (a solve, a sweep point), so two clock reads per item
// are noise.
var (
	tasksTotal  = obs.Default.Counter("wrbpg_par_tasks_total", "Worker-pool items evaluated.")
	panicsTotal = obs.Default.Counter("wrbpg_par_panics_total", "Worker panics recovered as *par.PanicError.")
	busyNanos   atomic.Int64
)

func init() {
	obs.Default.CounterFunc("wrbpg_par_busy_seconds_total",
		"Cumulative worker busy time across the pool.",
		func() float64 { return float64(busyNanos.Load()) / 1e9 })
}

// PanicError wraps a panic recovered inside a worker: the index of the
// input item whose evaluation panicked, the recovered value, and the
// stack captured at recovery time.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic on item %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// faultHook, when installed, runs before each item is evaluated — a
// deterministic fault-injection point for tests (panic or delay chosen
// items). It must be safe for concurrent use.
var faultHook atomic.Pointer[func(index int)]

// SetFaultHook installs a test-only fault-injection hook called with
// each item's index before f runs, and returns a restore function.
// Pass the hook a panic or a sleep to simulate crashing or hung
// workers. SetFaultHook(nil) clears the hook.
func SetFaultHook(h func(index int)) (restore func()) {
	var prev *func(index int)
	if h == nil {
		prev = faultHook.Swap(nil)
	} else {
		prev = faultHook.Swap(&h)
	}
	return func() { faultHook.Store(prev) }
}

// Fault invokes the installed fault hook for item index i, or does
// nothing when no hook is installed. Serial iteration points outside
// the pool (session budget sweeps) call it per item so the same
// SetFaultHook tests exercise them; callers are expected to recover
// the hook's panic exactly as the pool workers do.
func Fault(i int) {
	if h := faultHook.Load(); h != nil {
		(*h)(i)
	}
}

// MapCtx evaluates f over every input on a bounded worker pool and
// returns the outputs in input order. workers ≤ 0 selects
// GOMAXPROCS. The first error wins: once any job fails, the producer
// stops submitting new work, the remaining workers drain, and MapCtx
// returns that error — jobs not yet started are never evaluated.
// A panicking f surfaces as a *PanicError, not a process crash.
//
// Once ctx is done, no further job is dispatched, the pool drains,
// and the typed cancellation reason (guard.ErrCanceled /
// guard.ErrDeadline) is returned — unless a worker failed first, in
// which case that error wins. In-flight evaluations are not preempted
// (Go cannot kill a goroutine); long-running f bodies should capture
// ctx and check it.
func MapCtx[I, O any](ctx context.Context, workers int, in []I, f func(I) (O, error)) ([]O, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(in) {
		workers = len(in)
	}
	out := make([]O, len(in))
	if len(in) == 0 {
		return out, nil
	}
	eval := func(i int) (err error) {
		start := time.Now()
		tasksTotal.Inc()
		defer func() {
			busyNanos.Add(int64(time.Since(start)))
			if r := recover(); r != nil {
				panicsTotal.Inc()
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if h := faultHook.Load(); h != nil {
			(*h)(i)
		}
		y, err := f(in[i])
		if err != nil {
			return err
		}
		out[i] = y
		return nil
	}
	if workers <= 1 {
		for i := range in {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			if err := eval(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stop.Load() {
					continue // drain without evaluating
				}
				if err := eval(i); err != nil {
					fail(err)
				}
			}
		}()
	}
	var ctxAbort error
	done := ctx.Done()
produce:
	for i := range in {
		if stop.Load() {
			break
		}
		select {
		case <-done:
			ctxAbort = guard.Wrap(ctx.Err())
			stop.Store(true)
			break produce
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	// A worker's own failure is more informative than the cancellation
	// that raced with it; keep the original first-error-wins contract.
	if firstErr != nil {
		return nil, firstErr
	}
	if ctxAbort != nil {
		return nil, ctxAbort
	}
	return out, nil
}

// ctxErr polls ctx without blocking, mapping the reason onto the
// guard taxonomy.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return guard.Wrap(ctx.Err())
	default:
		return nil
	}
}

// Chunks splits the half-open index range [0, n) into at most parts
// contiguous chunks of near-equal length, returned as [lo, hi) pairs.
// Useful for handing each worker a contiguous slice when per-item
// dispatch is too fine-grained (e.g. one stateful scheduler per chunk).
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		size := n / parts
		if i < n%parts {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}
