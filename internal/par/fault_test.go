package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wrbpg/internal/guard"
)

// TestMapPanicIsolated: a panicking worker must surface as a
// *PanicError naming the offending item, not crash the process, on
// both the serial and the pooled path.
func TestMapPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		in := []int{10, 20, 30, 40, 50, 60, 70, 80}
		_, err := MapCtx(context.Background(), workers, in, func(x int) (int, error) {
			if x == 30 {
				panic("injected worker crash")
			}
			return x, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 2 {
			t.Fatalf("workers=%d: PanicError.Index = %d, want 2", workers, pe.Index)
		}
		if !strings.Contains(pe.Error(), "injected worker crash") {
			t.Fatalf("workers=%d: error text %q lacks panic value", workers, pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError.Stack empty", workers)
		}
	}
}

// TestFaultHookPanic: the injection hook deterministically crashes a
// chosen item; the pool survives and reports that item.
func TestFaultHookPanic(t *testing.T) {
	restore := SetFaultHook(func(i int) {
		if i == 5 {
			panic("hooked fault on item 5")
		}
	})
	defer restore()
	in := make([]int, 16)
	_, err := MapCtx(context.Background(), 4, in, func(x int) (int, error) { return x, nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 5 {
		t.Fatalf("PanicError.Index = %d, want 5", pe.Index)
	}
	restore()
	if _, err := MapCtx(context.Background(), 4, in, func(x int) (int, error) { return x, nil }); err != nil {
		t.Fatalf("after restore: err = %v", err)
	}
}

// TestFaultHookRestoresPrevious: SetFaultHook returns a restore that
// reinstates whatever hook was active before.
func TestFaultHookRestoresPrevious(t *testing.T) {
	var outerCalls atomic.Int64
	restoreOuter := SetFaultHook(func(int) { outerCalls.Add(1) })
	defer restoreOuter()
	restoreInner := SetFaultHook(nil)
	if _, err := MapCtx(context.Background(), 2, []int{1, 2}, func(x int) (int, error) { return x, nil }); err != nil {
		t.Fatal(err)
	}
	if outerCalls.Load() != 0 {
		t.Fatal("cleared hook still ran")
	}
	restoreInner()
	if _, err := MapCtx(context.Background(), 2, []int{1, 2}, func(x int) (int, error) { return x, nil }); err != nil {
		t.Fatal(err)
	}
	if outerCalls.Load() != 2 {
		t.Fatalf("outer hook ran %d times after restore, want 2", outerCalls.Load())
	}
}

// TestMapCtxCanceledBeforeStart: an already-canceled context aborts
// before any evaluation.
func TestMapCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(ctx, workers, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(x int) (int, error) {
			calls.Add(1)
			return x, nil
		})
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want guard.ErrCanceled", workers, err)
		}
	}
	if n := calls.Load(); n > 8 {
		t.Fatalf("%d evaluations after pre-cancellation", n)
	}
}

// TestMapCtxPromptAbort: cancelling mid-flight stops dispatch promptly
// — delayed items keep the pool busy while the context dies, and the
// vast majority of the input must never be evaluated.
func TestMapCtxPromptAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 10000
	in := make([]int, n)
	var calls atomic.Int64
	restore := SetFaultHook(func(i int) {
		calls.Add(1)
		// Hold every worker long enough for the cancellation to land.
		time.Sleep(5 * time.Millisecond)
	})
	defer restore()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := MapCtx(ctx, 4, in, func(x int) (int, error) { return x, nil })
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if c := calls.Load(); c > n/10 {
		t.Fatalf("%d of %d items evaluated after cancellation", c, n)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("MapCtx took %v to abort", d)
	}
}

// TestMapCtxDeadline maps a deadline onto guard.ErrDeadline.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	restore := SetFaultHook(func(int) { time.Sleep(2 * time.Millisecond) })
	defer restore()
	in := make([]int, 1000)
	_, err := MapCtx(ctx, 2, in, func(x int) (int, error) { return x, nil })
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("err = %v, want guard.ErrDeadline", err)
	}
}

// TestMapWorkerErrorBeatsCancellation: when a worker fails and the
// context dies in the same window, the worker's error wins (it is the
// more informative first cause).
func TestMapWorkerErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 2, []int{0, 1, 2, 3}, func(x int) (int, error) {
		if x == 0 {
			cancel()
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
