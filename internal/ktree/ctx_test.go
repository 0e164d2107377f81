package ktree

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
)

func ctxTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := FullTree(3, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight((d+i)%2) })
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSessionMatchesOneShot: one warm scheduler's guarded answers over
// an out-of-order, repeating budget list must be identical to
// independent cold schedulers — the warm memo changes the work, never
// the answer.
func TestSessionMatchesOneShot(t *testing.T) {
	tr := ctxTree(t)
	se := NewScheduler(tr)
	ctx := context.Background()
	min := core.MinExistenceBudget(tr.G)
	budgets := []cdag.Weight{min + 9, min, min + 4, min - 1, min + 9, min + 2, min + 7}
	for _, b := range budgets {
		got, err := se.CostCtx(ctx, guard.Limits{}, b)
		if err != nil {
			t.Fatalf("CostCtx(%d): %v", b, err)
		}
		if want := NewScheduler(tr).MinCost(b); got != want {
			t.Errorf("CostCtx(%d) = %d, cold MinCost = %d", b, got, want)
		}
		gs, gerr := se.ScheduleCtx(ctx, guard.Limits{}, b)
		ws, werr := NewScheduler(tr).Schedule(b)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("ScheduleCtx(%d) err %v, cold Schedule err %v", b, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(gs, ws) {
			t.Errorf("ScheduleCtx(%d) differs from cold Schedule", b)
		}
	}
}

// TestSessionWarmCostZeroAlloc: a repeated budget query is a pure memo
// probe through the scheduler's reused guard checker.
func TestSessionWarmCostZeroAlloc(t *testing.T) {
	tr := ctxTree(t)
	se := NewScheduler(tr)
	ctx := context.Background()
	b := core.MinExistenceBudget(tr.G) + 3
	if _, err := se.CostCtx(ctx, guard.Limits{}, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		se.CostCtx(ctx, guard.Limits{}, b) //nolint:errcheck
	})
	if allocs != 0 {
		t.Errorf("warm CostCtx allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSessionAbortThenReuse: a resource-limited query aborts with the
// typed error, and the same scheduler then answers correctly with no
// limits — aborted work never poisons the memo.
func TestSessionAbortThenReuse(t *testing.T) {
	tr := ctxTree(t)
	se := NewScheduler(tr)
	ctx := context.Background()
	b := core.MinExistenceBudget(tr.G) + 5
	if _, err := se.CostCtx(ctx, guard.Limits{MaxMemoEntries: 1}, b); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("limited query: got %v, want ErrBudgetExceeded", err)
	}
	got, err := se.CostCtx(ctx, guard.Limits{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := NewScheduler(tr).MinCost(b); got != want {
		t.Errorf("after abort, CostCtx(%d) = %d, want %d", b, got, want)
	}
}

// TestCostCtxCanceledSmallQuery: a cold query with only a few cells
// still honours a context that is dead before it starts, and the
// scheduler answers correctly once the context is live again.
func TestCostCtxCanceledSmallQuery(t *testing.T) {
	tr := ctxTree(t)
	se := NewScheduler(tr)
	b := 2 * core.MinExistenceBudget(tr.G)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := se.CostCtx(canceled, guard.Limits{}, b); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("CostCtx under a canceled context = %d, %v; want ErrCanceled", c, err)
	}
	got, err := se.CostCtx(context.Background(), guard.Limits{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := NewScheduler(tr).MinCost(b); got != want {
		t.Errorf("after cancellation, CostCtx(%d) = %d, want %d", b, got, want)
	}
}
