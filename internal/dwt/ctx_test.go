package dwt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/wcfg"
)

func ctxGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(16, 3, ConfigWeights(wcfg.Equal(8)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSessionMatchesOneShot: one warm scheduler's guarded answers over
// an out-of-order budget list must be identical to independent cold
// schedulers.
func TestSessionMatchesOneShot(t *testing.T) {
	g := ctxGraph(t)
	se, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	min := core.MinExistenceBudget(g.G)
	budgets := []cdag.Weight{min + 64, min, min + 24, min - 8, min + 64, min + 8}
	cold := func() *Scheduler {
		s, err := NewScheduler(g)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, b := range budgets {
		got, err := se.CostCtx(ctx, guard.Limits{}, b)
		if err != nil {
			t.Fatalf("CostCtx(%d): %v", b, err)
		}
		if want := cold().MinCost(b); got != want {
			t.Errorf("CostCtx(%d) = %d, cold MinCost = %d", b, got, want)
		}
		gs, gerr := se.ScheduleCtx(ctx, guard.Limits{}, b)
		ws, werr := cold().Schedule(b)
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
	g := ctxGraph(t)
	se, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := core.MinExistenceBudget(g.G) + 24
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

// TestSessionAbortThenReuse: a resource-limited query aborts typed,
// then the same scheduler answers correctly — no memo poisoning.
func TestSessionAbortThenReuse(t *testing.T) {
	g := ctxGraph(t)
	se, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := core.MinExistenceBudget(g.G) + 32
	if _, err := se.CostCtx(ctx, guard.Limits{MaxMemoEntries: 1}, b); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("limited query: got %v, want ErrBudgetExceeded", err)
	}
	got, err := se.CostCtx(ctx, guard.Limits{}, b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.MinCost(b); got != want {
		t.Errorf("after abort, CostCtx(%d) = %d, want %d", b, got, want)
	}
}
