package mvm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/wcfg"
)

func sessionGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(12, 16, wcfg.Equal(8))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSessionMatchesOneShot: memoized answers across an out-of-order,
// repeating budget list must be identical to independent Search calls,
// including the infeasible region below the tiling minimum.
func TestSessionMatchesOneShot(t *testing.T) {
	g := sessionGraph(t)
	se := NewSession(g)
	ctx := context.Background()
	min := g.TilingMinBudget()
	budgets := []cdag.Weight{min + 200, min, min + 64, min - 1, min + 200, min + 16}
	for _, b := range budgets {
		got, err := se.CostCtx(ctx, guard.Limits{}, b)
		if err != nil {
			t.Fatalf("CostCtx(%d): %v", b, err)
		}
		if want := g.MinCost(b); got != want {
			t.Errorf("CostCtx(%d) = %d, MinCost = %d", b, got, want)
		}
		tc, cost, serr := se.SearchCtx(ctx, guard.Limits{}, b)
		wtc, wcost, werr := g.Search(b)
		if (serr == nil) != (werr == nil) {
			t.Fatalf("SearchCtx(%d) err %v, Search err %v", b, serr, werr)
		}
		if serr == nil && (!reflect.DeepEqual(tc, wtc) || cost != wcost) {
			t.Errorf("SearchCtx(%d) = (%+v, %d), Search = (%+v, %d)", b, tc, cost, wtc, wcost)
		}
	}
}

// TestSessionWarmCostZeroAlloc: a repeated budget query is a map probe.
func TestSessionWarmCostZeroAlloc(t *testing.T) {
	g := sessionGraph(t)
	se := NewSession(g)
	ctx := context.Background()
	b := g.TilingMinBudget() + 64
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

// TestSessionCanceledSweepNotMemoized runs the candidate sweep with a
// dead context: the abort must surface as an error, not be memoized as
// "infeasible", and the session must then answer the same budget
// correctly.
func TestSessionCanceledSweepNotMemoized(t *testing.T) {
	g := sessionGraph(t)
	se := NewSession(g)
	b := g.TilingMinBudget() + 64
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.CostCtx(canceled, guard.Limits{}, b); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled sweep: got %v, want ErrCanceled", err)
	}
	got, err := se.CostCtx(context.Background(), guard.Limits{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.MinCost(b); got != want {
		t.Errorf("after cancellation, CostCtx(%d) = %d, want %d", b, got, want)
	}
}
