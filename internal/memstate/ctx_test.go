package memstate

import (
	"context"
	"errors"
	"testing"

	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
)

func ctxFixture(t *testing.T) (*ktree.Tree, cdag.NodeID, bitset.Set) {
	t.Helper()
	tr, err := ktree.FullTree(2, 4, func(d, i int) cdag.Weight { return 1 + cdag.Weight(i%2) })
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.Root, bitset.New(tr.G.Sources()[0])
}

// TestSessionMatchesOneShot: one warm Scheduler's guarded answers over
// an out-of-order budget list must equal independent cold Scheduler
// queries with the same (node, initial, reuse) arguments.
func TestSessionMatchesOneShot(t *testing.T) {
	tr, root, reuse := ctxFixture(t)
	se, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	min := core.MinExistenceBudget(tr.G)
	budgets := []cdag.Weight{min + 12, min, min + 5, min - 1, min + 12, min + 2}
	for _, b := range budgets {
		got, err := se.CostCtx(ctx, guard.Limits{}, root, b, bitset.Set{}, reuse)
		if err != nil {
			t.Fatalf("CostCtx(%d): %v", b, err)
		}
		s, err := NewScheduler(tr.G)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Cost(root, b, bitset.Set{}, reuse); got != want {
			t.Errorf("CostCtx(%d) = %d, cold Cost = %d", b, got, want)
		}
	}
}

// TestSessionWarmCostZeroAlloc: a repeated budget query is a pure memo
// probe through the scheduler's reused guard checker.
func TestSessionWarmCostZeroAlloc(t *testing.T) {
	tr, root, reuse := ctxFixture(t)
	se, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := core.MinExistenceBudget(tr.G) + 4
	if _, err := se.CostCtx(ctx, guard.Limits{}, root, b, bitset.Set{}, reuse); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		se.CostCtx(ctx, guard.Limits{}, root, b, bitset.Set{}, reuse) //nolint:errcheck
	})
	if allocs != 0 {
		t.Errorf("warm CostCtx allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSessionAbortThenReuse: a resource-limited query aborts typed and
// leaves the scheduler's memo unpoisoned.
func TestSessionAbortThenReuse(t *testing.T) {
	tr, root, reuse := ctxFixture(t)
	se, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := core.MinExistenceBudget(tr.G) + 6
	if _, err := se.CostCtx(ctx, guard.Limits{MaxMemoEntries: 1}, root, b, bitset.Set{}, reuse); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("limited query: got %v, want ErrBudgetExceeded", err)
	}
	got, err := se.CostCtx(ctx, guard.Limits{}, root, b, bitset.Set{}, reuse)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(tr.G)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Cost(root, b, bitset.Set{}, reuse); got != want {
		t.Errorf("after abort, CostCtx(%d) = %d, want %d", b, got, want)
	}
}
