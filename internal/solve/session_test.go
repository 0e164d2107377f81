package solve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
)

// sweepInstance is small enough for fast cold solves but large enough
// that a cold budget query passes the guard's 256-tick context poll —
// the cancellation tests below depend on that. With the
// budget-interval memo a cold query ticks roughly once per node, so
// the tree must clear 256 nodes (4-ary height 4 has 341).
func sweepInstance() Instance {
	return Instance{Family: FamilyKTree, K: 4, Height: 4, Cfg: equalCfg()}
}

// sweepBudgets is a deliberately out-of-order, repeating budget list
// spanning infeasible (below existence) through comfortable, exercising
// memo sharing in a non-monotone access pattern.
func sweepBudgets(s *Session) []cdag.Weight {
	min := s.MinExistence()
	return []cdag.Weight{
		min + 17, min + 3, min + 11, min - 1, min, min + 17,
		min + 7, min + 1, min + 11, min + 14,
	}
}

// TestSessionSweepMatchesColdSolves is the determinism property: a
// warm session answering a shuffled budget list must produce costs,
// feasibility and schedules identical to an independent cold session
// per budget. The memo only changes how much work a query performs,
// never its answer.
func TestSessionSweepMatchesColdSolves(t *testing.T) {
	inst := sweepInstance()
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	budgets := sweepBudgets(s)
	pts, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(budgets) {
		t.Fatalf("got %d points for %d budgets", len(pts), len(budgets))
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("budget %d: unexpected error %v", p.Budget, p.Err)
		}
		cold, err := NewSession(inst)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := cold.CostCtx(context.Background(), guard.Limits{}, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost != wc || p.Feasible != (wc < infCost) {
			t.Errorf("budget %d: warm (cost=%d feasible=%v) vs cold cost=%d", p.Budget, p.Cost, p.Feasible, wc)
		}
		if !p.Feasible {
			continue
		}
		ws, err := s.ScheduleCtx(context.Background(), guard.Limits{}, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		cs, err := cold.ScheduleCtx(context.Background(), guard.Limits{}, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ws, cs) {
			t.Errorf("budget %d: warm schedule differs from cold", p.Budget)
		}
	}

	// A fresh session must reproduce the same points.
	again := coldSweep(t, inst, budgets)
	if !reflect.DeepEqual(pts, again) {
		t.Errorf("fresh-session sweep differs from Session.SweepCosts")
	}
}

// coldSweep answers budgets from a fresh session for inst.
func coldSweep(t *testing.T, inst Instance, budgets []cdag.Weight) []CostPoint {
	t.Helper()
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestSessionSweepFaultInjection: an injected panic at one budget index
// surfaces as a *par.PanicError on that item only; siblings are
// unaffected, and with the hook removed the same session reproduces the
// clean answers — the fault never poisons warm state.
func TestSessionSweepFaultInjection(t *testing.T) {
	inst := sweepInstance()
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	budgets := sweepBudgets(s)
	const faultAt = 3
	restore := par.SetFaultHook(func(i int) {
		if i == faultAt {
			panic("injected sweep fault")
		}
	})
	pts, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	var pe *par.PanicError
	if pts[faultAt].Err == nil || !errors.As(pts[faultAt].Err, &pe) || pe.Index != faultAt {
		t.Fatalf("item %d: got %v, want *par.PanicError for that index", faultAt, pts[faultAt].Err)
	}
	clean, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range clean {
		if p.Err != nil {
			t.Fatalf("post-fault budget %d: %v", p.Budget, p.Err)
		}
		if i != faultAt && (p.Cost != pts[i].Cost || p.Feasible != pts[i].Feasible) {
			t.Errorf("budget %d changed across fault run: %+v vs %+v", p.Budget, pts[i], p)
		}
	}
	// And the post-fault answers match independent cold solves.
	cold := coldSweep(t, inst, budgets)
	if !reflect.DeepEqual(clean, cold) {
		t.Errorf("post-fault session answers differ from cold solves")
	}
}

// TestSessionSweepCanceledMidSweep: a dead context aborts the sweep at
// its first expensive query, returning the partial prefix with
// guard.ErrCanceled — and the session stays fully usable afterwards
// (no-poison memoization).
func TestSessionSweepCanceledMidSweep(t *testing.T) {
	inst := sweepInstance()
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	budgets := sweepBudgets(s)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := s.SweepCosts(canceled, guard.Limits{}, budgets, nil)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("sweep under dead context: err = %v, want ErrCanceled", err)
	}
	if len(pts) == 0 || len(pts) > len(budgets) || !errors.Is(pts[len(pts)-1].Err, guard.ErrCanceled) {
		t.Fatalf("expected a partial prefix ending in ErrCanceled, got %d points", len(pts))
	}
	after, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldSweep(t, inst, budgets)
	if !reflect.DeepEqual(after, cold) {
		t.Errorf("session answers after cancellation differ from cold solves")
	}
}

// TestSessionSweepDeadlinePerItem: an impossible per-query deadline
// marks items with ErrDeadline while the sweep itself continues, and
// the session answers correctly once the limit is lifted.
func TestSessionSweepDeadlinePerItem(t *testing.T) {
	inst := sweepInstance()
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	budgets := sweepBudgets(s)
	pts, err := s.SweepCosts(context.Background(), guard.Limits{Deadline: 1}, budgets, nil)
	if err != nil {
		t.Fatalf("per-item deadline must not abort the sweep: %v", err)
	}
	if len(pts) != len(budgets) {
		t.Fatalf("got %d points for %d budgets", len(pts), len(budgets))
	}
	sawDeadline := false
	for _, p := range pts {
		if errors.Is(p.Err, guard.ErrDeadline) {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("1ns per-query deadline tripped no item")
	}
	after, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldSweep(t, inst, budgets)
	if !reflect.DeepEqual(after, cold) {
		t.Errorf("session answers after deadline aborts differ from cold solves")
	}
}

// TestSessionRefusesCDAG: a session answers optimal DP costs, so a
// general DAG, which has no DP, is refused with a pointer to the
// per-budget route instead of a session of anytime incumbents.
func TestSessionRefusesCDAG(t *testing.T) {
	se, err := NewSession(Instance{Family: FamilyCDAG, G: cdag.Random(7, 48)})
	if err == nil {
		t.Fatalf("NewSession(cdag) = %v, want an error", se)
	}
	if want := "one /v1/schedule request per budget"; !strings.Contains(err.Error(), want) {
		t.Fatalf("NewSession(cdag) error %q does not contain %q", err, want)
	}
}

// requestCtx is a request context the test can hold a weak pointer to.
type requestCtx struct{ context.Context }

// TestSessionKeepsNoContextAfterQuery: a warm session holds a query's
// context and counts sink only while it answers it: once the sweep has
// returned, a collection clears weak pointers to both while the
// session is still alive. Each family's session is checked, and each
// still answers after it.
func TestSessionKeepsNoContextAfterQuery(t *testing.T) {
	for _, inst := range []Instance{
		{Family: FamilyKTree, K: 2, Height: 4, Cfg: equalCfg()},
		{Family: FamilyDWT, N: 16, D: 4, Cfg: equalCfg()},
		{Family: FamilyMVM, M: 6, N: 8, Cfg: equalCfg()},
	} {
		t.Run(inst.Family, func(t *testing.T) {
			s, err := NewSession(inst)
			if err != nil {
				t.Fatal(err)
			}
			budgets := []cdag.Weight{s.MinExistence() * 2}
			wctx, wsink := func() (weak.Pointer[requestCtx], weak.Pointer[guard.CountsSink]) {
				sink := new(guard.CountsSink)
				ctx := &requestCtx{guard.WithSink(context.Background(), sink)}
				if _, err := s.SweepCosts(ctx, guard.Limits{}, budgets, nil); err != nil {
					t.Fatal(err)
				}
				return weak.Make(ctx), weak.Make(sink)
			}()
			runtime.GC()
			if wctx.Value() != nil || wsink.Value() != nil {
				t.Errorf("an idle session keeps the finished query's context (%v) or sink (%v) reachable", wctx.Value() != nil, wsink.Value() != nil)
			}
			if pts, err := s.SweepCosts(context.Background(), guard.Limits{}, budgets, nil); err != nil || !pts[0].Feasible {
				t.Fatalf("idle session answered %+v, %v", pts, err)
			}
		})
	}
}
