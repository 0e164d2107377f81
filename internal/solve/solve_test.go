package solve

import (
	"context"
	"errors"
	"testing"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/exact"
	"wrbpg/internal/guard"
	"wrbpg/internal/ktree"
	"wrbpg/internal/mvm"
	"wrbpg/internal/wcfg"
)

func mvmProblem(t *testing.T, m, n int) (Problem, *mvm.Graph) {
	t.Helper()
	g, err := mvm.Build(m, n, wcfg.Equal(8))
	if err != nil {
		t.Fatal(err)
	}
	return MVM(g), g
}

// delayed wraps a problem's optimal solver with a context-respecting
// stall, simulating a solver that is too slow for the deadline without
// depending on the real solver's (microsecond) runtime.
func delayed(p Problem, d time.Duration) Problem {
	inner := p.Optimal
	p.Optimal = func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, guard.Wrap(ctx.Err())
		}
		return inner(ctx, lim, budget)
	}
	return p
}

func TestRunOptimalPath(t *testing.T) {
	g, err := dwt.Build(16, 4, dwt.ConfigWeights(wcfg.Equal(8)))
	if err != nil {
		t.Fatal(err)
	}
	budget := core.MinExistenceBudget(g.G) + 64
	out, err := Run(context.Background(), DWT(g), budget, guard.Limits{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceOptimal {
		t.Fatalf("Source = %v, want optimal", out.Source)
	}
	if out.Err != nil {
		t.Fatalf("Outcome.Err = %v on the optimal path", out.Err)
	}
	if len(out.Schedule) == 0 {
		t.Fatal("empty schedule")
	}
	if _, err := core.Simulate(g.G, budget, out.Schedule); err != nil {
		t.Fatalf("optimal schedule invalid: %v", err)
	}
}

// TestRunDeadlineDegrades: a 1 ms deadline on a large MVM instance
// whose solver stalls degrades to the baseline, and the fallback
// schedule passes core.Simulate.
func TestRunDeadlineDegrades(t *testing.T) {
	p, g := mvmProblem(t, 64, 48)
	budget := g.TilingMinBudget() + 256
	out, err := Run(context.Background(), delayed(p, 200*time.Millisecond), budget,
		guard.Limits{Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if !errors.Is(out.Err, guard.ErrDeadline) {
		t.Fatalf("Outcome.Err = %v, want guard.ErrDeadline", out.Err)
	}
	if _, err := core.Simulate(g.G, budget, out.Schedule); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
}

// TestRunHungSolver: a solver that ignores its context entirely is
// abandoned at the deadline; the caller still gets a validated
// fallback schedule within ~the deadline, not after the hang.
func TestRunHungSolver(t *testing.T) {
	p, g := mvmProblem(t, 32, 24)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	p.Optimal = func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
		<-release // ignores ctx: simulates a genuinely hung solver
		return nil, errors.New("never reached in time")
	}
	budget := g.TilingMinBudget() + 256
	start := time.Now()
	out, err := Run(context.Background(), p, budget, guard.Limits{Deadline: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if !errors.Is(out.Err, guard.ErrDeadline) {
		t.Fatalf("Outcome.Err = %v, want guard.ErrDeadline", out.Err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Run took %v; the hung solver was not abandoned", elapsed)
	}
	if _, err := core.Simulate(g.G, budget, out.Schedule); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
}

// TestRunPanicDegrades: a panicking solver is recovered and degraded,
// not propagated as a crash.
func TestRunPanicDegrades(t *testing.T) {
	p, g := mvmProblem(t, 16, 12)
	p.Optimal = func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
		panic("solver bug")
	}
	budget := g.TilingMinBudget() + 256
	out, err := Run(context.Background(), p, budget, guard.Limits{Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if out.Err == nil || out.Err.Error() == "" {
		t.Fatal("panic reason missing from Outcome.Err")
	}
}

// TestRunBudgetExhaustionDegrades: exact search under a tiny MaxStates
// limit trips guard.ErrBudgetExceeded and degrades to the greedy
// baseline on an arbitrary CDAG.
func TestRunBudgetExhaustionDegrades(t *testing.T) {
	tr, err := ktree.FullTree(2, 3, func(d, i int) cdag.Weight { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	budget := core.MinExistenceBudget(tr.G) + 8
	p := Problem{
		Name: "exact",
		G:    tr.G,
		Optimal: func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
			res, err := exact.SolveCtx(ctx, tr.G, budget, lim)
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		},
	}
	out, err := Run(context.Background(), p, budget,
		guard.Limits{MaxStates: 3, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if !errors.Is(out.Err, guard.ErrBudgetExceeded) {
		t.Fatalf("Outcome.Err = %v, want guard.ErrBudgetExceeded", out.Err)
	}
	if _, err := core.Simulate(tr.G, budget, out.Schedule); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
}

// TestRunCanceledDoesNotDegrade: cancellation means the caller is
// gone; Run returns the typed error and no fallback schedule.
func TestRunCanceledDoesNotDegrade(t *testing.T) {
	p, g := mvmProblem(t, 32, 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Run(ctx, delayed(p, time.Second), g.TilingMinBudget()+256, guard.Limits{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if out.Schedule != nil {
		t.Fatal("cancellation must not produce a fallback schedule")
	}
}

// TestRunKTreeOptimal exercises the ktree constructor end to end.
func TestRunKTreeOptimal(t *testing.T) {
	tr, err := ktree.FullTree(3, 3, func(d, i int) cdag.Weight { return 1 + cdag.Weight(i%2) })
	if err != nil {
		t.Fatal(err)
	}
	budget := core.MinExistenceBudget(tr.G) + 16
	out, err := Run(context.Background(), KTree(tr), budget, guard.Limits{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceOptimal {
		t.Fatalf("Source = %v, want optimal", out.Source)
	}
	if _, err := core.Simulate(tr.G, budget, out.Schedule); err != nil {
		t.Fatalf("optimal schedule invalid: %v", err)
	}
}

// TestRunInvalidOptimalDegrades: a solver returning a bogus schedule
// fails validation and degrades.
func TestRunInvalidOptimalDegrades(t *testing.T) {
	p, g := mvmProblem(t, 16, 12)
	p.Optimal = func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
		// M2 on a node with no red pebble is always invalid.
		return core.Schedule{{Kind: core.M2, Node: g.Output(1)}}, nil
	}
	budget := g.TilingMinBudget() + 256
	out, err := Run(context.Background(), p, budget, guard.Limits{Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if out.Err == nil {
		t.Fatal("validation failure missing from Outcome.Err")
	}
}

func TestSourceString(t *testing.T) {
	if SourceOptimal.String() != "optimal" || SourceFallback.String() != "fallback" {
		t.Fatal("Source.String mismatch")
	}
}
