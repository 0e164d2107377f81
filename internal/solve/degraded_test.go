package solve

import (
	"context"
	"errors"
	"testing"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
	"wrbpg/internal/wcfg"
)

func TestDegradedServesBaseline(t *testing.T) {
	g, err := dwt.Build(16, 4, dwt.ConfigWeights(wcfg.Equal(8)))
	if err != nil {
		t.Fatal(err)
	}
	budget := core.MinExistenceBudget(g.G) + 64

	out, err := Degraded(context.Background(), DWT(g), budget)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if !errors.Is(out.Err, ErrShed) {
		t.Fatalf("Outcome.Err = %v, want ErrShed", out.Err)
	}
	if got := FallbackReason(out.Err); got != "shed" {
		t.Fatalf("FallbackReason = %q, want shed", got)
	}
	if len(out.Schedule) == 0 {
		t.Fatal("empty schedule")
	}
	// The schedule passed Simulate: its stats describe a real run.
	if out.Stats.Cost <= 0 {
		t.Fatalf("Stats.Cost = %d, want positive", out.Stats.Cost)
	}
}

func TestDegradedCanceledContext(t *testing.T) {
	g, err := dwt.Build(16, 2, dwt.ConfigWeights(wcfg.Equal(8)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Degraded(ctx, DWT(g), core.MinExistenceBudget(g.G)+64)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// TestRunPanicErrorValueDegrades: a *par.PanicError returned as a
// plain error from the optimal tier (a pool worker panicked and par
// recovered it) must degrade to the baseline exactly like a panic
// caught by Run's own recover — not surface as a hard failure.
func TestRunPanicErrorValueDegrades(t *testing.T) {
	g, err := dwt.Build(16, 2, dwt.ConfigWeights(wcfg.Equal(8)))
	if err != nil {
		t.Fatal(err)
	}
	p := DWT(g)
	p.Optimal = func(ctx context.Context, lim guard.Limits, budget cdag.Weight) (core.Schedule, error) {
		return nil, &par.PanicError{Index: 3, Value: "injected"}
	}
	budget := core.MinExistenceBudget(g.G) + 64
	out, err := Run(context.Background(), p, budget, guard.Limits{Deadline: time.Minute})
	if err != nil {
		t.Fatalf("Run failed instead of degrading: %v", err)
	}
	if out.Source != SourceFallback {
		t.Fatalf("Source = %v, want fallback", out.Source)
	}
	if got := FallbackReason(out.Err); got != "panic" {
		t.Fatalf("FallbackReason = %q, want panic", got)
	}
}
