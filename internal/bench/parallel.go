package bench

import (
	"context"
	"fmt"

	"wrbpg/internal/baseline"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/ioopt"
	"wrbpg/internal/mvm"
	"wrbpg/internal/par"
	"wrbpg/internal/wcfg"
)

// The experiment sweeps of Figures 5 and 6 are embarrassingly
// parallel — every budget or problem size builds its own graphs and
// schedulers — so the harness fans them out across cores with
// par.MapCtx; the first error aborts the sweep (jobs not yet started
// are skipped) and is returned after all workers drain.

// Fig6DWTParallel is Fig6DWT fanned out across cores; results are
// identical (the computation is deterministic per problem size).
func Fig6DWTParallel(cfg wcfg.Config, maxN, workers int) ([]Fig6DWTRow, error) {
	return Fig6DWTParallelCtx(context.Background(), cfg, maxN, workers)
}

// Fig6DWTParallelCtx is Fig6DWTParallel under a cancellation context:
// once ctx dies no further problem size is dispatched and the typed
// reason (guard.ErrCanceled / guard.ErrDeadline) is returned.
func Fig6DWTParallelCtx(ctx context.Context, cfg wcfg.Config, maxN, workers int) ([]Fig6DWTRow, error) {
	var sizes []int
	for n := 2; n <= maxN; n += 2 {
		sizes = append(sizes, n)
	}
	return par.MapCtx(ctx, workers, sizes, func(n int) (Fig6DWTRow, error) {
		return fig6DWTPoint(cfg, n)
	})
}

// Fig6MVMParallel is Fig6MVM fanned out across cores.
func Fig6MVMParallel(cfg wcfg.Config, m, maxN, workers int) ([]Fig6MVMRow, error) {
	return Fig6MVMParallelCtx(context.Background(), cfg, m, maxN, workers)
}

// Fig6MVMParallelCtx is Fig6MVMParallel under a cancellation context.
func Fig6MVMParallelCtx(ctx context.Context, cfg wcfg.Config, m, maxN, workers int) ([]Fig6MVMRow, error) {
	var sizes []int
	for n := 1; n <= maxN; n++ {
		sizes = append(sizes, n)
	}
	return par.MapCtx(ctx, workers, sizes, func(n int) (Fig6MVMRow, error) {
		return fig6MVMPoint(cfg, m, n)
	})
}

// Fig5DWTParallel is Fig5DWT with the budget axis split into
// contiguous chunks, one dwt.Scheduler per chunk. The scheduler's
// memo is not safe for concurrent use, so budgets cannot share one
// instance; chunking keeps the within-chunk memo reuse (adjacent
// budgets solve overlapping subproblems) while still fanning out.
// Results are identical to Fig5DWT.
func Fig5DWTParallel(cfg wcfg.Config, n, d int, budgets []cdag.Weight, workers int) ([]Fig5DWTRow, error) {
	return Fig5DWTParallelCtx(context.Background(), cfg, n, d, budgets, workers)
}

// Fig5DWTParallelCtx is Fig5DWTParallel under a cancellation context:
// once ctx dies no further budget chunk is dispatched and the typed
// reason (guard.ErrCanceled / guard.ErrDeadline) is returned.
func Fig5DWTParallelCtx(ctx context.Context, cfg wcfg.Config, n, d int, budgets []cdag.Weight, workers int) ([]Fig5DWTRow, error) {
	g, err := dwt.Build(n, d, dwt.ConfigWeights(cfg))
	if err != nil {
		return nil, err
	}
	lb := core.LowerBound(g.G)
	if budgets == nil {
		lblMem, err := baseline.MinMemory(g.G, g.Layers, cdag.Weight(cfg.WordBits))
		if err != nil {
			return nil, err
		}
		budgets = LogBudgets(core.MinExistenceBudget(g.G), 2*lblMem, 1.3, cfg.WordBits)
	}
	chunks := par.Chunks(len(budgets), workers)
	parts, err := par.MapCtx(ctx, workers, chunks, func(c [2]int) ([]Fig5DWTRow, error) {
		sched, err := dwt.NewScheduler(g)
		if err != nil {
			return nil, err
		}
		rows := make([]Fig5DWTRow, 0, c[1]-c[0])
		for _, b := range budgets[c[0]:c[1]] {
			lbl, err := baseline.Cost(g.G, g.Layers, b)
			if err != nil {
				return nil, fmt.Errorf("bench: layer-by-layer at %d: %w", b, err)
			}
			opt := sched.MinCost(b)
			if opt >= dwt.Inf {
				return nil, fmt.Errorf("bench: optimum infeasible at %d", b)
			}
			rows = append(rows, Fig5DWTRow{BudgetBits: b, AlgorithmicLB: lb, LayerByLayer: lbl, Optimum: opt})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig5DWTRow
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows, nil
}

// Fig5MVMParallel is Fig5MVM with the budget axis fanned out per
// point; mvm cost prediction is closed-form and stateless, so budgets
// share the graph safely. Results are identical to Fig5MVM.
func Fig5MVMParallel(cfg wcfg.Config, m, n int, budgets []cdag.Weight, workers int) ([]Fig5MVMRow, error) {
	return Fig5MVMParallelCtx(context.Background(), cfg, m, n, budgets, workers)
}

// Fig5MVMParallelCtx is Fig5MVMParallel under a cancellation context.
func Fig5MVMParallelCtx(ctx context.Context, cfg wcfg.Config, m, n int, budgets []cdag.Weight, workers int) ([]Fig5MVMRow, error) {
	g, err := mvm.Build(m, n, cfg)
	if err != nil {
		return nil, err
	}
	model := ioopt.New(m, n, cfg)
	if budgets == nil {
		hi := 2 * model.MinMemoryBits()
		budgets = LogBudgets(g.TilingMinBudget(), hi, 1.3, cfg.WordBits)
	}
	pts, err := par.MapCtx(ctx, workers, budgets, func(b cdag.Weight) (Fig5MVMRow, error) {
		words := int(b) / cfg.WordBits
		tiling := g.MinCost(b)
		if tiling >= mvm.Inf {
			// Below the tiling minimum; the paper's axis starts above
			// it. Marked by a zero BudgetBits and filtered below.
			return Fig5MVMRow{}, nil
		}
		return Fig5MVMRow{
			BudgetBits: b,
			IOOptLB:    model.LowerBound(words),
			IOOptUB:    model.UpperBound(words),
			Tiling:     tiling,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5MVMRow, 0, len(pts))
	for _, r := range pts {
		if r.BudgetBits != 0 {
			rows = append(rows, r)
		}
	}
	return rows, nil
}
