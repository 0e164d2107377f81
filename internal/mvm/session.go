package mvm

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
)

// Session is the guarded tile search: it answers budget queries
// against one Graph under a cancellation context and resource limits,
// memoizing the search per budget. The first query at a budget runs
// the candidate-height sweep under the session's reusable checker;
// later queries are a single map probe with no allocations. A one-shot
// solve is a fresh Session's single query. Unlike the tree DPs, whose
// memo tables persist inside their Schedulers, the tile search has no
// warm state of its own — the Session supplies it, giving mvm the same
// CostCtx/ScheduleCtx/TakeCounts surface as the other solver families.
//
// A Session is not safe for concurrent use; serving layers serialize
// access per session (internal/serve's session pool).
type Session struct {
	g    *Graph
	memo map[cdag.Weight]searchResult
	ck   guard.Checker
}

// NewSession wraps a built Graph.
func NewSession(g *Graph) *Session {
	return &Session{g: g, memo: map[cdag.Weight]searchResult{}}
}

// Graph returns the underlying MVM graph.
func (se *Session) Graph() *Graph { return se.g }

// TakeCounts returns and resets the session's cumulative solver
// observation counters (memo hits, states, …) for metric export.
func (se *Session) TakeCounts() guard.Counts { return se.ck.TakeCounts() }

// search returns the memoized best configuration for the budget,
// running the guarded candidate sweep on a miss. Aborted sweeps are
// never memoized (no-poison), so the session stays reusable after a
// cancellation or deadline. Infeasible budgets memoize an Inf-cost
// result — "nothing fits" is a valid, budget-monotone answer.
func (se *Session) search(ctx context.Context, lim guard.Limits, b cdag.Weight) (searchResult, error) {
	if r, ok := se.memo[b]; ok {
		se.ck.NoteHit()
		return r, nil
	}
	se.ck.Reset(ctx, lim)
	defer se.ck.Release()
	tc, cost, err := se.g.sharedSearch(&se.ck, b)
	if cerr := se.ck.Err(); cerr != nil {
		return searchResult{}, fmt.Errorf("mvm: %w", cerr)
	}
	r := searchResult{cost: Inf, peak: Inf}
	if err == nil {
		r = searchResult{tc: tc, cost: cost, peak: se.g.PredictPeak(tc)}
	}
	se.memo[b] = r
	return r, nil
}

// CostCtx returns the best tiling cost under the budget (MinCost
// semantics: Inf when no configuration fits), against the warm
// per-budget memo. The error is non-nil only when the solve was
// aborted (guard.ErrCanceled / guard.ErrDeadline wrapped).
func (se *Session) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	r, err := se.search(ctx, lim, b)
	if err != nil {
		return 0, err
	}
	return r.cost, nil
}

// SearchCtx returns the memoized best configuration, with Search's
// error contract for infeasible budgets.
func (se *Session) SearchCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (TileConfig, cdag.Weight, error) {
	r, err := se.search(ctx, lim, b)
	if err != nil {
		return TileConfig{}, 0, err
	}
	if r.cost >= Inf {
		return TileConfig{}, Inf, fmt.Errorf("mvm: no tile configuration fits budget %d (tiling minimum %d): %w", b, se.g.TilingMinBudget(), guard.ErrOptimalInfeasible)
	}
	return r.tc, r.cost, nil
}

// ScheduleCtx generates the schedule of the memoized best
// configuration for the budget.
func (se *Session) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	tc, _, err := se.SearchCtx(ctx, lim, b)
	if err != nil {
		return nil, err
	}
	return se.g.TileSchedule(tc)
}
