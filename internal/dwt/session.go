package dwt

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
)

// Session answers repeated CostCtx/ScheduleCtx budget queries against
// one warm Scheduler: the P(v, b) memo (Lemma 3.3) shares all
// sub-budget cells across budget queries, so sweeping k budgets costs
// roughly one cold solve at the largest budget. Queries reuse one
// guard.Checker, so a warm query allocates nothing for its guard when
// lim carries no deadline.
//
// No-poison semantics carry over from the Scheduler: an aborted query
// never memoizes partial results, so the session stays reusable. A
// Session is not safe for concurrent use.
type Session struct {
	s  *Scheduler
	ck guard.Checker
}

// NewSession builds a session (and its warm Scheduler) for the graph.
func NewSession(dg *Graph) (*Session, error) {
	s, err := NewScheduler(dg)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Scheduler returns the warm scheduler, for plain (unguarded) queries.
func (se *Session) Scheduler() *Scheduler { return se.s }

// Graph returns the underlying DWT graph.
func (se *Session) Graph() *Graph { return se.s.dg }

// TakeCounts returns and resets the session's cumulative solver
// observation counters (memo hits, entries, interval splits) for
// metric export.
func (se *Session) TakeCounts() guard.Counts { return se.ck.TakeCounts() }

// Patch applies weight deltas to the underlying graph, invalidating
// only the memo cells whose subtree contains a changed node
// (Scheduler.SetWeights); every other cell stays warm, so the next
// query re-solves just the dirtied cone. On error (bad node, bad
// weight, Lemma 3.2 violated) the graph and memo are unchanged. The
// invalidated/reused cell counts feed the session's observation
// counters (wrbpg_solver_cells_* after the next flush) and are also
// returned for the caller's own accounting.
func (se *Session) Patch(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	invalidated, reused, err = se.s.SetWeights(ds)
	if err != nil {
		return 0, 0, err
	}
	se.ck.NoteInvalidation(invalidated, reused)
	return invalidated, reused, nil
}

func (se *Session) begin(ctx context.Context, lim guard.Limits) {
	se.ck.Reset(ctx, lim)
	se.s.memo.Ck = &se.ck
}

func (se *Session) end() {
	se.s.memo.Ck = nil
	se.ck.Release()
}

// CostCtx returns MinCost(b) under the session's warm memo (Inf when
// no schedule exists). The error is non-nil only when the query was
// aborted; resource limits in lim are per query, not cumulative.
func (se *Session) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	se.begin(ctx, lim)
	defer se.end()
	c := se.s.MinCost(b)
	if err := se.ck.Err(); err != nil {
		return 0, fmt.Errorf("dwt: %w", err)
	}
	return c, nil
}

// ScheduleCtx returns Schedule(b) under the session's warm memo, with
// CostCtx's abort semantics.
func (se *Session) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	se.begin(ctx, lim)
	defer se.end()
	sched, err := se.s.Schedule(b)
	if cerr := se.ck.Err(); cerr != nil {
		return nil, fmt.Errorf("dwt: %w", cerr)
	}
	return sched, err
}
