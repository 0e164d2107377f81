package ktree

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
)

// Session answers repeated CostCtx/ScheduleCtx budget queries against
// one warm Scheduler. The Pt(v, b) memo shares all sub-budget cells
// across root queries, so a sweep over k budgets costs roughly one
// cold solve at the largest budget instead of k cold solves; the
// Session adds the guard plumbing that makes each query cancellable
// without re-allocating a checker (warm queries allocate nothing when
// lim carries no deadline).
//
// No-poison semantics carry over from the Scheduler: a query aborted
// by cancellation, deadline or resource budget never memoizes partial
// results, so the session stays reusable afterwards. A Session is not
// safe for concurrent use.
type Session struct {
	s  *Scheduler
	ck guard.Checker
}

// NewSession builds a session (and its warm Scheduler) for the tree.
func NewSession(t *Tree) *Session {
	return &Session{s: NewScheduler(t)}
}

// Scheduler returns the warm scheduler, for plain (unguarded) queries.
func (se *Session) Scheduler() *Scheduler { return se.s }

// Tree returns the underlying tree.
func (se *Session) Tree() *Tree { return se.s.t }

// TakeCounts returns and resets the session's cumulative solver
// observation counters (memo hits, entries, splits) for metric export.
func (se *Session) TakeCounts() guard.Counts { return se.ck.TakeCounts() }

// Patch applies weight deltas to the underlying tree, invalidating
// only the memo rows on the changed nodes' root paths
// (Scheduler.SetWeights); every other interval stays warm, so the next
// query re-solves just the dirtied chain against warm children. On
// error the tree and memo are unchanged. The invalidated/reused counts
// feed the session's observation counters (wrbpg_solver_cells_* after
// the next flush) and are also returned.
func (se *Session) Patch(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	invalidated, reused, err = se.s.SetWeights(ds)
	if err != nil {
		return 0, 0, err
	}
	se.ck.NoteInvalidation(invalidated, reused)
	return invalidated, reused, nil
}

// begin installs the session checker for one query; end uninstalls it.
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
		return 0, fmt.Errorf("ktree: %w", err)
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
		return nil, fmt.Errorf("ktree: %w", cerr)
	}
	return sched, err
}
