package memstate

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
)

// Session answers repeated budget queries Pm(v, b, I, R) against one
// warm KScheduler, with the query node and the initial/reuse memory
// states pinned at construction so the budget is the only axis — the
// shape budget sweeps and the serving layer need. The pmTable memo
// shares all sub-budget cells across queries, so a sweep over k
// budgets costs roughly one cold solve at the largest budget.
//
// No-poison semantics carry over from the scheduler: an aborted query
// never memoizes partial results, so the session stays reusable. A
// Session is not safe for concurrent use.
type Session struct {
	s          *KScheduler
	v          cdag.NodeID
	ini, reuse Bitset
	ck         guard.Checker
}

// NewSession wraps an in-tree (in-degree ≤ ktree.MaxK) with the query
// node and memory states fixed. Pass the tree root and empty bitsets
// for plain Pt-equivalent sweeps.
func NewSession(g *cdag.Graph, v cdag.NodeID, initial, reuse Bitset) (*Session, error) {
	s, err := NewKScheduler(g)
	if err != nil {
		return nil, err
	}
	if int(v) < 0 || int(v) >= g.Len() {
		return nil, fmt.Errorf("memstate: query node %d out of range [0,%d)", v, g.Len())
	}
	return &Session{s: s, v: v, ini: initial, reuse: reuse}, nil
}

// KScheduler returns the warm scheduler, for plain (unguarded) queries
// or queries at other nodes/states.
func (se *Session) KScheduler() *KScheduler { return se.s }

// Node returns the pinned query node.
func (se *Session) Node() cdag.NodeID { return se.v }

// TakeCounts returns and resets the session's cumulative solver
// observation counters (memo hits, entries, splits) for metric export.
func (se *Session) TakeCounts() guard.Counts { return se.ck.TakeCounts() }

// Patch applies weight deltas to the underlying tree, invalidating
// only the memo cells whose subtree contains a changed node (via the
// generation stamps of KScheduler.SetWeights); everything else stays
// warm, so the next query re-solves just the dirtied root chain. On
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

// CostCtx returns Pm(v, b, I, R) for the pinned node and states under
// the session's warm memo (Inf when infeasible). The error is non-nil
// only when the query was aborted; resource limits in lim are per
// query, not cumulative.
func (se *Session) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	se.ck.Reset(ctx, lim)
	defer func() {
		se.s.memo.Ck = nil
		se.ck.Release()
	}()
	se.s.memo.Ck = &se.ck
	c := se.s.Cost(se.v, b, se.ini, se.reuse)
	if err := se.ck.Err(); err != nil {
		return 0, fmt.Errorf("memstate: %w", err)
	}
	return c, nil
}
