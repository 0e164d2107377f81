// The guard → obs bridge: process-wide solver counters in the
// obs.Default registry, fed by the solver drivers (per-query Counts
// deltas) and by the checker itself (abort reasons). guard sits below
// every solver package, so this is the one place the family-labeled
// counter set can live without import cycles.
package guard

import (
	"context"
	"errors"
	"sync"

	"wrbpg/internal/obs"
)

var (
	solverQueries = obs.Default.CounterVec("wrbpg_solver_queries_total",
		"Solver count flushes, by dataflow family: one per single query, one per whole sweep.", "family")
	solverMemoHits = obs.Default.CounterVec("wrbpg_solver_memo_hits_total",
		"Warm DP memo hits (cells or budget intervals answered without recomputation).", "family")
	solverMemoEntries = obs.Default.CounterVec("wrbpg_solver_memo_entries_total",
		"DP memo cells created.", "family")
	solverStates = obs.Default.CounterVec("wrbpg_solver_states_total",
		"Search states explored (exact Dijkstra search).", "family")
	solverSplits = obs.Default.CounterVec("wrbpg_solver_interval_splits_total",
		"Budget-interval memo stores clipped against an existing step.", "family")
	solverInvalidated = obs.Default.CounterVec("wrbpg_solver_cells_invalidated_total",
		"Memo cells cleared by patch invalidations (changed node in their subtree).", "family")
	solverReused = obs.Default.CounterVec("wrbpg_solver_cells_reused_total",
		"Memo cells surviving patch invalidations (work an incremental re-solve avoids).", "family")
	guardAborts = obs.Default.CounterVec("wrbpg_guard_aborts_total",
		"Solves aborted by the guard, by reason (canceled, deadline, budget).", "reason")
)

// FamilyCounters is the pre-resolved counter set for one dataflow
// family, so the per-query flush is a handful of atomic adds with no
// label lookups on the serving hot path.
type FamilyCounters struct {
	queries, hits, entries, states, splits *obs.Counter
	invalidated, reused                    *obs.Counter
}

var (
	fcMu sync.Mutex
	fcs  = map[string]*FamilyCounters{}
)

// CountersFor returns the (cached) counter set for the family. It
// takes a process-wide lock, so callers resolve their set once, at
// package init, and keep it.
func CountersFor(family string) *FamilyCounters {
	fcMu.Lock()
	defer fcMu.Unlock()
	if fc, ok := fcs[family]; ok {
		return fc
	}
	fc := &FamilyCounters{
		queries:     solverQueries.With(family),
		hits:        solverMemoHits.With(family),
		entries:     solverMemoEntries.With(family),
		states:      solverStates.With(family),
		splits:      solverSplits.With(family),
		invalidated: solverInvalidated.With(family),
		reused:      solverReused.With(family),
	}
	fcs[family] = fc
	return fc
}

// Record flushes one query's (or one sweep's) Counts delta into the
// registry and into the CountsSink of ctx, the context the query ran
// under; a nil ctx feeds the registry only. Zero counts skip their
// atomic add, so an all-warm sweep costs two adds total.
func (fc *FamilyCounters) Record(ctx context.Context, c Counts) {
	SinkFrom(ctx).Add(c)
	if fc == nil {
		return
	}
	fc.queries.Inc()
	if c.MemoHits > 0 {
		fc.hits.Add(uint64(c.MemoHits))
	}
	if c.MemoEntries > 0 {
		fc.entries.Add(uint64(c.MemoEntries))
	}
	if c.States > 0 {
		fc.states.Add(uint64(c.States))
	}
	if c.IntervalSplits > 0 {
		fc.splits.Add(uint64(c.IntervalSplits))
	}
	if c.CellsInvalidated > 0 {
		fc.invalidated.Add(uint64(c.CellsInvalidated))
	}
	if c.CellsReused > 0 {
		fc.reused.Add(uint64(c.CellsReused))
	}
}

// noteAbort feeds the abort-reason counter when a checker first trips.
// Aborts are rare (at most one per solve), so the label lookup is fine
// here.
func noteAbort(err error) {
	switch {
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled):
		guardAborts.With("canceled").Inc()
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		guardAborts.With("deadline").Inc()
	case errors.Is(err, ErrBudgetExceeded):
		guardAborts.With("budget").Inc()
	default:
		guardAborts.With("other").Inc()
	}
}

// AbortReason classifies err into the metric label vocabulary shared
// by wrbpg_guard_aborts_total and wrbpg_fallback_total: "canceled",
// "deadline", "budget", "panic" or "other" ("" for nil).
func AbortReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrBudgetExceeded), errors.Is(err, ErrOptimalInfeasible):
		return "budget"
	default:
		return "other"
	}
}
