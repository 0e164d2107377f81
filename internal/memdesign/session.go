// Session-aware budget searches: the same monotone/linear searches and
// sweeps as memdesign.go, but threading a context and guard limits
// through a warm guarded solver (dwt.Scheduler, ktree.Scheduler,
// mvm.Session, solve.Session) instead of calling a bare CostFn. Every
// budget probe lands in the same memo, so a binary search costs
// O(log) warm queries inside one cold solve's worth of work rather
// than O(log) independent cold solves.

package memdesign

import (
	"context"
	"fmt"
	"runtime/debug"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
)

// CostQuerier answers repeated budget → cost queries against shared
// warm state. The dwt and ktree Schedulers, mvm.Session and
// solve.Session implement it. Implementations
// return the cost (with the family's Inf sentinel for infeasible
// budgets) and a non-nil error only when the query was aborted
// (guard.ErrCanceled / guard.ErrDeadline / guard.ErrBudgetExceeded,
// wrapped).
type CostQuerier interface {
	CostCtx(ctx context.Context, lim guard.Limits, budget cdag.Weight) (cdag.Weight, error)
}

// SearchMonotoneSession is SearchMonotone over a warm session: it
// finds the smallest budget in [lo, hi] (multiples of step) at which q
// reports target, assuming the cost is non-increasing in the budget.
// The O(log) probes all land in the session's memo.
func SearchMonotoneSession(ctx context.Context, lim guard.Limits, q CostQuerier, target cdag.Weight, lo, hi, step cdag.Weight) (cdag.Weight, error) {
	if step <= 0 {
		step = 1
	}
	if r := lo % step; r != 0 {
		lo += step - r
	}
	if r := hi % step; r != 0 {
		hi += step - r
	}
	c, err := q.CostCtx(ctx, lim, hi)
	if err != nil {
		return 0, err
	}
	if c != target {
		return 0, fmt.Errorf("memdesign: target cost %d not reached at budget %d", target, hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		mid -= mid % step
		if mid < lo {
			mid = lo
		}
		c, err := q.CostCtx(ctx, lim, mid)
		if err != nil {
			return 0, err
		}
		if c == target {
			hi = mid
		} else {
			lo = mid + step
		}
	}
	return hi, nil
}

// SearchLinearSession is SearchLinear over a warm session: the first
// budget in [lo, hi] (multiples of step) at which q reports target,
// for cost functions that are not monotone.
func SearchLinearSession(ctx context.Context, lim guard.Limits, q CostQuerier, target cdag.Weight, lo, hi, step cdag.Weight) (cdag.Weight, error) {
	if step <= 0 {
		step = 1
	}
	if r := lo % step; r != 0 {
		lo += step - r
	}
	for b := lo; b <= hi; b += step {
		c, err := q.CostCtx(ctx, lim, b)
		if err != nil {
			return 0, err
		}
		if c == target {
			return b, nil
		}
	}
	return 0, fmt.Errorf("memdesign: target cost %d not reached up to budget %d", target, hi)
}

// SweepCostsSession evaluates every budget against the warm session,
// appending the costs to out (pass out[:0] of a retained slice for
// allocation-free steady state) in budget order. Sessions are
// stateful, so the sweep is serial — warm queries make parallelism
// pointless anyway. Each item passes through the par fault-injection
// hook (par.SetFaultHook); a hook- or solver-panic surfaces as a
// *par.PanicError naming the budget index, with the partial prefix
// returned. An aborted query likewise returns the prefix and its
// error.
func SweepCostsSession(ctx context.Context, lim guard.Limits, q CostQuerier, budgets []cdag.Weight, out []cdag.Weight) ([]cdag.Weight, error) {
	for i, b := range budgets {
		c, err := sweepOne(ctx, lim, q, i, b)
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// sweepOne evaluates one budget with fault injection and panic
// recovery, mirroring a par pool worker's crash isolation.
func sweepOne(ctx context.Context, lim guard.Limits, q CostQuerier, i int, b cdag.Weight) (c cdag.Weight, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &par.PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	par.Fault(i)
	return q.CostCtx(ctx, lim, b)
}
