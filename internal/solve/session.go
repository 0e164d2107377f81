// Warm multi-budget sessions over the family solvers. One Session owns
// one instance's warm solver state (the DP memo tables, the tile-search
// memo) and answers repeated budget queries against it: the DP
// recurrences share all sub-budget cells across budget queries, so a
// sweep over k budgets costs roughly one cold solve at the largest
// budget instead of k cold solves (the *Sweep16Cold perf kernels,
// docs/PERFORMANCE.md).
//
// Sessions trade Run's goroutine isolation for warm state: queries run
// cooperatively on the caller's goroutine under guard checkpoints, with
// panics recovered per budget during sweeps. They are not safe for
// concurrent use — serving layers serialize access per session
// (internal/serve's session pool).

package solve

import (
	"context"
	"errors"
	"math"
	"runtime/debug"

	"wrbpg/internal/anytime"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/par"
)

// infCost is the shared infeasibility threshold: every family solver
// uses math.MaxInt64/4 as its Inf sentinel, so any cost at or above it
// means "no schedule exists under this budget".
const infCost cdag.Weight = math.MaxInt64 / 4

// CostPoint is one budget's answer in a sweep.
type CostPoint struct {
	// Budget is the queried fast-memory budget.
	Budget cdag.Weight
	// Cost is the optimal weighted I/O under Budget; it is the family's
	// Inf sentinel (≥ infCost) when Feasible is false.
	Cost cdag.Weight
	// Feasible reports whether any schedule exists under Budget.
	Feasible bool
	// Err, when non-nil, is the typed reason this budget's query was
	// aborted (guard.ErrDeadline, guard.ErrCanceled, a *par.PanicError,
	// …); Cost and Feasible are meaningless then. Other budgets in the
	// same sweep are unaffected unless the whole sweep was canceled.
	Err error
}

// Session is a persistent warm solver for one instance, answering
// repeated cost/schedule queries across budgets. Create with
// NewSession.
type Session struct {
	inst     Instance
	label    string
	g        *cdag.Graph
	lb       cdag.Weight
	minExist cdag.Weight
	// sv is the family's guarded solver, and fc the counter set its
	// solver-progress counts (memo hits, cells, splits) flush into.
	// Public queries flush per call; SweepCosts flushes once per sweep,
	// keeping the warm-sweep hot path at a couple of atomic adds total.
	sv solver
	fc *guard.FamilyCounters
	// patch, for the incremental families (dwt, ktree), is sv's
	// dependency-tracked weight patch; baseW snapshots the base
	// instance's weights so PatchTo can revert nodes that fall out of
	// the target delta list; cur is the canonical delta state the
	// session currently sits at; scratch/merged are retained merge
	// buffers keeping the steady-state patch path allocation-free.
	patch   patcher
	baseW   []cdag.Weight
	cur     []cdag.WeightDelta
	scratch []cdag.WeightDelta
	merged  []cdag.WeightDelta
}

// patcher is the weight patch of the incremental families' solvers
// (dwt and ktree Scheduler.SetWeights), which also notes its
// invalidation counts in the solver's counts.
type patcher interface {
	SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error)
}

// flush records the accumulated solver counts since the last flush.
func (s *Session) flush() { s.fc.Record(s.sv.TakeCounts()) }

// NewSession builds the instance's graph once and the family's guarded
// solver over it, the same solver a one-shot Build runs. The graph's
// topology comes from the shape table, so a session shares it with
// every cold solve and session of its shape. For FamilyCDAG
// there is no reusable memo, so every budget query is a cold (but
// guarded) anytime search — the Session still provides the uniform
// surface.
//
// For the incremental families the *base* graph (deltas stripped) is
// built first and any instance deltas are then applied through PatchTo,
// so a session constructed from a patched instance and a base session
// patched afterwards are in identical states.
func NewSession(inst Instance) (*Session, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	base := inst
	base.Deltas = nil
	f, err := base.build()
	if err != nil {
		return nil, err
	}
	sv, fc, err := f.newSolver()
	if err != nil {
		return nil, err
	}
	s := &Session{inst: inst, label: inst.Label(), g: f.g, sv: sv, fc: fc,
		lb: core.LowerBound(f.g), minExist: core.MinExistenceBudget(f.g)}
	if s.patch, _ = sv.(patcher); s.patch != nil {
		s.baseW = snapshotWeights(s.g)
	}
	if _, err := s.PatchTo(inst.Deltas); err != nil {
		return nil, err
	}
	return s, nil
}

// anytimeSolver is the general-DAG tier's solver: every budget query is
// an anytime search (the exact Dijkstra solver stays available as a
// library for certification, but cannot answer within serving
// deadlines on arbitrary graphs), which flushes its own counts. Costs
// are upper bounds unless the search reports Complete; they are still
// monotone enough for sweeps because every query seeds from the same
// baselines.
type anytimeSolver struct{ g *cdag.Graph }

func (a anytimeSolver) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	res, err := anytime.Search(ctx, a.g, b, lim, anytime.Options{})
	if errors.Is(err, anytime.ErrInfeasible) {
		return infCost, nil
	}
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

func (a anytimeSolver) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	res, err := anytime.Search(ctx, a.g, b, lim, anytime.Options{})
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func (anytimeSolver) TakeCounts() guard.Counts { return guard.Counts{} }

func snapshotWeights(g *cdag.Graph) []cdag.Weight {
	w := make([]cdag.Weight, g.Len())
	for v := range w {
		w[v] = g.Weight(cdag.NodeID(v))
	}
	return w
}

// Label returns the human-readable instance label.
func (s *Session) Label() string { return s.label }

// Graph returns the underlying CDAG.
func (s *Session) Graph() *cdag.Graph { return s.g }

// LowerBound returns the cached Proposition 2.4 lower bound.
func (s *Session) LowerBound() cdag.Weight { return s.lb }

// MinExistence returns the cached Proposition 2.3 existence bound.
func (s *Session) MinExistence() cdag.Weight { return s.minExist }

// CostCtx returns the optimal cost under the budget against the warm
// state (the family Inf sentinel when infeasible). Resource limits in
// lim are per query.
func (s *Session) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	defer s.flush()
	return s.costCtx(ctx, lim, b)
}

// costCtx is CostCtx without the metrics flush, for sweep internals
// that flush once per sweep instead of once per budget.
func (s *Session) costCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	if b < s.minExist {
		return infCost, nil
	}
	return s.sv.CostCtx(ctx, lim, b)
}

// ScheduleCtx generates an optimal schedule under the budget against
// the warm state. Unlike Run it neither validates the schedule nor
// degrades to the baseline — callers wanting the hardened contract
// wrap the instance in Run.
func (s *Session) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	defer s.flush()
	return s.sv.ScheduleCtx(ctx, lim, b)
}

// SweepCosts answers every budget in order against the warm state,
// appending one CostPoint per budget to out (pass a retained out[:0]
// for allocation-free steady state; nil grows a fresh slice).
//
// Per-budget failures — deadline, resource budget, a solver panic —
// are recorded on that budget's CostPoint and the sweep continues, so
// a mid-sweep deadline yields valid answers for the budgets served
// before it; no-poison memoization keeps the session reusable after
// any abort. Cancellation stops the sweep (the caller is gone) and
// returns the partial prefix with guard.ErrCanceled. Each item passes
// through par.Fault, so par.SetFaultHook fault-injection tests
// exercise this path like any pool worker.
func (s *Session) SweepCosts(ctx context.Context, lim guard.Limits, budgets []cdag.Weight, out []CostPoint) ([]CostPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One metrics flush covers the whole sweep: per-budget flushing
	// would double the cost of an all-warm sweep.
	defer s.flush()
	for i, b := range budgets {
		cp := s.costPoint(ctx, lim, i, b)
		out = append(out, cp)
		if cp.Err != nil && errors.Is(cp.Err, guard.ErrCanceled) {
			return out, guard.ErrCanceled
		}
	}
	return out, nil
}

// costPoint answers one budget with pool-worker crash isolation: a
// panicking solver (or injected fault) surfaces as a *par.PanicError
// on the point, never as a process crash, and the deferred guard
// teardown in the family solvers keeps their memo state consistent.
func (s *Session) costPoint(ctx context.Context, lim guard.Limits, i int, b cdag.Weight) (cp CostPoint) {
	cp.Budget = b
	defer func() {
		if r := recover(); r != nil {
			cp = CostPoint{Budget: b, Err: &par.PanicError{Index: i, Value: r, Stack: debug.Stack()}}
		}
	}()
	par.Fault(i)
	c, err := s.costCtx(ctx, lim, b)
	if err != nil {
		cp.Err = err
		return cp
	}
	cp.Cost = c
	cp.Feasible = c < infCost
	return cp
}
