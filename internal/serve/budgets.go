// The budget-list serving path: POST /v1/schedule/sweep and POST
// /v1/schedule/patch both ask for the optimal costs of one instance at
// a list of budgets, and a sweep is a patch with no deltas. One handler
// serves both; a route supplies only its request/budget counters and
// its span name. Answers come from an LRU pool of warm solver sessions
// keyed by the delta-free BaseShapeKey, so every weight variant of one
// base re-patches the same session: PatchTo invalidates only the memo
// cells a weight change dirties, and the DP memos share sub-budget
// cells across queries. Request buffers recycle through the server's
// sync.Pool, so the warm steady state allocates nothing per query
// (guarded by internal/bench's alloc-regression test over PatchCosts).

package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
	"wrbpg/internal/schedcache"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// sessionEntry pairs one warm solve.Session with the mutex serializing
// access to it (sessions are single-goroutine solvers). inst is the
// *base* instance, deltas stripped, kept so a request naming only a
// base_key can re-derive the instance.
type sessionEntry struct {
	mu   sync.Mutex
	inst solve.Instance
	se   *solve.Session
}

// sweepWorkspace is the per-request scratch recycled through the
// server's pool; slices are reused via [:0].
type sweepWorkspace struct {
	pts   []solve.CostPoint
	items []wire.SweepItem
}

// budgetRoute is what one budget-list route adds to the shared path.
type budgetRoute struct {
	span          string
	reqs, budgets *obs.Counter
}

// PatchOutcome reports the non-item results of one PatchCosts call,
// captured under the session lock so they describe exactly the state
// the budget answers came from: the incremental engine's work report,
// the patched graph's Proposition 2.4 / 2.3 bounds, the base
// instance's label and the pool disposition of the session lookup.
type PatchOutcome struct {
	Stats                    solve.PatchStats
	LowerBound, MinExistence cdag.Weight
	Label                    string
	Session                  schedcache.State
}

// handleBudgets serves POST /v1/schedule/sweep and /v1/schedule/patch.
func (s *Server) handleBudgets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, wire.Errorf(http.StatusMethodNotAllowed, "POST required"))
		return
	}
	rt := budgetRoute{"sweep.solve", s.m.reqSweep, s.m.sweepBudgets}
	if r.URL.Path == "/v1/schedule/patch" {
		rt = budgetRoute{"patch.solve", s.m.reqPatch, s.m.patchBudgets}
	}
	rt.reqs.Inc()
	var req wire.PatchRequest
	if err := decodeStrict(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		s.writeErr(w, asWireErr(err))
		return
	}
	// The response aliases ws.items, so the workspace must outlive the
	// encoder: the handler owns its lifetime.
	ws := s.wsPool.Get().(*sweepWorkspace)
	defer s.wsPool.Put(ws)
	res, werr := s.budgetList(r.Context(), rt, &req, ws)
	if werr != nil {
		s.writeErr(w, werr)
		return
	}
	noteCost(w, res.Cost)
	writeAppended(w, res.AppendJSON)
}

// budgetList validates the request, resolves its base, derives the
// whole-request deadline, acquires a solver slot and answers every
// budget through PatchCosts.
func (s *Server) budgetList(ctx context.Context, rt budgetRoute, req *wire.PatchRequest, ws *sweepWorkspace) (*wire.PatchResponse, *wire.Error) {
	start := time.Now()
	switch {
	case len(req.BudgetsBits) == 0:
		return nil, wire.Errorf(http.StatusBadRequest, "budgets_bits must not be empty")
	case len(req.BudgetsBits) > s.opts.MaxSweepBudgets:
		return nil, wire.Errorf(http.StatusBadRequest,
			"%d budgets exceed limit %d", len(req.BudgetsBits), s.opts.MaxSweepBudgets)
	case len(req.Deltas) > s.opts.MaxPatchDeltas:
		return nil, wire.Errorf(http.StatusBadRequest,
			"%d deltas exceed limit %d", len(req.Deltas), s.opts.MaxPatchDeltas)
	}
	for i, b := range req.BudgetsBits {
		if b < 1 {
			return nil, wire.Errorf(http.StatusBadRequest, "budgets_bits[%d] must be positive, got %d", i, b)
		}
	}
	inst, baseKey, werr := s.resolveBase(req)
	if werr != nil {
		return nil, werr
	}

	// One deadline covers every budget, carried by the context so the
	// warm queries need no per-query timer (which would allocate). The
	// request takes one admission slot like any cold solve and its queue
	// wait shares the deadline; a shed request is a 429 — there is no
	// cheap whole-list baseline to degrade to.
	d := s.requestDeadline(ctx, req.TimeoutMS)
	sctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	tk, shed := s.adm.Acquire(ctx, d)
	if shed != nil {
		s.m.shed(shed.mode)
		if shed.mode == shedCanceled {
			return nil, asWireErr(guard.Wrap(ctx.Err()))
		}
		return nil, shedErr(shed)
	}
	defer tk.Release()

	s.m.inflight.Add(1)
	// The counts sink rides the context: the session's sweep flush
	// adds the request's solver counts to it, feeding the cost block.
	cs := &guard.CountsSink{}
	solveStart := time.Now()
	wctx, wsp := obs.StartSpan(guard.WithSink(sctx, cs), rt.span)
	pts, out, err := s.PatchCosts(wctx, &inst, baseKey, req.BudgetsBits, ws.pts[:0])
	wsp.SetAttr("session", out.Session.String())
	wsp.End()
	solveWall := time.Since(solveStart)
	s.m.inflight.Add(-1)
	ws.pts = pts
	if err != nil {
		// A rejected delta list or instance, or a whole-request
		// cancellation; per-budget aborts land on their items instead.
		return nil, asWireErr(err)
	}

	items, failed := ws.items[:0], 0
	for _, p := range pts {
		it := wire.SweepItem{BudgetBits: int64(p.Budget)}
		switch {
		case p.Err != nil:
			it.Error = asSweepItemErr(p.Err)
			s.m.fallbackVec.With(it.Error.Reason).Inc()
			failed++
		case p.Feasible: // infeasible is a legitimate answer, not a failure
			it.CostBits, it.Feasible = int64(p.Cost), true
		}
		items = append(items, it)
	}
	ws.items = items
	rt.budgets.Add(uint64(len(req.BudgetsBits)))
	patchKey := baseKey
	if len(inst.Deltas) > 0 {
		patchKey = inst.ShapeKey()
		s.m.patchDeltas.Add(uint64(len(inst.Deltas)))
		s.m.patchChanged.Add(uint64(out.Stats.Changed))
		if out.Stats.Changed == 0 {
			s.m.patchNoops.Inc()
		}
	}

	// The incremental engine's work report is authoritative for the
	// cell counters (the sink only sees what a checker flushed).
	cost := costMeta(wire.TierSession, tk.waited, solveWall, cs)
	cost.CellsInvalidated, cost.CellsReused = out.Stats.Invalidated, out.Stats.Reused
	resp := &wire.PatchResponse{
		Workload:         out.Label,
		BaseKey:          baseKey,
		PatchKey:         patchKey,
		LowerBoundBits:   int64(out.LowerBound),
		MinExistenceBits: int64(out.MinExistence),
		Items:            items,
		Succeeded:        len(items) - failed,
		Failed:           failed,
		Session:          out.Session.String(),
		DeltasApplied:    len(inst.Deltas),
		ChangedNodes:     out.Stats.Changed,
		CellsInvalidated: out.Stats.Invalidated,
		CellsReused:      out.Stats.Reused,
		ElapsedUS:        wire.Elapsed(start),
		Cost:             cost,
	}
	return resp, nil
}

// resolveBase returns the request's instance, deltas attached and
// validated, and the pool key of its base: a resident session named by
// base_key, or the inline fields (which warm the pool for later
// base_key calls).
func (s *Server) resolveBase(req *wire.PatchRequest) (solve.Instance, string, *wire.Error) {
	if req.BaseKey == "" {
		inst, err := req.Instance()
		if err != nil {
			return inst, "", wire.Errorf(http.StatusBadRequest, "%v", err)
		}
		return inst, inst.BaseShapeKey(), nil
	}
	if req.Family != "" {
		return solve.Instance{}, "", wire.Errorf(http.StatusBadRequest,
			"base_key and an inline base instance are mutually exclusive")
	}
	ent, ok := s.sessions.Get(req.BaseKey)
	if !ok {
		return solve.Instance{}, "", wire.Errorf(http.StatusNotFound,
			"base session %q is not resident (pool keeps %d sessions, LRU-evicted); resend with the inline base instance",
			req.BaseKey, s.opts.SweepSessions)
	}
	inst := ent.inst
	var err error
	if inst.Deltas, err = wire.CanonicalDeltas(req.Deltas); err == nil {
		err = inst.Validate()
	}
	if err != nil {
		return inst, "", wire.Errorf(http.StatusBadRequest, "%v", err)
	}
	return inst, req.BaseKey, nil
}

// PatchCosts is the allocation-free core of the budget-list path (the
// bench harness drives it directly): look up or build (singleflighted)
// the warm base session for baseKey — the instance's BaseShapeKey —
// move it to the instance's delta state under the entry lock, and
// answer every budget against the surviving memo cells, appending to
// out. The error is a rejected delta list or an instance no session
// can be built for (a shape its family cannot build, or family cdag),
// both as 400 *wire.Errors, or guard.ErrCanceled for a whole-request
// cancellation; per-budget aborts are reported on their CostPoint.
func (s *Server) PatchCosts(ctx context.Context, inst *solve.Instance, baseKey string, budgets []cdag.Weight, out []solve.CostPoint) ([]solve.CostPoint, PatchOutcome, error) {
	_, asp := obs.StartSpan(ctx, "session.acquire")
	ent, state, err := s.sessions.Do(baseKey, func() (*sessionEntry, bool, error) {
		base := *inst
		base.Deltas = nil
		se, err := solve.NewSession(base)
		if err != nil {
			return nil, false, wire.Errorf(http.StatusBadRequest, "%v", err)
		}
		return &sessionEntry{inst: base, se: se}, true, nil
	})
	asp.SetAttr("disposition", state.String())
	asp.End()
	po := PatchOutcome{Session: state}
	if err != nil {
		return out, po, err
	}
	if state == schedcache.Hit {
		s.m.sessionHits.Inc()
	} else {
		s.m.sessionMisses.Inc()
	}
	// The request deadline rides ctx, so Deadline stays zero and the
	// session's guard checker resets without starting a timer.
	lim := s.opts.Limits
	lim.Deadline = 0
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if po.Stats, err = ent.se.PatchTo(inst.Deltas); err != nil {
		return out, po, wire.Errorf(http.StatusBadRequest, "%v", err)
	}
	po.Label, po.LowerBound, po.MinExistence = ent.se.Label(), ent.se.LowerBound(), ent.se.MinExistence()
	pts, err := ent.se.SweepCosts(ctx, lim, budgets, out)
	return pts, po, err
}

// asSweepItemErr maps a per-budget abort onto the structured item
// error, carrying the machine-readable reason alongside the message:
// deadline → 504, resource budget → 422, cancellation → 499, anything
// else (including solver faults) → 500.
func asSweepItemErr(err error) *wire.Error {
	reason := solve.FallbackReason(err)
	switch {
	case errors.Is(err, guard.ErrDeadline):
		return wire.Errorf(http.StatusGatewayTimeout, "budget query deadline exceeded: %v", err).WithReason(reason)
	case errors.Is(err, guard.ErrBudgetExceeded):
		return wire.Errorf(http.StatusUnprocessableEntity, "resource budget exhausted: %v", err).WithReason(reason)
	case errors.Is(err, guard.ErrCanceled):
		return wire.Errorf(499, "client closed request").WithReason(reason)
	default:
		return wire.Errorf(http.StatusInternalServerError, "%v", err).WithReason(reason)
	}
}
