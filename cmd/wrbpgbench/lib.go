// The library path: benchmark code calling the public functions
// wrbpgd's handlers call, in the order they call them, with a span
// around each call. It times the layers from outside, so the server
// needs no tracing of its own.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"wrbpg/internal/cdag"
	"wrbpg/internal/cluster"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/schedcache"
	"wrbpg/internal/serve/wire"
	"wrbpg/internal/solve"
)

// Span names: one per layer, named after the module whose public
// function the span wraps.
const (
	spanRequest  = "lib.request"
	spanDecode   = "wire.decode"
	spanInstance = "solve.instance"
	spanProbe    = "schedcache.probe"
	spanBuild    = "solve.build"
	spanOptimal  = "solve.optimal"
	spanFallback = "solve.fallback"
	spanSimulate = "core.simulate"
	spanPeer     = "cluster.peer_fill"
	spanAcquire  = "session.acquire"
	spanPatch    = "session.patch"
	spanSweep    = "session.sweep"
	spanEncode   = "wire.encode"
)

// The server's defaults the library path mirrors.
const (
	cacheShards, cachePerShard = 16, 64
	sessionPool                = 32
	defaultTimeout             = 2 * time.Second
)

// span is one timed call of one request. Parent is the enclosing span's
// ID, -1 for the request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects one client's spans in memory. A nil recorder
// records nothing, so the untimed replay shares the code.
type recorder struct {
	t0    time.Time
	req   int
	spans []span
	stack []int
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// lib is one replica's library path: its own schedule cache and
// session pool, sized like the server's, and in a fleet the replica's
// ring client and the replica it sends peer fills to.
type lib struct {
	cache    *schedcache.Cache[*wire.ScheduleResult]
	sessions *schedcache.Cache[*libSession]
	ring     *cluster.Cluster
	peer     string
}

type libSession struct {
	mu sync.Mutex
	se *solve.Session
}

func newLib() *lib {
	return &lib{
		cache:    schedcache.New[*wire.ScheduleResult](cacheShards, cachePerShard),
		sessions: schedcache.New[*libSession](1, sessionPool),
	}
}

// do answers one request: the status and body the server would send.
// tier, when set, is the tier at which the server answered the request:
// the library then answers with the baseline where the server shed it,
// and from its peer where a peer filled it, and solves it otherwise.
func (l *lib) do(req request, rec *recorder, tier string) (int, []byte) {
	root := rec.begin(spanRequest)
	defer rec.end(root)
	var res any
	var err error
	switch req.Path {
	case pathSchedule:
		res, err = l.schedule(req.Body, rec, tier)
	case pathSweep:
		res, err = l.sweep(req.Body, rec)
	case pathPatch:
		res, err = l.patch(req.Body, rec)
	default:
		err = wire.Errorf(http.StatusNotFound, "unknown path %s", req.Path)
	}
	if err != nil {
		var we *wire.Error
		if !errors.As(err, &we) {
			we = wire.Errorf(http.StatusInternalServerError, "%v", err)
		}
		return we.Status, encodeIndent(we)
	}
	sp := rec.begin(spanEncode)
	out := encodeIndent(res)
	rec.end(sp)
	return http.StatusOK, out
}

// decodeStrict decodes like the server: unknown fields and trailing
// data are errors.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return wire.Errorf(http.StatusBadRequest, "malformed request body: %v", err)
	}
	if dec.More() {
		return wire.Errorf(http.StatusBadRequest, "trailing data after request body")
	}
	return nil
}

// encodeIndent encodes like the server's writeJSON.
func encodeIndent(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // wire types always encode
	return buf.Bytes()
}

func badRequest(err error) error { return wire.Errorf(http.StatusBadRequest, "%v", err) }

func (l *lib) schedule(raw []byte, rec *recorder, tier string) (*wire.ScheduleResult, error) {
	sp := rec.begin(spanDecode)
	var wr wire.ScheduleRequest
	err := decodeStrict(raw, &wr)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanInstance)
	inst, err := wr.Instance()
	var key string
	if err == nil {
		key = inst.Key(cdag.Weight(wr.BudgetBits))
	}
	rec.end(sp)
	if err != nil {
		return nil, badRequest(err)
	}
	sp = rec.begin(spanProbe)
	cached, state, err := l.cache.Do(key, func() (*wire.ScheduleResult, bool, error) {
		return l.solve(&wr, &inst, key, rec, tier)
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanEncode)
	res := cached.Clone()
	res.Cache, res.CacheKey, res.Schedule = state.String(), key, nil
	switch state {
	case schedcache.Hit:
		res.Cost = &wire.CostMeta{SourceTier: wire.TierCache}
	case schedcache.Shared:
		res.Cost = &wire.CostMeta{SourceTier: wire.TierShared}
	}
	rec.end(sp)
	return res, nil
}

// solve is the cache-miss path in the server's order: build and check
// the existence bound, then answer with the baseline where the server
// shed the request, from the peer where a peer filled it, and else
// solve and validate locally. The server builds before the peer fill,
// so a filled answer pays for a build it does not use. The server's
// ring picks the owner by hashing the replicas' addresses, which differ
// from fleet to fleet, so the library follows the server's tier rather
// than its own ring's choice.
func (l *lib) solve(wr *wire.ScheduleRequest, inst *solve.Instance, key string, rec *recorder, tier string) (*wire.ScheduleResult, bool, error) {
	sp := rec.begin(spanBuild)
	p, g, err := inst.Build()
	rec.end(sp)
	if err != nil {
		return nil, false, badRequest(err)
	}
	budget := cdag.Weight(wr.BudgetBits)
	if budget < core.MinExistenceBudget(g) {
		return nil, false, wire.Errorf(http.StatusBadRequest, "budget %d below existence bound", budget)
	}
	deadline := defaultTimeout
	if wr.TimeoutMS > 0 {
		deadline = time.Duration(wr.TimeoutMS) * time.Millisecond
	}
	switch {
	case tier == wire.TierBreaker || tier == wire.TierDegraded:
		sp = rec.begin(spanFallback)
		out, err := solve.Degraded(context.Background(), p, budget)
		rec.end(sp)
		if err != nil {
			return nil, false, err
		}
		sp = rec.begin(spanEncode)
		res := wire.NewScheduleResult(inst.Label(), out, core.LowerBound(g), true)
		res.Cost = &wire.CostMeta{SourceTier: tier}
		rec.end(sp)
		return res, false, nil
	case tier == wire.TierPeer && l.ring != nil:
		sp := rec.begin(spanPeer)
		res, ok := l.fill(l.peer, key, wr, deadline)
		rec.end(sp)
		if ok {
			return res, cacheable(res), nil
		}
	}
	lim := guard.Limits{Deadline: deadline}
	var out solve.Outcome
	if p.Anytime {
		// The anytime tier reports its search (completeness, seed cost)
		// only through Run, which validates inside the same call; on a
		// 30 ms search that validation is a few microseconds.
		sp = rec.begin(spanOptimal)
		out, err = solve.Run(context.Background(), p, budget, lim)
		rec.end(sp)
		if err != nil {
			return nil, false, err
		}
	} else {
		sp = rec.begin(spanOptimal)
		sched, err := p.Optimal(context.Background(), lim, budget)
		rec.end(sp)
		if err != nil {
			return nil, false, err
		}
		sp = rec.begin(spanSimulate)
		st, err := core.Simulate(g, budget, sched)
		rec.end(sp)
		if err != nil {
			return nil, false, err
		}
		out = solve.Outcome{Source: solve.SourceOptimal, Schedule: sched, Stats: st, Budget: budget}
	}
	sp = rec.begin(spanEncode)
	res := wire.NewScheduleResult(inst.Label(), out, core.LowerBound(g), true)
	res.Cost = &wire.CostMeta{SourceTier: wire.TierSolve}
	rec.end(sp)
	return res, cacheable(res), nil
}

// cacheable mirrors the server's rule: optimal answers, and anytime
// answers whose search completed.
func cacheable(res *wire.ScheduleResult) bool {
	if res.Source == solve.SourceOptimal.String() {
		return true
	}
	return res.Source == solve.SourceAnytime.String() && res.Anytime != nil && res.Anytime.Complete
}

// fill asks the owner replica for the answer, bounded like the
// server's peer fill: the ring's peer timeout, at most half the
// deadline. ok is false when the local solver must answer. A replica
// answers a fill for any key, owned or not.
func (l *lib) fill(owner, key string, wr *wire.ScheduleRequest, deadline time.Duration) (*wire.ScheduleResult, bool) {
	timeout := l.ring.PeerTimeout()
	if deadline/2 < timeout {
		timeout = deadline / 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	fwd := *wr
	fwd.IncludeMoves = true
	fwd.TimeoutMS = timeout.Milliseconds()
	res, _, apiErr, err := l.ring.Fill(ctx, owner, &wire.PeerScheduleRequest{Req: fwd, Key: key, Origin: l.ring.Self()})
	if err != nil || apiErr != nil {
		return nil, false
	}
	res.Cache, res.CacheKey = "", ""
	if res.Cost == nil {
		res.Cost = &wire.CostMeta{}
	}
	res.Cost.SourceTier = wire.TierPeer
	res.Cost.PeerHops++
	return res, true
}

// acquire returns the pooled session for key, built on first use, with
// its lock held: sessions are single-goroutine solvers.
func (l *lib) acquire(inst *solve.Instance, key string, rec *recorder) (*libSession, schedcache.State, error) {
	sp := rec.begin(spanAcquire)
	defer rec.end(sp)
	ent, state, err := l.sessions.Do(key, func() (*libSession, bool, error) {
		base := *inst
		base.Deltas = nil
		se, err := solve.NewSession(base)
		if err != nil {
			return nil, false, err
		}
		return &libSession{se: se}, true, nil
	})
	if err != nil {
		return nil, state, badRequest(err)
	}
	ent.mu.Lock()
	return ent, state, nil
}

// answer moves the session to the instance's deltas and answers every
// budget; the caller holds the session lock.
func (l *lib) answer(ctx context.Context, ent *libSession, deltas []cdag.WeightDelta, budgets []int64, rec *recorder) (solve.PatchStats, []wire.SweepItem, error) {
	sp := rec.begin(spanPatch)
	st, err := ent.se.PatchTo(deltas)
	rec.end(sp)
	if err != nil {
		return st, nil, badRequest(err)
	}
	bs := make([]cdag.Weight, len(budgets))
	for i, b := range budgets {
		bs[i] = cdag.Weight(b)
	}
	sp = rec.begin(spanSweep)
	pts, err := ent.se.SweepCosts(ctx, guard.Limits{}, bs, nil)
	rec.end(sp)
	if err != nil {
		return st, nil, err
	}
	items := make([]wire.SweepItem, len(pts))
	for i, p := range pts {
		items[i] = wire.SweepItem{BudgetBits: int64(p.Budget)}
		switch {
		case p.Err != nil:
			items[i].Error = wire.Errorf(http.StatusInternalServerError, "%v", p.Err)
		case p.Feasible:
			items[i].CostBits, items[i].Feasible = int64(p.Cost), true
		}
	}
	return st, items, nil
}

func (l *lib) sweep(raw []byte, rec *recorder) (*wire.SweepResponse, error) {
	sp := rec.begin(spanDecode)
	var wr wire.SweepRequest
	err := decodeStrict(raw, &wr)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanInstance)
	inst, err := wr.Instance()
	var key string
	if err == nil {
		key = inst.ShapeKey()
	}
	rec.end(sp)
	if err != nil {
		return nil, badRequest(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	ent, state, err := l.acquire(&inst, key, rec)
	if err != nil {
		return nil, err
	}
	_, items, err := l.answer(ctx, ent, inst.Deltas, wr.BudgetsBits, rec)
	lb, minExist, label := ent.se.LowerBound(), ent.se.MinExistence(), ent.se.Label()
	ent.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanEncode)
	resp := &wire.SweepResponse{
		Workload: label, LowerBoundBits: int64(lb), MinExistenceBits: int64(minExist),
		Items: items, Session: state.String(),
		Cost: &wire.CostMeta{SourceTier: wire.TierSession},
	}
	resp.Succeeded, resp.Failed = countItems(items)
	rec.end(sp)
	return resp, nil
}

func (l *lib) patch(raw []byte, rec *recorder) (*wire.PatchResponse, error) {
	sp := rec.begin(spanDecode)
	var wr wire.PatchRequest
	err := decodeStrict(raw, &wr)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanInstance)
	inst, err := wr.BaseInstance()
	var baseKey string
	if err == nil {
		baseKey = inst.BaseShapeKey()
		if inst.Deltas, err = wire.CanonicalDeltas(wr.Deltas); err == nil {
			err = inst.Validate()
		}
	}
	rec.end(sp)
	if err != nil {
		return nil, badRequest(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	ent, state, err := l.acquire(&inst, baseKey, rec)
	if err != nil {
		return nil, err
	}
	st, items, err := l.answer(ctx, ent, inst.Deltas, wr.BudgetsBits, rec)
	lb, minExist, label := ent.se.LowerBound(), ent.se.MinExistence(), ent.se.Label()
	ent.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanEncode)
	resp := &wire.PatchResponse{
		Workload: label, BaseKey: baseKey, PatchKey: inst.ShapeKey(),
		LowerBoundBits: int64(lb), MinExistenceBits: int64(minExist),
		Items: items, Session: state.String(),
		DeltasApplied: len(inst.Deltas), ChangedNodes: st.Changed,
		CellsInvalidated: st.Invalidated, CellsReused: st.Reused,
		Cost: &wire.CostMeta{SourceTier: wire.TierSession, CellsInvalidated: st.Invalidated, CellsReused: st.Reused},
	}
	resp.Succeeded, resp.Failed = countItems(items)
	rec.end(sp)
	return resp, nil
}

func countItems(items []wire.SweepItem) (succeeded, failed int) {
	for _, it := range items {
		if it.Error != nil {
			failed++
		} else {
			succeeded++
		}
	}
	return succeeded, failed
}
