// Package anytime implements the general-DAG scheduler tier: a
// parallel best-first branch-and-bound search over partial WRBPG
// schedules for arbitrary CDAGs.
//
// Exact general red-blue pebbling is intractable (Papp–Wattenhofer),
// so the search is an *anytime* solver: it seeds a feasible incumbent
// from the baseline schedulers (so the floor equals the degradation
// ladder's fallback), then explores the space of partial schedules,
// keeping the best complete schedule found so far in a lock-free
// shared incumbent. On deadline or state-budget exhaustion it returns
// the incumbent — later answers never cost more than earlier ones, and
// never more than baseline.LayerByLayer.
//
// The search space is the no-recompute subspace: every node is
// computed exactly once and a computed (or source) value is never
// lost — it stays red or blue until its last consumer is computed.
// Both baselines live in this subspace, so feasibility at any budget
// at or above the Proposition 2.3 existence bound is guaranteed, and
// every complete search-space schedule is a valid upper bound for the
// unrestricted game.
//
// A search node is the triple (computed set, red set, blue set) plus
// cost-so-far; branching picks the next node to compute, realized by a
// deterministic micro-move sequence (load missing parents, heuristic
// eviction for room, M3, release dead values, store sinks). Pruning
// compares cost-so-far + a state-generalized Proposition 2.4 residual
// (mandatory future reloads of live non-resident values plus stores of
// unstored sinks) against the incumbent via one atomic load. The
// frontier is sharded across internal/par workers (each worker pops
// its own shard first and steals from the others), and duplicate
// states are suppressed by a sharded open-addressed visited table over
// packed bitset.Set keys.
package anytime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wrbpg/internal/baseline"
	"wrbpg/internal/bitset"
	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/obs"
	"wrbpg/internal/par"
)

// ErrInfeasible reports a budget below the Proposition 2.3 existence
// bound: no schedule exists at all, so there is nothing anytime about
// it. It is not degradable — the baseline cannot answer either.
var ErrInfeasible = errors.New("anytime: no valid schedule exists under the budget")

// Options tune one Search beyond its guard.Limits.
type Options struct {
	// Workers is the parallel search width; ≤0 selects GOMAXPROCS.
	Workers int
	// TargetCost, when positive, stops the search as soon as the
	// incumbent reaches it — the "time to match a reference cost"
	// mode BenchmarkTimeToMatch times.
	TargetCost cdag.Weight
}

// Improvement is one step of the incumbent trajectory: the incumbent
// cost and the wall-clock offset at which it was installed. The first
// entry is the baseline seed.
type Improvement struct {
	Cost    cdag.Weight   `json:"cost"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Result reports one anytime search.
type Result struct {
	// Schedule is the incumbent: the cheapest complete schedule found.
	Schedule core.Schedule
	// Cost is the incumbent's weighted I/O cost.
	Cost cdag.Weight
	// SeedCost is the baseline incumbent the search started from
	// (min of layer-by-layer over depth layers and greedy).
	SeedCost cdag.Weight
	// LowerBound is the Proposition 2.4 bound for the graph.
	LowerBound cdag.Weight
	// Complete reports that the incumbent is optimal within the
	// no-recompute search space: the frontier drained, or the incumbent
	// met the lower bound (in which case it is globally optimal).
	// Deadline, state-budget, target-cost and worker-crash exits leave
	// it false unless the incumbent met the lower bound first: a
	// schedule at the Proposition 2.4 bound is optimal however the
	// search ended.
	Complete bool
	// Expanded, Pruned and Deduped count search states expanded,
	// cut by the bound, and suppressed by the visited table.
	Expanded, Pruned, Deduped int64
	// Improvements counts incumbent replacements (seed excluded).
	Improvements int64
	// Workers is the parallel width the search ran at.
	Workers int
	// Trajectory is the incumbent cost over time, starting at the seed.
	// It is non-increasing — the monotone anytime contract.
	Trajectory []Improvement
}

// state is one search node: the partial-schedule equivalence class
// (done, red, blue) with its cheapest known realization.
type state struct {
	parent *state
	moves  []core.Move // micro-moves applied on top of parent
	done   bitset.Set
	red    bitset.Set
	blue   bitset.Set
	redW   cdag.Weight
	cost   cdag.Weight
	f      cdag.Weight // cost + admissible residual
	nDone  int32
}

// searcher owns the shared search structures of one Search call.
type searcher struct {
	g         *cdag.Graph
	budget    cdag.Weight
	lb        cdag.Weight
	target    cdag.Weight
	nonSource int32
	isSource  []bool
	start     time.Time

	// best is the lock-free incumbent cost bound (atomic CAS); the
	// schedule and trajectory behind it live under incMu.
	best         atomic.Int64
	incMu        sync.Mutex
	incCost      cdag.Weight
	incSched     core.Schedule
	traj         []Improvement
	improvements atomic.Int64

	shards  []frontierShard
	visited []visitedShard
	// pending counts frontier states not yet fully expanded; drain to
	// zero is the natural-termination signal.
	pending atomic.Int64
	// stop makes every worker exit promptly; the flags record why.
	stop       atomic.Bool
	optimalHit atomic.Bool // incumbent met the lower bound
	tripped    atomic.Bool // a worker hit its deadline/state budget
	targetHit  atomic.Bool // TargetCost reached

	expanded atomic.Int64
	pruned   atomic.Int64
	deduped  atomic.Int64
}

// DepthLayers partitions the nodes by longest-path depth from the
// sources: layer 0 is exactly the source set, and every node's parents
// sit in strictly earlier layers — the layer structure the baseline
// layer-by-layer scheduler needs on an arbitrary CDAG.
func DepthLayers(g *cdag.Graph) [][]cdag.NodeID {
	n := g.Len()
	depth := make([]int, n)
	maxd := 0
	for v := 0; v < n; v++ {
		d := 0
		for _, p := range g.Parents(cdag.NodeID(v)) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[v] = d
		if d > maxd {
			maxd = d
		}
	}
	layers := make([][]cdag.NodeID, maxd+1)
	for v := 0; v < n; v++ {
		layers[depth[v]] = append(layers[depth[v]], cdag.NodeID(v))
	}
	return layers
}

// Seed returns the baseline incumbent the search starts from: the
// cheaper of greedy and layer-by-layer over depth layers. It is the
// anytime tier's floor — Search never returns a worse schedule.
func Seed(g *cdag.Graph, budget cdag.Weight) (core.Schedule, cdag.Weight, error) {
	var sched core.Schedule
	var cost cdag.Weight
	if s, err := baseline.LayerByLayer(g, DepthLayers(g), budget); err == nil {
		sched, cost = s, core.Cost(g, s)
	}
	if s, err := baseline.Greedy(g, budget); err == nil {
		if c := core.Cost(g, s); sched == nil || c < cost {
			sched, cost = s, c
		}
	}
	if sched == nil {
		return nil, 0, fmt.Errorf("%w: budget %d below existence bound %d",
			ErrInfeasible, budget, core.MinExistenceBudget(g))
	}
	return sched, cost, nil
}

// Search runs the anytime branch-and-bound under ctx and lim. It
// returns a valid schedule for every budget at or above the existence
// bound: the incumbent at deadline/state-budget exhaustion
// (Complete=false) or the subspace optimum when the frontier drains
// (Complete=true). Context cancellation returns guard.ErrCanceled with
// no schedule — the caller went away. A crashed worker (recovered by
// internal/par) degrades the search width, never the answer: the
// survivors keep searching and the incumbent still comes back.
func Search(ctx context.Context, g *cdag.Graph, budget cdag.Weight, lim guard.Limits, opt Options) (Result, error) {
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	if !core.ScheduleExists(g, budget) {
		return Result{}, fmt.Errorf("%w: budget %d below existence bound %d",
			ErrInfeasible, budget, core.MinExistenceBudget(g))
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sctx, span := obs.StartSpan(ctx, "anytime.search")

	seedSched, seedCost, err := Seed(g, budget)
	if err != nil {
		span.SetAttr("err", err.Error())
		span.End()
		return Result{}, err
	}

	s := &searcher{
		g:        g,
		budget:   budget,
		lb:       core.LowerBound(g),
		target:   opt.TargetCost,
		isSource: make([]bool, g.Len()),
		start:    time.Now(),
		shards:   make([]frontierShard, workers),
		visited:  make([]visitedShard, visitedShards),
	}
	var sources bitset.Set
	for v := 0; v < g.Len(); v++ {
		id := cdag.NodeID(v)
		if g.IsSource(id) {
			s.isSource[v] = true
			sources = sources.With(id)
		} else {
			s.nonSource++
		}
	}
	s.best.Store(int64(seedCost))
	s.incCost, s.incSched = seedCost, seedSched
	s.traj = []Improvement{{Cost: seedCost, Elapsed: time.Since(s.start)}}

	res := Result{
		SeedCost:   seedCost,
		LowerBound: s.lb,
		Workers:    workers,
	}
	if seedCost <= s.lb {
		// The baseline already meets the Proposition 2.4 bound: globally
		// optimal, nothing to search.
		s.finish(&res, true)
		span.SetAttr("complete", "true")
		span.End()
		return res, nil
	}

	root := &state{blue: sources, f: s.lb}
	s.pending.Store(1)
	s.shards[0].push(root)

	wlim := guard.Limits{Deadline: lim.Deadline}
	if lim.MaxStates > 0 {
		wlim.MaxStates = lim.MaxStates / workers
		if wlim.MaxStates == 0 {
			wlim.MaxStates = 1
		}
	}
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	_, werr := par.MapCtx(sctx, workers, ids, func(id int) (struct{}, error) {
		return struct{}{}, s.worker(sctx, id, wlim)
	})

	var pe *par.PanicError
	switch {
	case werr == nil:
	case errors.As(werr, &pe):
		// A worker crashed (or a fault hook killed it); its recovered
		// panic degraded the width, not the answer. Mark incomplete.
		s.tripped.Store(true)
	case errors.Is(werr, guard.ErrCanceled):
		span.SetAttr("err", werr.Error())
		span.End()
		return Result{}, werr
	default:
		span.SetAttr("err", werr.Error())
		span.End()
		return Result{}, werr
	}

	complete := s.optimalHit.Load() ||
		(!s.tripped.Load() && !s.targetHit.Load() && s.pending.Load() == 0)
	s.finish(&res, complete)
	span.SetAttr("workers", strconv.Itoa(workers))
	span.SetAttr("expanded", strconv.FormatInt(res.Expanded, 10))
	span.SetAttr("pruned", strconv.FormatInt(res.Pruned, 10))
	span.SetAttr("improvements", strconv.FormatInt(res.Improvements, 10))
	span.SetAttr("complete", strconv.FormatBool(res.Complete))
	span.End()
	return res, nil
}

// finish copies the incumbent and counters into res.
func (s *searcher) finish(res *Result, complete bool) {
	s.incMu.Lock()
	res.Schedule = s.incSched
	res.Cost = s.incCost
	res.Trajectory = append([]Improvement(nil), s.traj...)
	s.incMu.Unlock()
	res.Complete = complete
	res.Expanded = s.expanded.Load()
	res.Pruned = s.pruned.Load()
	res.Deduped = s.deduped.Load()
	res.Improvements = s.improvements.Load()
}

// counters is the anytime tier's solver counter set, resolved once so
// a worker's flush takes no registry lock.
var counters = guard.CountersFor("anytime")

// worker is one parallel search loop. Deadline and state-budget trips
// stop the whole search and are swallowed (the anytime contract:
// return the incumbent); cancellation propagates.
func (s *searcher) worker(ctx context.Context, id int, wlim guard.Limits) error {
	ck := guard.New(ctx, wlim)
	defer ck.Release()
	defer func() { counters.Record(ctx, ck.TakeCounts()) }()
	for {
		if s.stop.Load() {
			return nil
		}
		st := s.pop(id)
		if st == nil {
			if s.pending.Load() == 0 {
				return nil
			}
			// Starved but work is in flight elsewhere: nap briefly, but
			// stay responsive to the deadline.
			select {
			case <-ck.Context().Done():
				return s.trip(guard.Wrap(ck.Context().Err()))
			case <-time.After(100 * time.Microsecond):
			}
			continue
		}
		if err := s.expandTracked(ck, st); err != nil {
			return s.trip(err)
		}
	}
}

// trip classifies a worker abort: cancellation propagates (and still
// stops the siblings), every other trip is the anytime exit.
func (s *searcher) trip(err error) error {
	s.stop.Store(true)
	if errors.Is(err, guard.ErrCanceled) {
		return err
	}
	s.tripped.Store(true)
	return nil
}

// expandTracked wraps expand so pending is decremented even if the
// expansion panics (the sibling workers must not wait forever for a
// state a crashed worker took).
func (s *searcher) expandTracked(ck *guard.Checker, st *state) error {
	defer s.pending.Add(-1)
	return s.expand(ck, st)
}

// expand generates every compute-successor of st, pruning against the
// incumbent bound and the visited table.
func (s *searcher) expand(ck *guard.Checker, st *state) error {
	if err := ck.Tick(); err != nil {
		return err
	}
	if e := s.expanded.Add(1); e&127 == 1 {
		// Periodic incumbent probe: a greedy min-f rollout from this
		// state down to a complete schedule. Best-first alone can plateau
		// on a sea of shallow states whose f still equals the lower bound
		// (no spill cost accrued yet); the dive supplies tight incumbents
		// early, which turns the bound into an actual pruner and is where
		// the anytime tier's time-to-first-improvement comes from.
		s.dive(st)
	}
	if st.f >= cdag.Weight(s.best.Load()) {
		// The incumbent improved since st was pushed.
		s.pruned.Add(1)
		return nil
	}
	n := s.g.Len()
	for v := 0; v < n; v++ {
		id := cdag.NodeID(v)
		if s.isSource[v] || st.done.Has(id) {
			continue
		}
		ready := true
		for _, p := range s.g.Parents(id) {
			if !s.isSource[p] && !st.done.Has(p) {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		child := s.makeChild(st, id)
		if child == nil {
			s.pruned.Add(1)
			continue
		}
		if child.nDone == s.nonSource {
			s.offer(child)
			continue
		}
		child.f = child.cost + s.residual(child)
		if child.f >= cdag.Weight(s.best.Load()) {
			s.pruned.Add(1)
			continue
		}
		h := stateHash(child)
		if !s.visitShard(h).insert(h, child) {
			s.deduped.Add(1)
			continue
		}
		if err := ck.AddStates(1); err != nil {
			return err
		}
		s.pending.Add(1)
		s.push(h, child)
		if s.stop.Load() {
			return nil
		}
	}
	return nil
}

// live reports whether u's value still has a consumer: a child not yet
// computed. Dead values may be dropped (and need never be stored,
// sinks excepted — sinks are stored at compute time).
func (s *searcher) live(u cdag.NodeID, done bitset.Set) bool {
	for _, c := range s.g.Children(u) {
		if !done.Has(c) {
			return true
		}
	}
	return false
}

// residual is the state-generalized Proposition 2.4 bound: every live
// computed-or-source value not resident in fast memory must be loaded
// again before its remaining consumers compute (no-recompute subspace:
// reloading is the only way), and every uncomputed sink must still be
// stored. The two sets are disjoint and the costs unavoidable, so
// cost + residual is admissible; at the root it equals
// core.LowerBound.
func (s *searcher) residual(st *state) cdag.Weight {
	var r cdag.Weight
	n := s.g.Len()
	for v := 0; v < n; v++ {
		id := cdag.NodeID(v)
		if s.isSource[v] || st.done.Has(id) {
			if !st.red.Has(id) && s.live(id, st.done) {
				r += s.g.Weight(id)
			}
		} else if s.g.IsSink(id) {
			r += s.g.Weight(id)
		}
	}
	return r
}

// makeChild realizes "compute v next" on top of st: load v's missing
// parents (evicting for room with a store-cost-aware heuristic),
// compute v, store it if it is a sink, and release every value v's
// computation killed. The micro-move order is deterministic, so equal
// (done, red, blue) classes collapse in the visited table. Returns nil
// only if eviction cannot make room, which cannot happen at budgets
// over the existence bound (defensive prune, not an error path).
func (s *searcher) makeChild(st *state, v cdag.NodeID) *state {
	g := s.g
	wv := g.Weight(v)
	parents := g.Parents(v)
	done, red, blue := st.done, st.red, st.blue
	redW, cost := st.redW, st.cost
	moves := make([]core.Move, 0, 2*len(parents)+4)

	pinned := func(u cdag.NodeID) bool {
		if u == v {
			return true
		}
		for _, p := range parents {
			if p == u {
				return true
			}
		}
		return false
	}
	// makeRoom evicts resident values until need more bits fit. Every
	// resident is live (dead values are released eagerly below), so an
	// evicted unstored value must be written back first — the heuristic
	// prefers already-stored values (future reload w only, no store),
	// then frees the most room per eviction.
	makeRoom := func(need cdag.Weight) bool {
		for redW+need > s.budget {
			u := cdag.None
			uStored := false
			red.ForEach(func(c cdag.NodeID) {
				if pinned(c) {
					return
				}
				cStored := blue.Has(c)
				switch {
				case u == cdag.None:
				case cStored != uStored:
					if !cStored {
						return
					}
				case g.Weight(c) < g.Weight(u):
					return
				case g.Weight(c) == g.Weight(u) && c > u:
					return
				}
				u, uStored = c, cStored
			})
			if u == cdag.None {
				return false
			}
			if !uStored {
				moves = append(moves, core.Move{Kind: core.M2, Node: u})
				blue = blue.With(u)
				cost += g.Weight(u)
			}
			moves = append(moves, core.Move{Kind: core.M4, Node: u})
			red = red.Without(u)
			redW -= g.Weight(u)
		}
		return true
	}
	for _, p := range parents {
		if red.Has(p) {
			continue
		}
		// Invariant: a computed-or-source value is red or blue, so a
		// non-red parent is loadable.
		if !makeRoom(g.Weight(p)) {
			return nil
		}
		moves = append(moves, core.Move{Kind: core.M1, Node: p})
		red = red.With(p)
		redW += g.Weight(p)
		cost += g.Weight(p)
	}
	if !makeRoom(wv) {
		return nil
	}
	moves = append(moves, core.Move{Kind: core.M3, Node: v})
	red = red.With(v)
	redW += wv
	done = done.With(v)
	if g.IsSink(v) {
		moves = append(moves, core.Move{Kind: core.M2, Node: v})
		blue = blue.With(v)
		cost += wv
	}
	// Computing v can only kill v's parents (and v itself, when it is a
	// sink); release them so states canonicalize and room frees early.
	// Dead non-sinks are never needed again, dead sinks are already
	// stored: a bare M4 suffices either way.
	for _, p := range parents {
		if red.Has(p) && !s.live(p, done) {
			moves = append(moves, core.Move{Kind: core.M4, Node: p})
			red = red.Without(p)
			redW -= g.Weight(p)
		}
	}
	if !s.live(v, done) {
		moves = append(moves, core.Move{Kind: core.M4, Node: v})
		red = red.Without(v)
		redW -= wv
	}
	return &state{
		parent: st,
		moves:  moves,
		done:   done,
		red:    red,
		blue:   blue,
		redW:   redW,
		cost:   cost,
		nDone:  st.nDone + 1,
	}
}

// dive rolls greedily from st to a complete schedule, at every step
// committing to the ready node whose realization has the smallest
// cost + residual (first in ID order on ties), and offers the result
// as an incumbent. Dive states bypass the frontier and the visited
// table: the rollout is a bound probe, not part of the systematic
// search.
func (s *searcher) dive(st *state) {
	cur := st
	n := s.g.Len()
	for cur.nDone < s.nonSource {
		var best *state
		var bestF cdag.Weight
		for v := 0; v < n; v++ {
			id := cdag.NodeID(v)
			if s.isSource[v] || cur.done.Has(id) {
				continue
			}
			ready := true
			for _, p := range s.g.Parents(id) {
				if !s.isSource[p] && !cur.done.Has(p) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			child := s.makeChild(cur, id)
			if child == nil {
				continue
			}
			f := child.cost + s.residual(child)
			if best == nil || f < bestF {
				best, bestF = child, f
			}
		}
		if best == nil {
			return
		}
		cur = best
	}
	s.offer(cur)
}

// offer installs a complete schedule as the incumbent if it improves
// on it: a CAS loop on the atomic cost bound (so concurrent losers
// back off without a lock), then the schedule swap under the mutex.
// The incumbent only ever improves — the monotone anytime guarantee.
func (s *searcher) offer(st *state) {
	c := st.cost
	for {
		cur := s.best.Load()
		if int64(c) >= cur {
			s.pruned.Add(1)
			return
		}
		if s.best.CompareAndSwap(cur, int64(c)) {
			break
		}
	}
	sched := reconstruct(st)
	s.incMu.Lock()
	if c < s.incCost {
		s.incCost = c
		s.incSched = sched
		s.traj = append(s.traj, Improvement{Cost: c, Elapsed: time.Since(s.start)})
		s.improvements.Add(1)
	}
	s.incMu.Unlock()
	if c <= s.lb {
		// Met the admissible global bound: provably optimal, stop.
		s.optimalHit.Store(true)
		s.stop.Store(true)
	} else if s.target > 0 && c <= s.target {
		s.targetHit.Store(true)
		s.stop.Store(true)
	}
}

// reconstruct concatenates the micro-move segments from the root to
// st into one schedule.
func reconstruct(st *state) core.Schedule {
	total := 0
	for x := st; x != nil; x = x.parent {
		total += len(x.moves)
	}
	out := make(core.Schedule, total)
	i := total
	for x := st; x != nil; x = x.parent {
		i -= len(x.moves)
		copy(out[i:], x.moves)
	}
	return out
}

// stateHash chains the three packed set hashes into the key the
// visited table and the frontier sharding share.
func stateHash(st *state) uint64 {
	h := st.blue.Hash(0x9E3779B97F4A7C15)
	h = st.red.Hash(h)
	return st.done.Hash(h)
}
