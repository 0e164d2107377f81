package ktree

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/perm"
	"wrbpg/internal/stepmemo"
)

// entry is one memoized Pt(v, ·) value. The chosen parent order is
// stored as a row index into the shared permutation table of the
// node's arity (perm.Table), so cells hold no per-cell slices; delta
// bit i set means the parent at position i of that row keeps its red
// pebble while later parents are computed (δ_i = 1 in Eq. 6).
type entry struct {
	cost    cdag.Weight
	permIdx int32
	delta   uint16
}

// Scheduler computes Pt(v, b) (Eq. 6) with memoization and generates
// optimal schedules for k-ary trees. CostCtx/ScheduleCtx guard every
// query with the memo's one reusable checker. It is not safe for
// concurrent use.
//
// The memo stores, per node, the steps of Pt(v, ·) as a sorted list
// of disjoint budget intervals (package stepmemo). A warm hit is one
// binary search over a short slice: no map, no allocation.
type Scheduler struct {
	t    *Tree
	memo stepmemo.Rows[entry]
	// exist[v] is the subtree existence bound: Pt(v, b) is finite iff
	// b ≥ exist[v]. The all-spill strategy computes every subtree node
	// with only itself and its parents resident, so the bound is the
	// subtree max of w_u + Σ parent weights (Proposition 2.3 applied
	// to the subtree) — exact, and computable in one bottom-up pass.
	// It short-circuits the whole infeasible region to an O(1) answer
	// with a maximally wide interval, which is what keeps budget
	// sweeps cheap near the existence boundary.
	exist []cdag.Weight
}

// NewScheduler returns a scheduler for the tree. The k! permutation
// tables for every arity in the tree are built (or fetched from the
// process-wide cache) here, once, instead of being re-enumerated with
// Heap's algorithm on every DP cell.
func NewScheduler(t *Tree) *Scheduler {
	for v := 0; v < t.G.Len(); v++ {
		if k := t.G.InDegree(cdag.NodeID(v)); k > 0 {
			perm.Table(k)
		}
	}
	s := &Scheduler{
		t:     t,
		memo:  stepmemo.NewRows[entry](t.G.Len()),
		exist: make([]cdag.Weight, t.G.Len()),
	}
	// Node IDs are topological by construction, so one forward pass
	// sees every parent before its child.
	for v := range s.exist {
		s.setExist(cdag.NodeID(v))
	}
	return s
}

// setExist recomputes v's existence bound from its parents' bounds.
func (s *Scheduler) setExist(v cdag.NodeID) {
	g := s.t.G
	e := g.Weight(v)
	for _, p := range g.Parents(v) {
		e += g.Weight(p)
	}
	for _, p := range g.Parents(v) {
		if s.exist[p] > e {
			e = s.exist[p]
		}
	}
	s.exist[v] = e
}

// SetWeights applies weight deltas to the tree and invalidates exactly
// the memo rows whose value can change: Pt(v, b) depends only on
// weights inside v's subtree (Eq. 6), so only the changed nodes' root
// chains go stale (stepmemo.Memo.Patch). Their exist bounds are
// recomputed bottom-up, and the tree is reverted unchanged on any
// validation error. It returns the number of budget intervals cleared
// and the number surviving, which also feed TakeCounts.
func (s *Scheduler) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	return s.memo.Patch(s.t.G, ds, "ktree", nil, s.setExist)
}

// pt computes Pt(v, b) of Eq. 6, minimizing over parent permutations
// σ and keep/spill vectors δ. Configurations that spill a source
// parent are skipped: re-ordering the source to the end of the
// permutation with δ=1 is always at least 2·w cheaper (sources
// already hold blue pebbles), so the minimum is unchanged and the
// generator never writes a blue pebble onto a node that has one.
//
// Alongside the entry, pt returns the budget interval [lo, hi] on
// which it is valid: a cold cell starts from the feasibility cutoff
// and narrows by every child interval it consults (shifted by the
// red-pebble weight held while that child was queried). On the
// intersection every configuration evaluates identically, so both
// the minimum and the argmin are constant there.
func (s *Scheduler) pt(v cdag.NodeID, b cdag.Weight) (entry, cdag.Weight, cdag.Weight) {
	if st := s.memo.Find(v, b); st != nil {
		s.memo.Hit()
		return st.V, st.Lo, st.Hi
	}
	// Cancellation checkpoint on the cold path only: warm hits return
	// above untouched, and an all-warm solve finishes in microseconds.
	if s.memo.Tick() {
		return entry{cost: Inf}, b, b
	}
	g := s.t.G
	// The whole infeasible region is one O(1) step: Pt(v, b) is finite
	// exactly when b reaches the subtree existence bound.
	if b < s.exist[v] {
		return s.memo.Store(v, b, -Inf, s.exist[v]-1, entry{cost: Inf})
	}
	if g.IsSource(v) {
		w := g.Weight(v)
		return s.memo.Store(v, b, w, Inf, entry{cost: w})
	}
	parents := g.Parents(v)
	k := len(parents)
	// Every feasible configuration consults all k children, whose
	// intervals start no lower than their own existence bounds, so the
	// narrowing below keeps lo ≥ exist[v] automatically; starting from
	// the local co-residency cutoff is enough.
	lo, hi := s.exist[v], Inf
	best := entry{cost: Inf}
	for pi, order := range perm.Table(k) {
		for delta := uint16(0); delta < 1<<uint(k); delta++ {
			skip := false
			var cost, held cdag.Weight
			for i := 0; i < k && !skip; i++ {
				p := parents[order[i]]
				keep := delta&(1<<uint(i)) != 0
				if !keep && g.IsSource(p) {
					skip = true // dominated; see doc comment
					break
				}
				sub, slo, shi := s.pt(p, b-held)
				lo, hi = max(lo, slo+held), min(hi, shi+held)
				if sub.cost >= Inf {
					skip = true
					break
				}
				cost += sub.cost
				if keep {
					held += g.Weight(p)
				} else {
					cost += 2 * g.Weight(p)
				}
			}
			if skip || cost >= best.cost {
				continue
			}
			best = entry{cost: cost, permIdx: int32(pi), delta: delta}
		}
	}
	return s.memo.Store(v, b, lo, hi, best)
}

// MinCost returns the minimum weighted schedule cost for the whole
// tree under budget b: w_root + Pt(root, b) (Eq. 7), or Inf when no
// valid schedule exists.
func (s *Scheduler) MinCost(b cdag.Weight) cdag.Weight {
	e, _, _ := s.pt(s.t.Root, b)
	if e.cost >= Inf {
		return Inf
	}
	return e.cost + s.t.G.Weight(s.t.Root)
}

// CostCtx is MinCost under a cancellation context and resource
// limits, guarded by the scheduler's reusable checker, so a warm query
// allocates nothing when lim carries no deadline. It returns
// guard.ErrCanceled / guard.ErrDeadline / guard.ErrBudgetExceeded
// (wrapped) when the query was aborted; limits are per query, and the
// scheduler remains usable afterwards — partial results computed after
// the abort are never memoized.
func (s *Scheduler) CostCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (cdag.Weight, error) {
	s.memo.Begin(ctx, lim)
	defer s.memo.End()
	c := s.MinCost(b)
	if err := s.memo.Err(); err != nil {
		return 0, fmt.Errorf("ktree: %w", err)
	}
	return c, nil
}

// ScheduleCtx is Schedule under a cancellation context and resource
// limits, with the same guard and abort semantics as CostCtx.
func (s *Scheduler) ScheduleCtx(ctx context.Context, lim guard.Limits, b cdag.Weight) (core.Schedule, error) {
	s.memo.Begin(ctx, lim)
	defer s.memo.End()
	sched, err := s.Schedule(b)
	if cerr := s.memo.Err(); cerr != nil {
		return nil, fmt.Errorf("ktree: %w", cerr)
	}
	return sched, err
}

// TakeCounts returns and resets the observation counts (memo hits,
// entries, interval splits, patch invalidations) that CostCtx,
// ScheduleCtx and SetWeights accumulated since the last call, for
// metric export.
func (s *Scheduler) TakeCounts() guard.Counts { return s.memo.TakeCounts() }

// Schedule generates an optimal schedule under budget b; it always
// passes core.Simulate with cost MinCost(b), and its capacity is its
// length.
func (s *Scheduler) Schedule(b cdag.Weight) (core.Schedule, error) {
	if s.MinCost(b) >= Inf {
		return nil, fmt.Errorf("ktree: no valid schedule under budget %d (existence bound %d)", b, core.MinExistenceBudget(s.t.G))
	}
	sched := make(core.Schedule, 0, s.moves(s.t.Root, b)+2)
	if err := s.gen(s.t.Root, b, &sched); err != nil {
		return nil, err
	}
	sched = sched.Append(
		core.Move{Kind: core.M2, Node: s.t.Root},
		core.Move{Kind: core.M4, Node: s.t.Root},
	)
	return sched, nil
}

// gen emits the moves realizing Pt(v, b): red pebble on v at the end,
// no other red pebbles in v's subtree.
func (s *Scheduler) gen(v cdag.NodeID, b cdag.Weight, sched *core.Schedule) error {
	g := s.t.G
	e, _, _ := s.pt(v, b)
	if e.cost >= Inf {
		return fmt.Errorf("ktree: internal error: infeasible subproblem node %d budget %d", v, b)
	}
	if g.IsSource(v) {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	parents := g.Parents(v)
	order := perm.Table(len(parents))[e.permIdx]
	var held cdag.Weight
	for i, oi := range order {
		p := parents[oi]
		if err := s.gen(p, b-held, sched); err != nil {
			return err
		}
		if e.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			*sched = sched.Append(
				core.Move{Kind: core.M2, Node: p},
				core.Move{Kind: core.M4, Node: p},
			)
		}
	}
	// Reload the spilled parents, in the order they were spilled.
	for i, oi := range order {
		if e.delta&(1<<uint(i)) == 0 {
			*sched = sched.Append(core.Move{Kind: core.M1, Node: parents[oi]})
		}
	}
	*sched = sched.Append(core.Move{Kind: core.M3, Node: v})
	for _, p := range parents {
		*sched = sched.Append(core.Move{Kind: core.M4, Node: p})
	}
	return nil
}

// moves returns the number of moves gen emits for (v, b), read from
// the memo that MinCost(b) filled, so Schedule can size its result
// exactly. It reads cells without counting memo hits. A cell the memo
// lacks (a store that the resource limits refused) counts no moves:
// the result only sizes the schedule, which then grows as needed.
func (s *Scheduler) moves(v cdag.NodeID, b cdag.Weight) int {
	g := s.t.G
	st := s.memo.Find(v, b)
	if st == nil {
		return 0
	}
	if g.IsSource(v) {
		return 1
	}
	parents := g.Parents(v)
	n := 1 + len(parents) // M3 v, M4 on every parent
	var held cdag.Weight
	for i, oi := range perm.Table(len(parents))[st.V.permIdx] {
		p := parents[oi]
		n += s.moves(p, b-held)
		if st.V.delta&(1<<uint(i)) != 0 {
			held += g.Weight(p)
		} else {
			n += 3 // M2, M4 and the reload M1
		}
	}
	return n
}

// MinMemory returns the smallest budget (on multiples of step) whose
// optimal cost equals the algorithmic lower bound (Definition 2.6).
// The binary search runs inside this scheduler's warm memo via
// memdesign.MinMemory.
func (s *Scheduler) MinMemory(step cdag.Weight) (cdag.Weight, error) {
	b, err := memdesign.MinMemory(s.t.G, s.MinCost, step)
	if err != nil {
		return 0, fmt.Errorf("ktree: %w", err)
	}
	return b, nil
}

// StrategyCount returns 2^k·k!, the number of per-node strategies the
// DP enumerates for in-degree k — the quantity bounding Theorem 3.8.
func StrategyCount(k int) int {
	return perm.Count(k) << uint(k)
}
