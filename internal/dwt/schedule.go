package dwt

import (
	"context"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/guard"
	"wrbpg/internal/memdesign"
	"wrbpg/internal/stepmemo"
)

// Inf is the sentinel cost of an infeasible subproblem (the ∞ entries
// of Eq. 2).
const Inf = stepmemo.Inf

// strategy identifies one of the four representative parent-scheduling
// strategies of Eq. 4. Keep strategies retain the first parent's red
// pebble while the second parent's subtree is computed under a reduced
// budget; spill strategies write the first parent to slow memory,
// compute the second at full budget, and reload.
type strategy int8

const (
	stratLeaf    strategy = iota - 1 // base case: M1 on an input
	stratKeepP1                      // (4): red p1, red p2 — P(p1,b) + P(p2,b−w1)
	stratKeepP2                      // (8): red p2, red p1 — P(p2,b) + P(p1,b−w2)
	stratSpillP1                     // (3): blue p1, red p2 — P(p1,b) + P(p2,b) + 2w1
	stratSpillP2                     // (7): blue p2, red p1 — P(p2,b) + P(p1,b) + 2w2
)

type entry struct {
	cost   cdag.Weight
	choice strategy
}

// Scheduler computes minimum weighted WRBPG schedules for a DWT graph
// via the memoized dynamic program P(v, b) of Lemma 3.3 and generates
// the corresponding move sequences (Algorithm 1). A Scheduler caches
// subproblem solutions across budgets, so sweeping budgets on one
// graph reuses work, and CostCtx/ScheduleCtx guard every query with
// the memo's one reusable checker. It is not safe for concurrent use.
//
// The memo stores, per node, the steps of P(v, ·) as a sorted list of
// disjoint budget intervals (package stepmemo), so one cold cell
// answers every budget on which its strategy choice stays the same. A
// warm hit is one binary search over a short slice, with zero
// allocations.
type Scheduler struct {
	dg   *Graph
	memo stepmemo.Rows[entry]
	// roots and pruned cache Graph.Roots / Graph.PrunedNodes, so MinCost
	// iterates plain slices instead of allocating per call — required by
	// the zero-allocation warm query and patch paths.
	roots  []cdag.NodeID
	pruned []cdag.NodeID
	// exist caches core.MinExistenceBudget, below which MinCost is Inf,
	// so a query does not rescan the graph; SetWeights refreshes it.
	exist cdag.Weight
}

// NewScheduler validates the weight assumption of Lemma 3.2 and
// returns a scheduler for the graph.
func NewScheduler(dg *Graph) (*Scheduler, error) {
	// Pruned (even-index, layer > 1) nodes in ID order, mirroring
	// Graph.PrunedNodes without its map.
	var pruned []cdag.NodeID
	for i := 2; i <= dg.D+1; i++ {
		l := dg.Layers[i-1]
		for j := 2; j <= len(l); j += 2 {
			pruned = append(pruned, l[j-1])
		}
	}
	s := &Scheduler{
		memo:   stepmemo.NewRows[entry](dg.G, func(v cdag.NodeID) bool { return !dg.G.IsSource(v) }),
		roots:  dg.Roots(),
		pruned: pruned,
	}
	if err := s.Reset(dg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset points the scheduler at dg, a DWT graph of the same shape as
// the one it was built for (the same n and d, as every Graph of one
// Topology has), under any weights. It first checks the Lemma 3.2
// weight assumption, and on failure it returns the error and leaves
// the scheduler as it was. Otherwise it empties the memo, keeping its
// capacity, and refreshes the existence bound, so the next query
// answers exactly as a NewScheduler(dg) would, without allocating.
// roots and pruned depend on the shape alone and are kept.
func (s *Scheduler) Reset(dg *Graph) error {
	if err := dg.CheckWeightAssumption(); err != nil {
		return err
	}
	s.dg = dg
	s.memo.Reset()
	s.exist = core.MinExistenceBudget(dg.G)
	return nil
}

// Graph returns the scheduled DWT graph.
func (s *Scheduler) Graph() *Graph { return s.dg }

// SetWeights applies weight deltas to the graph and invalidates
// exactly the memo rows whose value can change: P(v, b) depends only
// on weights inside v's subtree (Lemma 3.3), so a change at u stales
// the rows of u and its descendants and nothing else
// (stepmemo.Rows.Patch). Deltas are validated (positive weights,
// in-range nodes, the Lemma 3.2 weight assumption must still hold
// afterwards) and the graph is reverted unchanged on any error. It
// returns the number of budget intervals cleared and the number
// surviving, which also feed TakeCounts; rows keep their capacity, so
// re-solving after a patch allocates nothing in steady state.
func (s *Scheduler) SetWeights(ds []cdag.WeightDelta) (invalidated, reused int64, err error) {
	invalidated, reused, err = s.memo.Patch(s.dg.G, ds, "dwt", s.dg.CheckWeightAssumption, nil)
	if err == nil {
		s.exist = core.MinExistenceBudget(s.dg.G)
	}
	return invalidated, reused, err
}

// Exist returns the existence bound (Prop 2.3) of the current
// weights, below which MinCost is Inf.
func (s *Scheduler) Exist() cdag.Weight { return s.exist }

// p computes P(v, b): the minimum weighted cost to place a red pebble
// on v, starting from blue pebbles on the subtree's inputs, using at
// most b red weight inside the subtree, and leaving no other red
// pebbles behind.
//
// Alongside the entry, p returns the budget interval [lo, hi] ∋ b on
// which it is valid: a cold cell starts from the co-residency cutoff
// w(v)+w1+w2 and narrows by the interval of each of the four
// strategies' sub-calls, shifted by the red weight held while that
// sub-call ran. On the intersection every consulted value is
// constant, so the minimum and the chosen strategy are too.
//
// Leaves and budgets below the cutoff are O(1) answers: they are
// returned before the memo probe, and never stored or ticked.
func (s *Scheduler) p(v cdag.NodeID, b cdag.Weight) (entry, cdag.Weight, cdag.Weight) {
	g := s.dg.G
	if g.IsSource(v) {
		w := g.Weight(v)
		if w > b {
			return entry{cost: Inf, choice: stratLeaf}, -Inf, w - 1
		}
		return entry{cost: w, choice: stratLeaf}, w, Inf
	}
	ps := g.Parents(v)
	p1, p2 := ps[0], ps[1]
	w1, w2 := g.Weight(p1), g.Weight(p2)
	lo, hi := g.Weight(v)+w1+w2, Inf
	if lo > b {
		return entry{cost: Inf, choice: stratKeepP1}, -Inf, lo - 1
	}
	if st := s.memo.Find(v, b); st != nil {
		s.memo.Hit()
		return st.V, st.Lo, st.Hi
	}
	// Cancellation checkpoint on the cold path only: warm hits return
	// above untouched, and an all-warm solve finishes in microseconds.
	if s.memo.Tick() {
		return entry{cost: Inf}, b, b
	}
	// sub returns P(p, b−shift) and narrows [lo, hi] by its interval.
	sub := func(p cdag.NodeID, shift cdag.Weight) cdag.Weight {
		e, slo, shi := s.p(p, b-shift)
		lo, hi = max(lo, slo+shift), min(hi, shi+shift)
		return e.cost
	}
	add := func(a, b cdag.Weight) cdag.Weight {
		if a >= Inf || b >= Inf {
			return Inf
		}
		return a + b
	}
	a1, a2 := sub(p1, 0), sub(p2, 0)
	// Keep strategies are evaluated first so that ties resolve to
	// them; spill strategies on source parents are strictly dominated
	// (see package tests), so the generator never has to write a blue
	// pebble onto a node that already has one.
	best := entry{cost: Inf, choice: stratKeepP1}
	for _, c := range [...]entry{
		{add(a1, sub(p2, w1)), stratKeepP1},
		{add(a2, sub(p1, w2)), stratKeepP2},
		{add(add(a1, a2), 2*w1), stratSpillP1},
		{add(add(a2, a1), 2*w2), stratSpillP2},
	} {
		if c.cost < best.cost {
			best = c
		}
	}
	return s.memo.Store(v, b, lo, hi, best)
}

// MinCost returns the cost of the minimum weighted schedule for the
// whole DWT graph under budget b, per Lemma 3.4: the DP cost of every
// pruned-tree root, plus the weights of all pruned (coefficient)
// nodes, plus the final blue-pebble placements on the roots. It
// returns Inf when no valid schedule exists under b.
func (s *Scheduler) MinCost(b cdag.Weight) cdag.Weight {
	if b < s.exist {
		return Inf
	}
	g := s.dg.G
	var total cdag.Weight
	for _, r := range s.roots {
		e, _, _ := s.p(r, b)
		if e.cost >= Inf {
			return Inf
		}
		total += e.cost + g.Weight(r) // P(r, B) plus the root's own M2
	}
	for _, v := range s.pruned {
		total += g.Weight(v) // each pruned coefficient is written once
	}
	return total
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
		return 0, fmt.Errorf("dwt: %w", err)
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
		return nil, fmt.Errorf("dwt: %w", cerr)
	}
	return sched, err
}

// TakeCounts returns and resets the observation counts (memo hits,
// entries, interval splits, patch invalidations) that CostCtx,
// ScheduleCtx and SetWeights accumulated since the last call, for
// metric export.
func (s *Scheduler) TakeCounts() guard.Counts { return s.memo.TakeCounts() }

// Detach drops the last query's context and counts sink, so a
// scheduler idle in a pool keeps no finished request reachable. Call
// it after TakeCounts; the next guarded query re-arms the checker.
func (s *Scheduler) Detach() { s.memo.Detach() }

// Schedule generates a minimum weighted WRBPG schedule for budget b
// (Algorithm 1: PebbleDWT). The returned schedule always passes
// core.Simulate with exactly MinCost(b) weighted I/O; its capacity is
// its length.
func (s *Scheduler) Schedule(b cdag.Weight) (core.Schedule, error) {
	if c := s.MinCost(b); c >= Inf {
		return nil, fmt.Errorf("dwt: no valid schedule under budget %d (existence bound %d)", b, s.exist)
	}
	n := 0
	for _, r := range s.roots {
		n += s.moves(r, b) + 2
	}
	sched := make(core.Schedule, 0, n)
	for _, r := range s.roots {
		if err := s.gen(r, b, &sched); err != nil {
			return nil, err
		}
		sched = sched.Append(
			core.Move{Kind: core.M2, Node: r},
			core.Move{Kind: core.M4, Node: r},
		)
	}
	return sched, nil
}

// gen emits the moves realizing P(v, b), leaving a red pebble on v and
// no other red pebbles in v's subtree. For non-input v it also emits
// the sibling coefficient's compute/store (the C block of Algorithm 1,
// line 25), whose M2 cost is the pruned-node term of Lemma 3.4.
func (s *Scheduler) gen(v cdag.NodeID, b cdag.Weight, sched *core.Schedule) error {
	g := s.dg.G
	e, _, _ := s.p(v, b)
	if e.cost >= Inf {
		return fmt.Errorf("dwt: internal error: generating infeasible subproblem for node %d at budget %d", v, b)
	}
	if e.choice == stratLeaf {
		*sched = sched.Append(core.Move{Kind: core.M1, Node: v})
		return nil
	}
	first, second, spill := s.order(v, e)
	if err := s.gen(first, b, sched); err != nil {
		return err
	}
	if spill {
		if g.IsSource(first) {
			// Strictly dominated by the keep strategy with swapped
			// order; selecting it would make the generated cost
			// diverge from P(v, b).
			return fmt.Errorf("dwt: internal error: spill strategy selected for source parent %d", first)
		}
		*sched = sched.Append(
			core.Move{Kind: core.M2, Node: first},
			core.Move{Kind: core.M4, Node: first},
		)
		if err := s.gen(second, b, sched); err != nil {
			return err
		}
		*sched = sched.Append(core.Move{Kind: core.M1, Node: first})
	} else {
		if err := s.gen(second, b-g.Weight(first), sched); err != nil {
			return err
		}
	}
	// Both parents now hold red pebbles. Emit the pruned sibling's
	// compute/store/delete, then compute v and release the parents.
	if u := s.dg.Sibling(v); u != cdag.None {
		*sched = sched.Append(
			core.Move{Kind: core.M3, Node: u},
			core.Move{Kind: core.M2, Node: u},
			core.Move{Kind: core.M4, Node: u},
		)
	}
	ps := g.Parents(v)
	*sched = sched.Append(
		core.Move{Kind: core.M3, Node: v},
		core.Move{Kind: core.M4, Node: ps[0]},
		core.Move{Kind: core.M4, Node: ps[1]},
	)
	return nil
}

// order returns the parents of non-input v in the order e's strategy
// computes them, and whether it spills the first.
func (s *Scheduler) order(v cdag.NodeID, e entry) (first, second cdag.NodeID, spill bool) {
	ps := s.dg.G.Parents(v)
	first, second = ps[0], ps[1]
	if e.choice == stratKeepP2 || e.choice == stratSpillP2 {
		first, second = second, first
	}
	return first, second, e.choice == stratSpillP1 || e.choice == stratSpillP2
}

// moves returns the number of moves gen emits for (v, b), read from
// the memo that MinCost(b) filled, so Schedule can size its result
// exactly. Sources are answered first, as they are never memoized. It
// reads cells without counting memo hits. A cell the memo lacks (a
// store that the resource limits refused) counts no moves: the result
// only sizes the schedule, which then grows as needed.
func (s *Scheduler) moves(v cdag.NodeID, b cdag.Weight) int {
	if s.dg.G.IsSource(v) {
		return 1
	}
	st := s.memo.Find(v, b)
	if st == nil {
		return 0
	}
	first, second, spill := s.order(v, st.V)
	n := s.moves(first, b) + 3 // M3 v, M4 on both parents
	if spill {
		n += 3 + s.moves(second, b) // M2, M4 and the reload M1 of first
	} else {
		n += s.moves(second, b-s.dg.G.Weight(first))
	}
	if s.dg.Sibling(v) != cdag.None {
		n += 3
	}
	return n
}

// MinMemory returns the minimum fast memory size of Definition 2.6:
// the smallest budget (searched on multiples of step) whose minimum
// schedule cost equals the algorithmic lower bound. MinCost is
// monotone non-increasing in the budget, so memdesign.MinMemory's
// binary search applies, and it runs inside this scheduler's warm
// memo.
func (s *Scheduler) MinMemory(step cdag.Weight) (cdag.Weight, error) {
	b, err := memdesign.MinMemory(s.dg.G, s.MinCost, step)
	if err != nil {
		return 0, fmt.Errorf("dwt: %w", err)
	}
	return b, nil
}
